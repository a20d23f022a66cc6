// Unit tests for the deterministic PRNGs (util/prng.h). These generators
// stand in for TrueNorth's hardware PRNGs, so bit-exact reproducibility is a
// correctness property, not just a convenience. The jump-ahead and both
// block-lane draw bodies are checked against the serial stream here.
#include "util/prng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

namespace compass::util {
namespace {

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 a(12345);
  SplitMix64 b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(DeriveSeed, DistinctStreamsGetDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t stream = 0; stream < 10000; ++stream) {
    seeds.insert(derive_seed(42, stream));
  }
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(DeriveSeed, AdjacentStreamsDecorrelated) {
  // Hamming distance between adjacent streams' seeds should hover near 32.
  int total_bits = 0;
  for (std::uint64_t s = 0; s < 100; ++s) {
    total_bits += std::popcount(derive_seed(7, s) ^ derive_seed(7, s + 1));
  }
  EXPECT_GT(total_bits, 2400);  // mean 32 +- a wide margin
  EXPECT_LT(total_bits, 4000);
}

TEST(CorePrng, Deterministic) {
  CorePrng a(99), b(99);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(CorePrng, ZeroSeedIsLegal) {
  CorePrng prng(0);
  EXPECT_NE(prng.next_u64(), 0u);
  // State must never become zero (xorshift degenerate fixed point).
  for (int i = 0; i < 10000; ++i) {
    prng.next_u64();
    EXPECT_NE(prng.state(), 0u);
  }
}

TEST(CorePrng, ReseedRestartsSequence) {
  CorePrng prng(5);
  const std::uint64_t first = prng.next_u64();
  prng.next_u64();
  prng.reseed(5);
  EXPECT_EQ(prng.next_u64(), first);
}

TEST(CorePrng, SetStateRoundTrips) {
  CorePrng prng(17);
  prng.next_u64();
  const std::uint64_t saved = prng.state();
  const std::uint64_t expect = CorePrng(prng).next_u64();
  CorePrng restored(1234);
  restored.set_state(saved);
  EXPECT_EQ(restored.next_u64(), expect);
}

TEST(CorePrng, Bernoulli8MatchesProbability) {
  CorePrng prng(7);
  for (int p8 : {0, 32, 128, 200, 255}) {
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
      if (prng.bernoulli_8(static_cast<std::uint8_t>(p8))) ++hits;
    }
    const double expected = n * p8 / 256.0;
    EXPECT_NEAR(hits, expected, 4.5 * std::sqrt(n * (p8 / 256.0) * (1 - p8 / 256.0)) + 1)
        << "p8=" << p8;
  }
}

TEST(CorePrng, Bernoulli8ZeroNeverFires) {
  CorePrng prng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_FALSE(prng.bernoulli_8(0));
}

TEST(CorePrng, UniformMaskedStaysInRange) {
  CorePrng prng(11);
  for (std::uint32_t bits = 0; bits <= 16; ++bits) {
    const std::uint32_t mask = (1u << bits) - 1;
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LE(prng.uniform_masked(mask), mask);
    }
  }
}

TEST(CorePrng, UniformMaskedCoversRange) {
  CorePrng prng(13);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(prng.uniform_masked(15));
  EXPECT_EQ(seen.size(), 16u);
}

TEST(CorePrng, UniformBelowBounds) {
  CorePrng prng(21);
  for (std::uint32_t n : {1u, 2u, 3u, 10u, 77u, 1000u}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(prng.uniform_below(n), n);
    }
  }
}

TEST(CorePrng, UniformBelowIsRoughlyUniform) {
  CorePrng prng(31);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[prng.uniform_below(8)];
  for (int c : counts) EXPECT_NEAR(c, n / 8, 600);
}

TEST(CorePrng, UniformDoubleInUnitInterval) {
  CorePrng prng(41);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = prng.uniform_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(CorePrng, ByteDistributionIsFlat) {
  CorePrng prng(51);
  std::vector<int> counts(256, 0);
  const int n = 256 * 2000;
  for (int i = 0; i < n; ++i) ++counts[prng.next_u8()];
  for (int c : counts) EXPECT_NEAR(c, 2000, 350);
}

// --- Jump-ahead and block-lane draws ------------------------------------

/// Generator states the lane bodies must handle: 60 derived seeds, the
/// state a zero seed is remapped to, the default state, single-bit and
/// all-ones states, and each nibble value repeated in all 16 nibbles (so
/// every jump-table entry is read).
std::vector<std::uint64_t> lane_test_states() {
  std::vector<std::uint64_t> states;
  for (std::uint64_t i = 0; i < 60; ++i) states.push_back(derive_seed(77, i));
  for (std::uint64_t v = 1; v < 16; ++v) {
    states.push_back(v * 0x1111111111111111ULL);
  }
  CorePrng remapped;
  remapped.set_state(0);
  states.push_back(remapped.state());
  states.push_back(CorePrng(0).state());
  states.push_back(CorePrng().state());
  states.push_back(1);
  states.push_back(std::uint64_t{1} << 63);
  states.push_back(~std::uint64_t{0});
  return states;
}

TEST(JumpAhead, EqualsSerialSteps) {
  for (const unsigned steps : {32u, 64u, 128u, 256u}) {
    for (const std::uint64_t s : lane_test_states()) {
      CorePrng serial;
      serial.set_state(s);
      for (unsigned i = 0; i < steps; ++i) serial.next_u64();
      EXPECT_EQ(detail::jump_ahead(s, steps), serial.state())
          << "steps=" << steps << " state=" << s;
    }
  }
}

using LaneDrawBody = void (*)(std::uint64_t&, std::uint32_t*, unsigned) noexcept;

/// `body` must write the serial next_u32() stream and end where the serial
/// generator does, for both draw counts a neuron phase makes.
void expect_lanes_match_serial(LaneDrawBody body) {
  for (const unsigned n : {256u, 512u}) {
    for (const std::uint64_t s : lane_test_states()) {
      CorePrng serial;
      serial.set_state(s);
      std::vector<std::uint32_t> expect(n);
      for (auto& e : expect) e = serial.next_u32();
      std::vector<std::uint32_t> out(n + 1, 0xDEADBEEFu);
      std::uint64_t state = s;
      body(state, out.data(), n);
      EXPECT_EQ(out.back(), 0xDEADBEEFu) << "wrote past out[n) n=" << n;
      out.pop_back();
      ASSERT_EQ(out, expect) << "n=" << n << " state=" << s;
      ASSERT_EQ(state, serial.state()) << "n=" << n << " state=" << s;
    }
  }
}

TEST(LaneDraws, PortableBodyMatchesSerialStream) {
  expect_lanes_match_serial(&detail::lane_draws_portable);
}

bool cpu_has_avx512() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

TEST(LaneDraws, Avx512BodyMatchesSerialStream) {
#if defined(__x86_64__)
  if (!cpu_has_avx512()) {
    GTEST_SKIP() << "this CPU lacks avx512f/avx512dq; the wide body cannot run";
  }
  expect_lanes_match_serial(&detail::lane_draws_avx512);
#else
  GTEST_SKIP() << "the wide body is compiled for x86-64 only";
#endif
}

}  // namespace
}  // namespace compass::util
