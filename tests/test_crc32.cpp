// CRC-32 lockdown: both production bodies (slice-by-8 and PCLMULQDQ
// folding) against the published check value and against the bytewise
// table loop, which lives here as the oracle, plus the choice crc32()
// makes between them. Checkpoint files written by any build carry these
// CRCs, so the values must never change.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/prng.h"

namespace compass::util {
namespace {

/// The classic one-byte-at-a-time CRC-32 (reflected 0xEDB88320).
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t len,
                             std::uint32_t crc = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

bool cpu_has_clmul() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

/// Every length 0..4096 at each of 8 leading offsets, from seeds 0 and
/// 0xDEADBEEF, unchained and chained over a split: covers every alignment,
/// every tail length, the fold body's 64-byte minimum and its 16-byte
/// steps.
void expect_matches_oracle(detail::Crc32Body body) {
  constexpr std::size_t kMaxLen = 4096;
  std::vector<unsigned char> buf(8 + kMaxLen);
  CorePrng prng(0xC0FFEE);
  for (auto& b : buf) b = static_cast<unsigned char>(prng.next_u64());
  for (const std::uint32_t seed : {0u, 0xDEADBEEFu}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        const unsigned char* p = buf.data() + offset;
        const std::uint32_t want = crc32_bytewise(p, len, seed);
        ASSERT_EQ(body(p, len, seed), want)
            << "seed " << seed << " offset " << offset << " len " << len;
        const std::size_t cut = len / 3;
        ASSERT_EQ(body(p + cut, len - cut, body(p, cut, seed)), want)
            << "seed " << seed << " offset " << offset << " len " << len
            << " split at " << cut;
      }
    }
  }
}

TEST(Crc32, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBytewiseLoopAtEveryLengthAndAlignment) {
  // The dispatched entry point over the lengths that cover every tail of
  // both bodies; the full sweep runs each body directly below.
  std::array<unsigned char, 8 + 160> buf{};
  CorePrng prng(0xC0FFEE);
  for (auto& b : buf) b = static_cast<unsigned char>(prng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 160; ++len) {
      const unsigned char* p = buf.data() + offset;
      const std::uint32_t want = crc32_bytewise(p, len);
      EXPECT_EQ(crc32(p, len), want) << "offset " << offset << " len " << len;
      const std::size_t cut = len / 3;
      EXPECT_EQ(crc32(p + cut, len - cut, crc32(p, cut)), want)
          << "offset " << offset << " len " << len << " split at " << cut;
    }
  }
}

TEST(Crc32, PortableBodyMatchesBytewiseLoop) {
  expect_matches_oracle(&detail::crc32_portable);
}

TEST(Crc32, FoldingBodyMatchesBytewiseLoop) {
#if defined(__x86_64__)
  if (!cpu_has_clmul()) {
    GTEST_SKIP() << "this CPU lacks pclmul/sse4.1; the folding body cannot run";
  }
  expect_matches_oracle(&detail::crc32_clmul);
#else
  GTEST_SKIP() << "the folding body is compiled for x86-64 only";
#endif
}

TEST(Crc32, DispatchPicksFoldingBodyExactlyWhenTheCpuHasIt) {
#if defined(__x86_64__)
  EXPECT_EQ(detail::crc32_body() == &detail::crc32_clmul, cpu_has_clmul());
#endif
  EXPECT_EQ(detail::crc32_body() == &detail::crc32_portable, !cpu_has_clmul());
}

}  // namespace
}  // namespace compass::util
