#include "util/prng.h"

#include <array>
#include <bit>
#include <cassert>

#if defined(__x86_64__)
// GCC 12 flags the AVX-512 intrinsics' deliberately undefined pass-through
// operand as uninitialised; the header is not at fault.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace compass::util {

std::uint64_t derive_seed(std::uint64_t global_seed, std::uint64_t stream) noexcept {
  // Mix the stream id into the seed through two SplitMix64 steps so that
  // consecutive stream ids (core 0, core 1, ...) land far apart.
  SplitMix64 mix(global_seed ^ (stream * 0xD6E8FEB86659FD93ULL));
  mix.next();
  return mix.next();
}

namespace {

/// table[i][v] is M^steps applied to the state whose only set bits are the
/// nibble v at bit 4i, where M is the xorshift64 transition; by linearity
/// M^steps x is the XOR of table[i][nibble i of x] over all 16 nibbles.
using JumpTable = std::array<std::array<std::uint64_t, 16>, 16>;

constexpr JumpTable make_jump_table(unsigned steps) {
  std::array<std::uint64_t, 64> column{};  // M^steps of each unit vector
  for (unsigned b = 0; b < 64; ++b) {
    std::uint64_t x = std::uint64_t{1} << b;
    for (unsigned i = 0; i < steps; ++i) x = CorePrng::advance(x);
    column[b] = x;
  }
  JumpTable t{};
  for (unsigned i = 0; i < 16; ++i) {
    for (unsigned v = 0; v < 16; ++v) {
      for (unsigned b = 0; b < 4; ++b) {
        if ((v >> b) & 1u) t[i][v] ^= column[4 * i + b];
      }
    }
  }
  return t;
}

// Built at compile time: nothing is initialised on first use, so any
// thread may jump at any time. kJump[i] jumps 32 << i steps.
constexpr std::array<JumpTable, 4> kJump = {
    make_jump_table(32), make_jump_table(64), make_jump_table(128),
    make_jump_table(256)};

}  // namespace

namespace detail {

std::uint64_t jump_ahead(std::uint64_t state, unsigned steps) noexcept {
  assert(steps == 32 || steps == 64 || steps == 128 || steps == 256);
  const JumpTable& t = kJump[std::countr_zero(steps) - 5];
  std::uint64_t x = 0;
  for (unsigned i = 0; i < 16; ++i) x ^= t[i][(state >> (4 * i)) & 15u];
  return x;
}

void lane_draws_portable(std::uint64_t& state, std::uint32_t* out,
                         unsigned n) noexcept {
  const unsigned len = n / 8;
  std::uint64_t start = state;
  CorePrng lane;
  for (unsigned k = 0; k < 8; ++k) {
    lane.set_state(start);
    for (unsigned t = 0; t < len; ++t) out[k * len + t] = lane.next_u32();
    if (k < 7) start = jump_ahead(start, len);
  }
  state = lane.state();
}

#if defined(__x86_64__)

namespace {

/// jump_ahead(x, steps) in each lane of `x` that `lanes` selects, the other
/// lanes unchanged: each nibble of the state indexes its 16-entry table row
/// held in two registers (vpermt2q reads only an index's low four bits).
__attribute__((target("avx512f"))) inline __m512i jump_lanes(
    __m512i x, unsigned steps, __mmask8 lanes) noexcept {
  const JumpTable& t = kJump[std::countr_zero(steps) - 5];
  __m512i rows[16];
#pragma GCC unroll 16
  for (unsigned i = 0; i < 16; ++i) {
    rows[i] = _mm512_permutex2var_epi64(_mm512_loadu_si512(t[i].data()),
                                        _mm512_srli_epi64(x, 4 * i),
                                        _mm512_loadu_si512(t[i].data() + 8));
  }
  // XOR the rows as a shallow tree, 16 -> 6 -> 2 -> 1 (0x96: a ^ b ^ c).
  __m512i sums[6];
#pragma GCC unroll 5
  for (unsigned i = 0; i < 5; ++i) {
    sums[i] = _mm512_ternarylogic_epi64(rows[3 * i], rows[3 * i + 1],
                                        rows[3 * i + 2], 0x96);
  }
  sums[5] = rows[15];
  const __m512i acc = _mm512_xor_si512(
      _mm512_ternarylogic_epi64(sums[0], sums[1], sums[2], 0x96),
      _mm512_ternarylogic_epi64(sums[3], sums[4], sums[5], 0x96));
  return _mm512_mask_mov_epi64(x, lanes, acc);
}

/// next_u64() in all eight lanes: advance `x`, return the outputs.
__attribute__((target("avx512f,avx512dq"))) inline __m512i next_lanes(
    __m512i& x, __m512i mul) noexcept {
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 12));
  x = _mm512_xor_si512(x, _mm512_slli_epi64(x, 25));
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 27));
  return _mm512_mullo_epi64(x, mul);
}

}  // namespace

__attribute__((target("avx512f,avx512dq"))) void lane_draws_avx512(
    std::uint64_t& state, std::uint32_t* out, unsigned n) noexcept {
  const unsigned len = n / 8;
  // Lane k starts k x len steps ahead: jump the lanes whose index has bit
  // b set by 2^b x len, for b = 0, 1, 2.
  __m512i x = _mm512_set1_epi64(static_cast<long long>(state));
  x = jump_lanes(x, len, 0xAA);
  x = jump_lanes(x, 2 * len, 0xCC);
  x = jump_lanes(x, 4 * len, 0xF0);

  const __m512i mul =
      _mm512_set1_epi64(static_cast<long long>(CorePrng::kMultiplier));
  // Index vectors for vpermt2d (bit 4 picks the second operand). kHigh
  // packs two steps' draws (each output's high half) as [step t: lanes
  // 0-7, step t+1: lanes 0-7]; kLanes03/kLanes47 regroup two such
  // registers as [lane: its 4 steps] for lanes 0-3 or 4-7; kPair0/kPair1
  // join two of those as [lane 2j: 8 steps, lane 2j+1: 8 steps].
  const __m512i kHigh = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19,
                                          21, 23, 25, 27, 29, 31);
  const __m512i kLanes03 = _mm512_setr_epi32(0, 8, 16, 24, 1, 9, 17, 25, 2,
                                             10, 18, 26, 3, 11, 19, 27);
  const __m512i kLanes47 = _mm512_add_epi32(kLanes03, _mm512_set1_epi32(4));
  const __m512i kPair0 = _mm512_setr_epi32(0, 1, 2, 3, 16, 17, 18, 19, 4, 5,
                                           6, 7, 20, 21, 22, 23);
  const __m512i kPair1 = _mm512_add_epi32(kPair0, _mm512_set1_epi32(8));
  for (unsigned t0 = 0; t0 < len; t0 += 8) {
    __m512i e[4];  // steps t0 + 2i and t0 + 2i + 1
#pragma GCC unroll 4
    for (auto& ei : e) {
      const __m512i first = next_lanes(x, mul);
      ei = _mm512_permutex2var_epi32(first, kHigh, next_lanes(x, mul));
    }
    const __m512i early03 = _mm512_permutex2var_epi32(e[0], kLanes03, e[1]);
    const __m512i early47 = _mm512_permutex2var_epi32(e[0], kLanes47, e[1]);
    const __m512i late03 = _mm512_permutex2var_epi32(e[2], kLanes03, e[3]);
    const __m512i late47 = _mm512_permutex2var_epi32(e[2], kLanes47, e[3]);
    const __m512i pairs[4] = {
        _mm512_permutex2var_epi32(early03, kPair0, late03),
        _mm512_permutex2var_epi32(early03, kPair1, late03),
        _mm512_permutex2var_epi32(early47, kPair0, late47),
        _mm512_permutex2var_epi32(early47, kPair1, late47)};
#pragma GCC unroll 4
    for (unsigned j = 0; j < 4; ++j) {
      std::uint32_t* lane = out + 2 * j * len + t0;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(lane),
                          _mm512_castsi512_si256(pairs[j]));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(lane + len),
                          _mm512_extracti64x4_epi64(pairs[j], 1));
    }
  }
  alignas(64) std::uint64_t ends[8];
  _mm512_store_si512(ends, x);
  state = ends[7];
}

#endif  // __x86_64__

}  // namespace detail

}  // namespace compass::util
