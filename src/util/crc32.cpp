#include "util/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace compass::util {

namespace {

using Table = std::array<std::uint32_t, 256>;

/// Slice-by-8 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the CRC over eight input bytes at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr std::array<Table, 8> kTables = make_tables();

/// Little-endian 32-bit load; compiles to one load on little-endian hosts.
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Advance the CRC register `c` (the CRC with its final inversion undone)
/// over `len` bytes, eight at a time.
std::uint32_t update_portable(std::uint32_t c, const unsigned char* p,
                              std::size_t len) noexcept {
  for (; len >= 8; len -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; --len, ++p) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

// The paper's folding constants for the bit-reflected 0xEDB88320
// polynomial P, each a power of x modulo P (bit-reflected) for the
// distance it folds across: k1/k2 fold the four 128-bit lanes forward by
// 512 bits, k3/k4 fold one lane forward by 128, k5 folds 64 bits down to
// 32, and P' (P with its x^32 term) and mu (x^64 / P) drive the final
// Barrett reduction. tests/test_crc32.cpp checks every value against the
// bytewise loop.
constexpr long long kK1 = 0x154442bd4, kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0, kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
constexpr long long kPoly = 0x1db710641, kMu = 0x1f7011641;

/// One fold: carry-less multiply the two 64-bit halves of `x` by the two
/// constants in `k` and add the next 128 bits of input.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(
    __m128i x, __m128i k, __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

inline __m128i load128(const unsigned char* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advance the CRC register `c` over `len` bytes, where `len` is at least
/// 64 and a multiple of 16: four independent 128-bit accumulators hide the
/// multiplier's latency, then fold into one and reduce it to 32 bits.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t update_clmul(
    std::uint32_t c, const unsigned char* p, std::size_t len) noexcept {
  __m128i x0 = _mm_xor_si128(load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += 64;
  len -= 64;

  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  for (; len >= 64; p += 64, len -= 64) {
    x0 = fold(x0, k1k2, load128(p));
    x1 = fold(x1, k1k2, load128(p + 16));
    x2 = fold(x2, k1k2, load128(p + 32));
    x3 = fold(x3, k1k2, load128(p + 48));
  }

  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; len >= 16; p += 16, len -= 16) x0 = fold(x0, k3k4, load128(p));

  // 128 -> 64 bits: the low half times k4, added to the high half.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 64 -> 32 bits: the low 32 bits times k5, added to the rest.
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett reduction: t = (low32(x) * mu) mod x^32, then x ^= t * P'.
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#endif  // __x86_64__

}  // namespace

namespace detail {

std::uint32_t crc32_portable(const void* data, std::size_t len,
                             std::uint32_t crc) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  return update_portable(crc ^ 0xFFFFFFFFu, p, len) ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__)
std::uint32_t crc32_clmul(const void* data, std::size_t len,
                          std::uint32_t crc) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  if (len >= 64) {
    const std::size_t bulk = len & ~std::size_t{15};
    c = update_clmul(c, p, bulk);
    p += bulk;
    len -= bulk;
  }
  return update_portable(c, p, len) ^ 0xFFFFFFFFu;
}
#endif

Crc32Body crc32_body() noexcept {
  static const Crc32Body body = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
      return &crc32_clmul;
    }
#endif
    return &crc32_portable;
  }();
  return body;
}

}  // namespace detail

std::uint32_t crc32(const void* data, std::size_t len,
                    std::uint32_t crc) noexcept {
  return detail::crc32_body()(data, len, crc);
}

}  // namespace compass::util
