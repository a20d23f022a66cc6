// CRC-32 lockdown: the slice-by-8 production routine against the published
// check value and against the bytewise table loop, which lives here as the
// oracle. Checkpoint files written by any build carry these CRCs, so the
// values must never change.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

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

TEST(Crc32, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBytewiseLoopAtEveryLengthAndAlignment) {
  // 8 leading offsets x lengths 0..64 cover every alignment of the 8-byte
  // main loop and every tail length; chaining a split must equal one call.
  std::array<unsigned char, 8 + 64> buf{};
  CorePrng prng(0xC0FFEE);
  for (auto& b : buf) b = static_cast<unsigned char>(prng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = buf.data() + offset;
      const std::uint32_t want = crc32_bytewise(p, len);
      EXPECT_EQ(crc32(p, len), want) << "offset " << offset << " len " << len;
      const std::size_t cut = len / 3;
      EXPECT_EQ(crc32(p + cut, len - cut, crc32(p, cut)), want)
          << "offset " << offset << " len " << len << " split at " << cut;
    }
  }
}

}  // namespace
}  // namespace compass::util
