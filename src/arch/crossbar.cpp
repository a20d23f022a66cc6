#include "arch/crossbar.h"

namespace compass::arch {

void Crossbar::assign_rows(
    const std::array<util::Bits256, kAxonsPerCore>& rows) noexcept {
  static_assert(kAxonsPerCore == 256 && kNeuronsPerCore == 256,
                "the transpose tiles a 256x256 crossbar with 64x64 blocks");
  rows_ = rows;
  std::int64_t count = 0;
  for (const util::Bits256& r : rows_) count += r.popcount();
  count_ = count;
  // Block (R, C) holds axons [64R, 64R+64) x neurons [64C, 64C+64): row
  // word C of those axons, transposed, is column word R of those neurons.
  std::array<std::uint64_t, 64> block;
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned c = 0; c < 4; ++c) {
      for (unsigned i = 0; i < 64; ++i) block[i] = rows_[64 * r + i].w[c];
      util::transpose_64x64(block);
      for (unsigned j = 0; j < 64; ++j) cols_[64 * c + j].w[r] = block[j];
    }
  }
}

}  // namespace compass::arch
