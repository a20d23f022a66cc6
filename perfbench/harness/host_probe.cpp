#include "host_probe.h"

#include <cstddef>
#include <cstdint>
#include <vector>

#include "record.h"

namespace perfbench {

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 16;  // 256 KiB
constexpr int kIterations = 1 << 16;

std::uint64_t xorshift(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

const std::vector<std::uint32_t>& table() {
  static const std::vector<std::uint32_t> t = [] {
    std::vector<std::uint32_t> v(kTableWords);
    std::uint64_t h = 7;
    for (std::uint32_t& w : v) {
      h = xorshift(h);
      w = static_cast<std::uint32_t>(h);
    }
    return v;
  }();
  return t;
}

}  // namespace

double host_probe_ms() {
  const std::vector<std::uint32_t>& t = table();
  constexpr std::size_t kMask = kTableWords - 1;
  const double t0 = now_s();
  std::uint64_t a = 1, b = 3, c = 5, d = 7, acc = 0;
  for (int i = 0; i < kIterations; ++i) {
    a = xorshift(a);
    b = xorshift(b);
    c = xorshift(c);
    d = xorshift(d);
    const std::uint32_t x = t[a & kMask] + t[b & kMask];
    if (((x ^ c) & 1U) != 0) {
      acc += x;
    } else {
      acc ^= t[d & kMask];
    }
  }
  // The volatile store keeps the compiler from dropping the loop. Every call
  // starts from the same state, so every call does the same work.
  static volatile std::uint64_t sink;
  sink = acc;
  return (now_s() - t0) * 1e3;
}

}  // namespace perfbench
