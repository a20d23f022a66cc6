// Spike raster recording and loading.
//
// Compass exists to observe spiking behaviour ("studying TrueNorth
// dynamics", "hypotheses testing ... regarding neural codes and function" —
// section I), so first-class raster I/O matters. Two formats:
//
//   * text  — "tick core neuron" lines with a '#' header; greppable,
//     plottable, stable.
//   * binary — packed 8-byte records (tick:u32, core:u32 << 8 | neuron —
//     see RasterEvent pack/unpack), ~5x smaller and order-preserving, with
//     a magic/version header.
//
// A Raster records from Compass::set_spike_hook. The hook is replayed on
// the calling thread in the serial fire order, so a recording is the same
// at any OpenMP width.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "arch/types.h"

namespace compass::io {

struct RasterEvent {
  std::uint32_t tick = 0;
  arch::CoreId core = 0;
  std::uint16_t neuron = 0;

  friend bool operator==(const RasterEvent&, const RasterEvent&) = default;
  friend auto operator<=>(const RasterEvent&, const RasterEvent&) = default;
};

/// In-memory raster with stream/file round trips.
class Raster {
 public:
  void record(arch::Tick tick, arch::CoreId core, unsigned neuron) {
    events_.push_back(RasterEvent{static_cast<std::uint32_t>(tick), core,
                                  static_cast<std::uint16_t>(neuron)});
  }

  const std::vector<RasterEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }

  /// Number of distinct ticks with at least one event.
  std::size_t active_ticks() const;

  void write_text(std::ostream& os) const;
  static Raster read_text(std::istream& is);

  void write_binary(std::ostream& os) const;
  static Raster read_binary(std::istream& is);

  bool save(const std::string& path, bool binary = true) const;
  static Raster load(const std::string& path);

  friend bool operator==(const Raster&, const Raster&) = default;

 private:
  std::vector<RasterEvent> events_;
};

}  // namespace compass::io
