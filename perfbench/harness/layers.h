// Measurements shared by the workloads: the final-state digest, the traced
// per-layer probe around step(), and the timed checkpoint round trip.
#pragma once

#include <cstddef>
#include <cstdint>

#include "arch/kernels.h"
#include "arch/model.h"
#include "obs/wallprof.h"
#include "record.h"
#include "runtime/compass.h"

namespace perfbench {

/// FNV-1a of the model's binary save stream, streamed without holding the
/// bytes: covers every core's configuration, potentials, delay buffers and
/// PRNG state.
std::uint64_t model_digest(const compass::arch::Model& model);

/// Attaches the host wall-clock profiler and the kernel dispatch counters
/// to `sim` (both shipped in the library and off in untraced runs) for a
/// window of step() calls, then turns what they saw into the arch, runtime,
/// comm, perf and obs per-layer values.
class LayerProbe {
 public:
  LayerProbe(compass::runtime::Compass& sim, std::size_t cores);
  ~LayerProbe();
  LayerProbe(const LayerProbe&) = delete;
  LayerProbe& operator=(const LayerProbe&) = delete;

  /// One step() inside the window; returns its wall seconds.
  double step();

  /// Detach and write the window's per-layer values into rec.layers.
  void finish(Record& rec);

 private:
  void detach();

  compass::runtime::Compass& sim_;
  std::size_t cores_;
  compass::obs::WallProfiler wall_;
  compass::runtime::RunReport report0_;
  double virtual0_s_;
  compass::arch::kernels::DispatchCounters dispatch0_{};
  double step_wall_s_ = 0.0;
  std::uint64_t ticks_ = 0;
  bool attached_ = true;
};

/// One save+restore round trip through the resilience layer (capture,
/// serialize_checkpoint, parse_checkpoint, restore), the same calls the
/// serve snapshot RPCs make. It is one operation, and fails when it changes
/// the simulator's state or tick. Appends the resilience.* stage samples
/// and returns the round trip's milliseconds.
double snapshot_round_trip(compass::runtime::Compass& sim,
                           compass::arch::Model& model, Record& rec,
                           Spans* spans, std::int64_t parent,
                           std::int64_t run);

}  // namespace perfbench
