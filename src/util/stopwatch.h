// Timing utilities. The scaling experiments compose per-rank, per-phase
// *measured* compute times into a virtual parallel makespan (see src/perf/),
// so the timers here are deliberately minimal and cheap.
//
// Phase brackets and stolen time. A rank loop times each rank's phases with
// the monotonic clock, one read closing a bracket and opening the next
// (lap()). Wall brackets would count a timeslice the scheduler gave to
// another thread as compute, so each thread also reads its own CPU clock
// once when its share of the loop starts and once when it ends (CpuShare),
// and scales every bracket in that share by the share's CPU/wall ratio
// (cpu_wall_ratio()). Stolen time is then excluded in proportion: spread
// over the share's brackets by their length rather than charged to the one
// it landed in. The CPU clock costs a system call per read and the
// monotonic clock does not, so a share of k ranks with p brackets each
// takes 2 CPU-clock reads instead of k * p.
#pragma once

#include <algorithm>
#include <chrono>
#include <ctime>

namespace compass::util {

/// CPU time consumed by the calling thread, in seconds. Unlike wall-clock
/// time this excludes scheduler preemption. On Linux this clock has no vDSO
/// fast path, so each read is a system call: callers read it only at the
/// ends of a thread's share of a rank loop (CpuShare), never per bracket.
inline double thread_cpu_seconds() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Monotonic wall-clock reading in seconds (steady_clock epoch). The host
/// wall-clock profiler brackets phases with two of these; keeping it a free
/// function lets instrumented sites guard the read behind one pointer test
/// instead of constructing a Stopwatch unconditionally.
inline double monotonic_seconds() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic seconds since `mark`, moving `mark` to now: back-to-back
/// brackets share the read that ends one and starts the next.
inline double lap(double& mark) noexcept {
  const double now = monotonic_seconds();
  const double elapsed = now - mark;
  mark = now;
  return elapsed;
}

/// The factor that apportions one thread's CPU time over the monotonic
/// brackets of its share of a rank loop: the share's CPU seconds over its
/// wall seconds, clamped to [0, 1]. Below 1 the scheduler ran something else
/// for part of the share, and each bracket is charged only its part of the
/// CPU; when the brackets tile the share, the scaled brackets sum to the
/// share's CPU time. Above 1 is clock granularity (the two clocks tick
/// apart), never extra compute, so it clamps to 1. A share with no wall
/// (a thread that got no rank) has nothing to scale and gives 1.
inline double cpu_wall_ratio(double wall_s, double cpu_s) noexcept {
  if (!(wall_s > 0.0)) return 1.0;
  const double ratio = cpu_s / wall_s;
  return ratio > 0.0 ? std::min(ratio, 1.0) : 0.0;
}

/// One thread's share of a rank loop: the two thread-CPU reads around it.
/// start() also returns the monotonic read that opens the share's first
/// bracket; finish() takes the read that closed its last one and returns
/// the share's cpu_wall_ratio(). The CPU reads enclose the monotonic ones,
/// so a share the scheduler never preempted measures about 1 or above,
/// which clamps to 1: its brackets keep their monotonic length.
class CpuShare {
 public:
  double start() noexcept {
    cpu0_ = thread_cpu_seconds();
    wall0_ = monotonic_seconds();
    return wall0_;
  }

  double finish(double wall_end) const noexcept {
    return cpu_wall_ratio(wall_end - wall0_, thread_cpu_seconds() - cpu0_);
  }

 private:
  double cpu0_ = 0.0;
  double wall0_ = 0.0;
};

/// Simple monotonic stopwatch; resolution of steady_clock (~20 ns here).
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(clock::now()) {}

  void restart() noexcept { start_ = clock::now(); }

  /// Seconds since construction or last restart().
  double elapsed_s() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace compass::util
