// Monotonic timing utilities. The scaling experiments compose per-rank,
// per-phase *measured* compute times into a virtual parallel makespan (see
// src/perf/), so the timers here are deliberately minimal and cheap.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>

namespace compass::util {

/// CPU time consumed by the calling thread, in seconds. Unlike wall-clock
/// time this excludes scheduler preemption, which matters because the
/// virtual parallel machine composes makespans from thousands of small
/// per-rank phase measurements — a single stolen timeslice inside a max()
/// would otherwise masquerade as compute.
inline double thread_cpu_seconds() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Stopwatch over thread CPU time (see thread_cpu_seconds()). It reads the
/// clock only in start() and elapsed_s(), not when constructed: on Linux
/// that clock has no vDSO fast path, so each read is a system call, and the
/// simulator's phases time themselves only when measuring.
class CpuStopwatch {
 public:
  void start() noexcept { start_ = thread_cpu_seconds(); }
  /// Seconds of thread CPU time since the last start().
  double elapsed_s() const noexcept { return thread_cpu_seconds() - start_; }

 private:
  double start_ = 0.0;
};

/// Monotonic wall-clock reading in seconds (steady_clock epoch). The host
/// wall-clock profiler brackets phases with two of these; keeping it a free
/// function lets instrumented sites guard the read behind one pointer test
/// instead of constructing a Stopwatch unconditionally.
inline double monotonic_seconds() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

/// Accumulating timer used for phase breakdowns: bracket regions with
/// start()/stop() and read the running total.
class AccumTimer {
 public:
  void start() noexcept { begin_ = clock::now(); }
  void stop() noexcept {
    total_ += std::chrono::duration<double>(clock::now() - begin_).count();
    ++laps_;
  }
  void add_seconds(double s) noexcept { total_ += s; }
  void reset() noexcept { total_ = 0.0; laps_ = 0; }

  double seconds() const noexcept { return total_; }
  std::uint64_t laps() const noexcept { return laps_; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point begin_{};
  double total_ = 0.0;
  std::uint64_t laps_ = 0;
};

/// RAII lap: adds the scope's duration to an AccumTimer.
class ScopedLap {
 public:
  explicit ScopedLap(AccumTimer& t) noexcept : timer_(t) { timer_.start(); }
  ~ScopedLap() { timer_.stop(); }
  ScopedLap(const ScopedLap&) = delete;
  ScopedLap& operator=(const ScopedLap&) = delete;

 private:
  AccumTimer& timer_;
};

}  // namespace compass::util
