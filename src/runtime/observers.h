// One builder for the observability planes every driver attaches.
//
// ObsOptions names the outputs a process asked for (the --trace-out /
// --chrome-out / --metrics-out / --profile-out / --spike-trace-out /
// --wallprof-out / --analytics-out family and their knobs); RunObservers
// turns them into planes. The process-wide parts — the metrics registry and
// every output stream with its writer — live as long as the RunObservers:
// JSONL streams append across the runs of one process. Each run then calls
// attach() to hang its own per-run planes (profile collector, spike tracer,
// analytics engine, wall profiler; each sized to that run's rank count) on
// one Compass, end_run() after run(), and the process calls finish() once to
// write the whole-process outputs. The constructor only checks that every
// output can be written; the first attach() or finish() truncates them. A
// RunObservers destroyed before either (the process failed before
// simulating) removes the output files it created and leaves the ones that
// already existed as they were.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/analytics.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/spiketrace.h"
#include "obs/trace.h"
#include "obs/wallprof.h"
#include "runtime/compass.h"
#include "util/flags.h"

namespace compass::runtime {

struct ObsOptions {
  std::string trace_out;        // per-(tick,rank,phase) JSONL; appends
  std::string chrome_out;       // Chrome-trace/Perfetto JSON; whole process
  std::string metrics_out;      // metrics-registry snapshot JSON
  std::string profile_out;      // comm matrix + imbalance JSON; last run
  std::string spike_trace_out;  // causal spike-span JSONL; appends
  std::string wallprof_out;     // host wall-clock JSONL; one summary per run
  std::string analytics_out;    // streaming-analytics JSONL; appends, and
                                // each run re-emits its config header
  std::uint64_t spike_sample = 64;      // trace 1-in-N routed spikes
  std::uint64_t analytics_window = 64;  // analytics window, ticks
  std::uint64_t wallprof_heartbeat = 0;  // heartbeat cadence, ticks (0 = off)
  /// Keep a metrics registry even without --metrics-out (a driver that
  /// exports it some other way).
  bool metrics = false;

  /// The flag rows every driver shares, bound to these fields.
  std::vector<util::Flag> flags();
};

class RunObservers {
 public:
  /// Checks that every requested output file can be written, without
  /// truncating it; throws std::runtime_error ("cannot write PATH") when one
  /// cannot, removing the ones it had created.
  explicit RunObservers(ObsOptions options);
  // The writers hold references to the streams beside them.
  RunObservers(const RunObservers&) = delete;
  RunObservers& operator=(const RunObservers&) = delete;

  /// The process's registry, or nullptr when metrics are off.
  obs::MetricsRegistry* metrics() {
    return metrics_on_ ? &registry_ : nullptr;
  }

  /// Attach the requested planes for one run of `sim`. `hops` is the
  /// transport whose hop model the spike tracer reports (the undecorated
  /// one when `sim` runs over a fault decorator). `core_region` maps cores
  /// to analytics regions (empty = one region). With `profile` a collector
  /// is attached even without --profile-out. Replaces the previous run's
  /// planes, so that run's simulator must be gone.
  void attach(Compass& sim, const comm::Transport& hops,
              std::vector<std::uint32_t> core_region = {},
              bool profile = false);

  /// After run(): append the wall-profile summary, flush the appending
  /// streams, and keep the run's profile for finish().
  void end_run(const RunReport& report);

  /// Write the Chrome trace, the metrics snapshot and the last run's
  /// profile, and flush every stream. Call once, after the last run.
  void finish();

  // This run's planes (nullptr when not requested).
  obs::ProfileCollector* profiler() { return get(profiler_); }
  obs::SpikeTracer* spike_tracer() { return get(tracer_); }
  obs::AnalyticsEngine* analytics() { return get(analytics_); }
  obs::WallProfiler* wall_profiler() { return get(wallprof_); }
  // The process-wide writers (nullptr when not requested).
  const obs::JsonlTraceWriter* trace_writer() const { return get(jsonl_); }
  const obs::JsonlTraceWriter* span_writer() const {
    return get(span_writer_);
  }
  const obs::ChromeTraceWriter* chrome() const {
    return options_.chrome_out.empty() ? nullptr : &chrome_;
  }

 private:
  template <typename T>
  static T* get(std::optional<T>& o) {
    return o ? &*o : nullptr;
  }
  template <typename T>
  static const T* get(const std::optional<T>& o) {
    return o ? &*o : nullptr;
  }

  // The requested output files: checked up front, opened (truncated) by the
  // first attach() or finish(). The ones this object created are removed on
  // destruction unless they were opened. Declared first so it is destroyed
  // after the streams close.
  struct CreatedFiles {
    std::vector<std::string> paths;  // created by check()
    std::vector<std::pair<std::ofstream*, std::string>> pending;
    bool keep = false;
    CreatedFiles() = default;
    CreatedFiles(const CreatedFiles&) = delete;
    CreatedFiles& operator=(const CreatedFiles&) = delete;
    ~CreatedFiles();
    /// Queues `path` for `os` when one was requested, after checking it can
    /// be written without truncating it; throws std::runtime_error
    /// ("cannot write PATH") when it cannot.
    void check(std::ofstream& os, const std::string& path);
    /// Opens every queued file (once); throws like check().
    void open();
  };

  CreatedFiles created_;
  ObsOptions options_;
  bool metrics_on_ = false;
  obs::MetricsRegistry registry_;
  std::ofstream trace_os_, chrome_os_, metrics_os_, profile_os_, span_os_,
      wall_os_, analytics_os_;
  std::optional<obs::JsonlTraceWriter> jsonl_;
  std::optional<obs::JsonlTraceWriter> span_writer_;
  std::optional<obs::JsonlTraceWriter> analytics_writer_;
  obs::ChromeTraceWriter chrome_;
  std::string profile_json_;  // the last run's --profile-out document

  std::optional<obs::ProfileCollector> profiler_;
  std::optional<obs::SpikeTracer> tracer_;
  std::optional<obs::AnalyticsEngine> analytics_;
  std::optional<obs::WallProfiler> wallprof_;
};

}  // namespace compass::runtime
