#include "runtime/observers.h"

#include <filesystem>
#include <sstream>
#include <stdexcept>

namespace compass::runtime {

namespace {

// The --spike-trace-out stream keeps at most this many spans, then appends a
// truncation marker.
constexpr std::size_t kMaxSpikeSpans = 1'000'000;

}  // namespace

void RunObservers::CreatedFiles::check(std::ofstream& os,
                                       const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  if (!std::ofstream(path, std::ios::app)) {
    throw std::runtime_error("cannot write " + path);
  }
  if (!existed) paths.push_back(path);
  pending.emplace_back(&os, path);
}

void RunObservers::CreatedFiles::open() {
  for (auto& [os, path] : pending) {
    os->open(path);
    if (!*os) throw std::runtime_error("cannot write " + path);
  }
  pending.clear();
  keep = true;
}

RunObservers::CreatedFiles::~CreatedFiles() {
  if (keep) return;
  for (const std::string& path : paths) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
}

std::vector<util::Flag> ObsOptions::flags() {
  using util::Flag;
  return {
      Flag::text("--trace-out", trace_out, "F",
                 "per-(tick,rank,phase) JSONL trace"),
      Flag::text("--chrome-out", chrome_out, "F",
                 "Chrome-trace/Perfetto view of the virtual time"),
      Flag::text("--metrics-out", metrics_out, "F",
                 "metrics-registry snapshot (JSON)"),
      Flag::text("--profile-out", profile_out, "F",
                 "comm matrix + imbalance/critical-rank profile (JSON)"),
      Flag::text("--spike-trace-out", spike_trace_out, "F",
                 "causal spike-span JSONL (compass_prof --spans)"),
      Flag::u64("--spike-sample", spike_sample, 1, UINT64_MAX,
                "trace every spike whose id % N == 0"),
      Flag::text("--wallprof-out", wallprof_out, "F",
                 "host wall-clock profile JSONL (compass_prof --wall)"),
      Flag::text("--analytics-out", analytics_out, "F",
                 "streaming spike-analytics JSONL"),
      Flag::u64("--analytics-window", analytics_window, 1, UINT64_MAX,
                "analytics window length in ticks"),
  };
}

RunObservers::RunObservers(ObsOptions options)
    : options_(std::move(options)),
      metrics_on_(options_.metrics || !options_.metrics_out.empty()) {
  created_.check(trace_os_, options_.trace_out);
  created_.check(chrome_os_, options_.chrome_out);
  created_.check(metrics_os_, options_.metrics_out);
  created_.check(profile_os_, options_.profile_out);
  created_.check(span_os_, options_.spike_trace_out);
  created_.check(wall_os_, options_.wallprof_out);
  created_.check(analytics_os_, options_.analytics_out);
  if (!options_.trace_out.empty()) jsonl_.emplace(trace_os_);
  if (!options_.spike_trace_out.empty()) {
    span_writer_.emplace(span_os_,
                         obs::JsonlOptions{.max_records = kMaxSpikeSpans});
  }
  if (!options_.analytics_out.empty()) analytics_writer_.emplace(analytics_os_);
}

void RunObservers::attach(Compass& sim, const comm::Transport& hops,
                          std::vector<std::uint32_t> core_region,
                          bool profile) {
  created_.open();
  const int ranks = sim.partition().ranks();
  obs::MetricsRegistry* const m = metrics();
  sim.set_metrics(m);

  profiler_.reset();
  if (profile || !options_.profile_out.empty()) {
    profiler_.emplace(ranks);
    sim.set_profile(&*profiler_);
  }
  if (jsonl_) sim.add_trace_sink(&*jsonl_);
  if (!options_.chrome_out.empty()) sim.add_trace_sink(&chrome_);

  tracer_.reset();
  if (span_writer_) {
    obs::SpikeTraceOptions topt;
    topt.sample_every = options_.spike_sample;
    tracer_.emplace(ranks, topt);
    tracer_->set_hop_model(hops.hop_matrix(),
                           hops.cost_model().params().hop_latency_s);
    tracer_->set_metrics(m);
    tracer_->add_sink(&*span_writer_);
    sim.set_spike_tracer(&*tracer_);
  }

  analytics_.reset();
  if (analytics_writer_) {
    obs::AnalyticsOptions aopt;
    aopt.window_ticks = options_.analytics_window;
    analytics_.emplace(ranks,
                       static_cast<std::uint32_t>(sim.partition().num_cores()),
                       std::move(core_region), aopt);
    analytics_->set_metrics(m);
    analytics_->add_sink(&*analytics_writer_);
    sim.set_analytics(&*analytics_);
  }

  // Wall records ride their own stream, never a trace sink, so functional
  // output stays byte-identical with the profiler attached.
  wallprof_.reset();
  if (!options_.wallprof_out.empty()) {
    obs::WallprofOptions wopt;
    wopt.heartbeat_every_ticks = options_.wallprof_heartbeat;
    wallprof_.emplace(ranks, wopt);
    wallprof_->set_sink(&wall_os_);
    wallprof_->set_metrics(m);
    sim.set_wall_profiler(&*wallprof_);
  }
}

void RunObservers::end_run(const RunReport& report) {
  if (wallprof_) wallprof_->write_summary();
  if (profiler_ && report.profile && profile_os_.is_open()) {
    std::ostringstream os;
    obs::write_profile_json(os, *report.profile, profiler_->comm_matrix());
    profile_json_ = os.str();
  }
  for (std::ofstream* os : {&trace_os_, &span_os_, &wall_os_, &analytics_os_}) {
    os->flush();
  }
}

void RunObservers::finish() {
  created_.open();
  if (span_writer_) span_writer_->finish();
  if (chrome_os_.is_open()) chrome_.write(chrome_os_);
  if (metrics_os_.is_open()) registry_.write_json(metrics_os_);
  if (profile_os_.is_open()) profile_os_ << profile_json_;
  for (std::ofstream* os : {&trace_os_, &chrome_os_, &metrics_os_,
                            &profile_os_, &span_os_, &wall_os_,
                            &analytics_os_}) {
    os->flush();
  }
}

}  // namespace compass::runtime
