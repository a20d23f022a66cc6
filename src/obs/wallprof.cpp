#include "obs/wallprof.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/jsonv.h"
#include "util/stopwatch.h"

namespace compass::obs {

namespace {

/// Sample /proc RSS every this many completed ticks (procfs reads are
/// ~us-scale, far too hot for every tick).
constexpr std::uint64_t kRssEveryTicks = 64;
/// Ticks/s moving-window length, in samples (one sample per tick).
constexpr std::size_t kRateWindowTicks = 64;

/// Microsecond bucket index, metrics.h-style power-of-two bucketing.
int bucket_of(double seconds) {
  const double us = seconds * 1e6;
  if (us < 1.0) return 0;
  const auto v = static_cast<std::uint64_t>(us);
  int b = 0;
  for (std::uint64_t x = v; x != 0; x >>= 1) ++b;
  return std::min(b, WallPhaseStats::kBuckets - 1);
}

int phase_index(std::string_view name) {
  for (int i = 0; i < kWallPhaseCount; ++i) {
    if (name == wall_phase_name(static_cast<WallPhase>(i))) return i;
  }
  return -1;
}

void write_stats_fields(std::ostream& os, const WallPhaseStats& s) {
  os << "\"count\":" << s.count << ",\"wall_s\":";
  write_json_double(os, s.total_s);
  os << ",\"min_s\":";
  write_json_double(os, s.min_s);
  os << ",\"max_s\":";
  write_json_double(os, s.max_s);
  // Trailing zero buckets are trimmed; parse re-expands.
  int last = -1;
  for (int b = 0; b < WallPhaseStats::kBuckets; ++b) {
    if (s.buckets[static_cast<std::size_t>(b)] != 0) last = b;
  }
  os << ",\"hist_log2us\":[";
  for (int b = 0; b <= last; ++b) {
    if (b != 0) os << ',';
    os << s.buckets[static_cast<std::size_t>(b)];
  }
  os << ']';
}

void parse_stats_fields(const jsonv::JsonValue& obj, WallPhaseStats& s,
                        std::uint64_t lineno) {
  s.count = jsonv::get_u64_or0(obj, "count", lineno);
  s.total_s = jsonv::get_num_or0(obj, "wall_s", lineno);
  s.min_s = jsonv::get_num_or0(obj, "min_s", lineno);
  s.max_s = jsonv::get_num_or0(obj, "max_s", lineno);
  if (const jsonv::JsonValue* hist = obj.find("hist_log2us")) {
    if (hist->kind != jsonv::JsonValue::Kind::kArray) {
      jsonv::line_fail(lineno, "hist_log2us is not an array");
    }
    const std::size_t n =
        std::min(hist->array.size(),
                 static_cast<std::size_t>(WallPhaseStats::kBuckets));
    for (std::size_t b = 0; b < n; ++b) {
      s.buckets[b] = hist->array[b].is_integer ? hist->array[b].integer : 0;
    }
  }
}

std::string format_seconds_human(double s) {
  char buf[32];
  if (s < 120.0) {
    std::snprintf(buf, sizeof buf, "%.1fs", s);
  } else if (s < 7200.0) {
    std::snprintf(buf, sizeof buf, "%.1fm", s / 60.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fh", s / 3600.0);
  }
  return buf;
}

}  // namespace

// --- Phases -----------------------------------------------------------------

const char* wall_phase_name(WallPhase phase) {
  switch (phase) {
    case WallPhase::kSynapse: return "synapse";
    case WallPhase::kNeuron: return "neuron";
    case WallPhase::kSend: return "send";
    case WallPhase::kExchange: return "exchange";
    case WallPhase::kNetwork: return "network";
    case WallPhase::kCheckpoint: return "checkpoint";
    case WallPhase::kRecovery: return "recovery";
    case WallPhase::kPccCompile: return "pcc_compile";
  }
  return "?";
}

// --- Aggregation ------------------------------------------------------------

void WallPhaseStats::observe(double seconds) {
  if (seconds < 0.0) seconds = 0.0;  // clock steps backwards never, but cheap
  if (count == 0 || seconds < min_s) min_s = seconds;
  if (seconds > max_s) max_s = seconds;
  ++count;
  total_s += seconds;
  ++buckets[static_cast<std::size_t>(bucket_of(seconds))];
}

void WallPhaseStats::merge(const WallPhaseStats& other) {
  if (other.count == 0) return;
  if (count == 0 || other.min_s < min_s) min_s = other.min_s;
  if (other.max_s > max_s) max_s = other.max_s;
  count += other.count;
  total_s += other.total_s;
  for (int b = 0; b < kBuckets; ++b) {
    buckets[static_cast<std::size_t>(b)] +=
        other.buckets[static_cast<std::size_t>(b)];
  }
}

TickRateWindow::TickRateWindow(std::size_t capacity)
    : ring_(std::max<std::size_t>(2, capacity)) {}

void TickRateWindow::add(std::uint64_t tick, double wall_s) {
  const std::size_t at = (head_ + size_) % ring_.size();
  ring_[at] = Sample{tick, wall_s};
  if (size_ < ring_.size()) {
    ++size_;
  } else {
    head_ = (head_ + 1) % ring_.size();
  }
}

double TickRateWindow::ticks_per_second() const {
  if (size_ < 2) return 0.0;
  const Sample& oldest = ring_[head_];
  const Sample& newest = ring_[(head_ + size_ - 1) % ring_.size()];
  const double dt = newest.wall_s - oldest.wall_s;
  if (dt <= 0.0 || newest.tick <= oldest.tick) return 0.0;
  return static_cast<double>(newest.tick - oldest.tick) / dt;
}

void TickRateWindow::clear() {
  head_ = 0;
  size_ = 0;
}

// --- Host resources ---------------------------------------------------------

HostResources sample_host_resources() {
  HostResources res;
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return res;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) {
      res.rss_bytes = static_cast<std::uint64_t>(kb) * 1024;
    } else if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      res.peak_rss_bytes = static_cast<std::uint64_t>(kb) * 1024;
    }
    if (res.rss_bytes != 0 && res.peak_rss_bytes != 0) break;
  }
  std::fclose(f);
#endif
  return res;
}

// --- Summary ----------------------------------------------------------------

double WallprofSummary::phase_wall_s(WallPhase phase) const {
  const int p = static_cast<int>(phase);
  double total = global_phase[static_cast<std::size_t>(p)].total_s;
  if (p < kRankWallPhases) {
    for (const auto& slots : rank_phase) {
      total += slots[static_cast<std::size_t>(p)].wall.total_s;
    }
  }
  return total;
}

double WallprofSummary::phase_tick_wall_s(WallPhase phase) const {
  // Captures without loop walls fall back to rank-seconds, which is exact
  // for a serial run.
  switch (phase) {
    case WallPhase::kSynapse:
    case WallPhase::kNeuron: {
      const double rank_s = phase_wall_s(WallPhase::kSynapse) +
                            phase_wall_s(WallPhase::kNeuron);
      if (rank_s <= 0.0) return 0.0;
      const double loop_s = compute_loop_s > 0.0 ? compute_loop_s : rank_s;
      return loop_s * phase_wall_s(phase) / rank_s;
    }
    case WallPhase::kNetwork:
      return network_loop_s > 0.0 ? network_loop_s : phase_wall_s(phase);
    case WallPhase::kSend:
    case WallPhase::kExchange:
      return phase_wall_s(phase);
    default:
      return -1.0;
  }
}

double WallprofSummary::phase_virtual_s(WallPhase phase) const {
  const int p = static_cast<int>(phase);
  if (p >= kRankWallPhases) return 0.0;
  double total = 0.0;
  for (const auto& slots : rank_phase) {
    total += slots[static_cast<std::size_t>(p)].virtual_s;
  }
  return total;
}

void write_wallprof_summary_json(std::ostream& os,
                                 const WallprofSummary& s) {
  os << "{\"type\":\"wallprof\",\"schema\":\"compass.wallprof.v1\""
     << ",\"ranks\":" << s.ranks << ",\"ticks\":" << s.ticks << ",\"wall_s\":";
  write_json_double(os, s.wall_s);
  os << ",\"ticks_per_second\":";
  write_json_double(os, s.ticks_per_second);
  os << ",\"rss_bytes\":" << s.resources.rss_bytes
     << ",\"peak_rss_bytes\":" << s.resources.peak_rss_bytes
     << ",\"overhead_s\":";
  write_json_double(os, s.overhead_s);
  os << ",\"timer_ops\":" << s.timer_ops << ",\"tick_loops\":{\"compute_s\":";
  write_json_double(os, s.compute_loop_s);
  os << ",\"network_s\":";
  write_json_double(os, s.network_loop_s);
  os << ",\"team_threads\":" << s.team_threads << "},\"kernel_dispatch\":{"
     << "\"synapse_bitparallel\":" << s.kernels.synapse_bitparallel
     << ",\"synapse_scalar\":" << s.kernels.synapse_scalar
     << ",\"neuron_fast\":" << s.kernels.neuron_fast
     << ",\"neuron_stoch_soa\":" << s.kernels.neuron_stoch_soa
     << ",\"neuron_scalar\":" << s.kernels.neuron_scalar << '}';
  // Flat per-phase totals with distinctive keys, which a reader can pick out
  // of the line without walking the nested per-rank stats.
  os << ",\"phase_totals\":{";
  for (int p = 0; p < kWallPhaseCount; ++p) {
    const auto phase = static_cast<WallPhase>(p);
    if (p != 0) os << ',';
    os << '"' << wall_phase_name(phase) << "_wall_s\":";
    write_json_double(os, s.phase_wall_s(phase));
    if (p < kRankWallPhases) {
      os << ",\"" << wall_phase_name(phase) << "_virtual_s\":";
      write_json_double(os, s.phase_virtual_s(phase));
    }
  }
  os << '}';
  os << ",\"global\":[";
  bool first = true;
  for (int p = 0; p < kWallPhaseCount; ++p) {
    const WallPhaseStats& g = s.global_phase[static_cast<std::size_t>(p)];
    if (g.count == 0) continue;
    if (!first) os << ',';
    first = false;
    os << "{\"phase\":\"" << wall_phase_name(static_cast<WallPhase>(p))
       << "\",";
    write_stats_fields(os, g);
    os << '}';
  }
  os << "],\"ranks_detail\":[";
  for (std::size_t r = 0; r < s.rank_phase.size(); ++r) {
    if (r != 0) os << ',';
    os << "{\"rank\":" << r << ",\"phases\":[";
    for (int p = 0; p < kRankWallPhases; ++p) {
      const WallRankPhase& slot = s.rank_phase[r][static_cast<std::size_t>(p)];
      if (p != 0) os << ',';
      os << "{\"phase\":\"" << wall_phase_name(static_cast<WallPhase>(p))
         << "\",";
      write_stats_fields(os, slot.wall);
      os << ",\"virtual_s\":";
      write_json_double(os, slot.virtual_s);
      os << '}';
    }
    os << "]}";
  }
  os << "]}\n";
}

// --- WallProfiler -----------------------------------------------------------

WallProfiler::WallProfiler(int ranks, WallprofOptions options)
    : ranks_(ranks), options_(options), window_(kRateWindowTicks) {
  if (ranks_ < 1) {
    throw std::invalid_argument("WallProfiler: ranks must be >= 1");
  }
  rank_.assign(static_cast<std::size_t>(ranks_), {});
  // Calibrate the per-operation cost (one clock read + one stat update) so
  // overhead_s() can estimate what the instrumentation consumed. A record()
  // bracket costs ~two clock reads, hence the factor.
  WallPhaseStats dummy;
  const double t0 = util::monotonic_seconds();
  constexpr int kIters = 2048;
  for (int i = 0; i < kIters; ++i) {
    dummy.observe(util::monotonic_seconds() - t0);
  }
  const double t1 = util::monotonic_seconds();
  op_cost_s_ = (t1 - t0) / kIters * 2.0;
  op_cost_s_ += dummy.total_s * 0.0;  // keep the calibration loop live
}

void WallProfiler::set_metrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  m_ticks_per_s_ = metrics_->gauge("compass_ticks_per_second", "ticks/s");
  m_rss_ = metrics_->gauge("compass_rss_bytes", "bytes");
}

void WallProfiler::record(int rank, WallPhase phase, double seconds) {
  assert(rank >= 0 && rank < ranks_);
  const int p = static_cast<int>(phase);
  assert(p < kRankWallPhases);
  rank_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(p)]
      .wall.observe(seconds);
  ops_.fetch_add(1, std::memory_order_relaxed);
}

void WallProfiler::record_global(WallPhase phase, double seconds) {
  global_[static_cast<std::size_t>(phase)].observe(seconds);
  ops_.fetch_add(1, std::memory_order_relaxed);
}

void WallProfiler::add_virtual(int rank, WallPhase phase, double seconds) {
  assert(rank >= 0 && rank < ranks_);
  const int p = static_cast<int>(phase);
  assert(p < kRankWallPhases);
  rank_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(p)]
      .virtual_s += seconds;
}

void WallProfiler::record_tick_loops(double compute_s, double network_s,
                                     int team) {
  compute_loop_s_ += compute_s;
  network_loop_s_ += network_s;
  team_threads_ = std::max(team_threads_, team);
  ops_.fetch_add(2, std::memory_order_relaxed);
}

double WallProfiler::begin_tick() {
  const double now = util::monotonic_seconds();
  if (!epoch_set_) {
    epoch_s_ = now;
    epoch_set_ = true;
  }
  return now;
}

void WallProfiler::end_tick(std::uint64_t tick) {
  const double now = util::monotonic_seconds();
  if (!epoch_set_) {
    epoch_s_ = now;
    epoch_set_ = true;
  }
  ++ticks_;
  wall_total_s_ = now - epoch_s_;
  window_.add(tick + 1, wall_total_s_);
  ops_.fetch_add(1, std::memory_order_relaxed);
  if (ticks_ == 1 || ticks_ % kRssEveryTicks == 0) {
    last_resources_ = sample_host_resources();
  }
  if (metrics_ != nullptr) {
    metrics_->set(m_ticks_per_s_, window_.ticks_per_second());
    metrics_->set(m_rss_, static_cast<double>(last_resources_.rss_bytes));
  }
  if (options_.heartbeat_every_ticks != 0 &&
      ticks_ % options_.heartbeat_every_ticks == 0) {
    emit_heartbeat(tick);
  }
}

void WallProfiler::emit_heartbeat(std::uint64_t tick) {
  if (sink_ == nullptr) return;
  std::ostream& os = *sink_;
  os << "{\"type\":\"wallheartbeat\",\"tick\":" << tick
     << ",\"ticks\":" << ticks_ << ",\"wall_s\":";
  write_json_double(os, wall_total_s_);
  os << ",\"ticks_per_second\":";
  write_json_double(os, window_.ticks_per_second());
  os << ",\"rss_bytes\":" << last_resources_.rss_bytes << "}\n";
}

double WallProfiler::overhead_s() const {
  return static_cast<double>(ops_.load(std::memory_order_relaxed)) *
         op_cost_s_;
}

WallprofSummary WallProfiler::summary() const {
  WallprofSummary s;
  s.ranks = ranks_;
  s.ticks = ticks_;
  s.wall_s = wall_total_s_;
  s.ticks_per_second =
      wall_total_s_ > 0.0 ? static_cast<double>(ticks_) / wall_total_s_ : 0.0;
  s.resources = last_resources_;
  s.kernels = kernels_;
  s.overhead_s = overhead_s();
  s.timer_ops = ops_.load(std::memory_order_relaxed);
  s.rank_phase = rank_;
  s.global_phase = global_;
  s.compute_loop_s = compute_loop_s_;
  s.network_loop_s = network_loop_s_;
  s.team_threads = team_threads_;
  return s;
}

void WallProfiler::write_summary() {
  const WallprofSummary s = summary();
  if (metrics_ != nullptr) {
    for (int p = 0; p < kWallPhaseCount; ++p) {
      const auto phase = static_cast<WallPhase>(p);
      const double wall = s.phase_wall_s(phase);
      if (wall == 0.0 && static_cast<int>(phase) >= kRankWallPhases) continue;
      const MetricsRegistry::Id id = metrics_->gauge(
          std::string("compass_wall_phase_seconds_") + wall_phase_name(phase),
          "s");
      metrics_->set(id, wall);
    }
  }
  if (sink_ == nullptr) return;
  write_wallprof_summary_json(*sink_, s);
  sink_->flush();
}

// --- Progress meter ---------------------------------------------------------

std::string format_progress_line(const ProgressSnapshot& s) {
  std::ostringstream os;
  os << "[compass] tick " << s.tick;
  if (s.total_ticks > 0) {
    os << '/' << s.total_ticks;
    const double pct = 100.0 * static_cast<double>(s.tick) /
                       static_cast<double>(s.total_ticks);
    os << " (" << std::fixed << std::setprecision(1) << pct << "%)";
  }
  os << "  " << std::fixed << std::setprecision(1) << s.ticks_per_second
     << " ticks/s";
  if (s.total_ticks > 0) {
    os << "  ETA "
       << (s.eta_s > 0.0 ? format_seconds_human(s.eta_s) : std::string("--"));
  }
  if (s.rss_bytes > 0) {
    os << "  RSS " << std::fixed << std::setprecision(1)
       << static_cast<double>(s.rss_bytes) / (1024.0 * 1024.0) << " MB";
  }
  return os.str();
}

ProgressMeter::ProgressMeter(std::ostream& os, double interval_s,
                             std::size_t window)
    : os_(os),
      interval_s_(interval_s > 0.0 ? interval_s : 0.5),
      window_(window) {}

bool ProgressMeter::stderr_is_tty() {
#if defined(__unix__) || defined(__APPLE__)
  return ::isatty(2) != 0;
#else
  return false;
#endif
}

void ProgressMeter::update(std::uint64_t tick, std::uint64_t total_ticks) {
  const double now = util::monotonic_seconds();
  if (!epoch_set_) {
    epoch_s_ = now;
    epoch_set_ = true;
  }
  update_at(tick, total_ticks, now - epoch_s_);
}

void ProgressMeter::update_at(std::uint64_t tick, std::uint64_t total_ticks,
                              double wall_now_s) {
  window_.add(tick, wall_now_s);
  if (wall_now_s < next_due_s_) return;
  next_due_s_ = wall_now_s + interval_s_;

  ProgressSnapshot s;
  s.tick = tick;
  s.total_ticks = total_ticks;
  s.ticks_per_second = window_.ticks_per_second();
  if (total_ticks > tick && s.ticks_per_second > 0.0) {
    s.eta_s = static_cast<double>(total_ticks - tick) / s.ticks_per_second;
  }
  s.rss_bytes = sample_host_resources().rss_bytes;

  const std::string line = format_progress_line(s);
  os_ << '\r' << line;
  if (line.size() < last_len_) {
    os_ << std::string(last_len_ - line.size(), ' ');
  }
  os_.flush();
  last_len_ = line.size();
  ++emitted_;
}

void ProgressMeter::finish() {
  if (emitted_ == 0) return;
  os_ << '\n';
  os_.flush();
}

// --- Offline analysis -------------------------------------------------------

WallReport analyze_wallprof(std::istream& is) {
  WallReport rep;
  std::string line;
  std::uint64_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    jsonv::JsonValue v;
    try {
      v = jsonv::JsonParser(line).parse();
    } catch (const std::exception& e) {
      jsonv::line_fail(lineno, e.what());
    }
    const jsonv::JsonValue* type = v.find("type");
    if (type == nullptr || type->kind != jsonv::JsonValue::Kind::kString) {
      continue;
    }
    if (type->string == "wallheartbeat") {
      ++rep.heartbeats;
      rep.last_heartbeat_ticks_per_s =
          jsonv::get_num_or0(v, "ticks_per_second", lineno);
      continue;
    }
    if (type->string != "wallprof") continue;

    rep.found = true;
    WallprofSummary& s = rep.summary;
    s = WallprofSummary{};  // a later record wins wholesale
    s.ranks = static_cast<int>(jsonv::get_u64(v, "ranks", lineno));
    s.ticks = jsonv::get_u64(v, "ticks", lineno);
    s.wall_s = jsonv::get_num_or0(v, "wall_s", lineno);
    s.ticks_per_second = jsonv::get_num_or0(v, "ticks_per_second", lineno);
    s.resources.rss_bytes = jsonv::get_u64_or0(v, "rss_bytes", lineno);
    s.resources.peak_rss_bytes =
        jsonv::get_u64_or0(v, "peak_rss_bytes", lineno);
    s.overhead_s = jsonv::get_num_or0(v, "overhead_s", lineno);
    s.timer_ops = jsonv::get_u64_or0(v, "timer_ops", lineno);
    if (const jsonv::JsonValue* loops = v.find("tick_loops")) {
      s.compute_loop_s = jsonv::get_num_or0(*loops, "compute_s", lineno);
      s.network_loop_s = jsonv::get_num_or0(*loops, "network_s", lineno);
      s.team_threads =
          static_cast<int>(jsonv::get_u64_or0(*loops, "team_threads", lineno));
    }
    if (const jsonv::JsonValue* k = v.find("kernel_dispatch")) {
      s.kernels.synapse_bitparallel =
          jsonv::get_u64_or0(*k, "synapse_bitparallel", lineno);
      s.kernels.synapse_scalar =
          jsonv::get_u64_or0(*k, "synapse_scalar", lineno);
      s.kernels.neuron_fast = jsonv::get_u64_or0(*k, "neuron_fast", lineno);
      s.kernels.neuron_stoch_soa =
          jsonv::get_u64_or0(*k, "neuron_stoch_soa", lineno);
      s.kernels.neuron_scalar =
          jsonv::get_u64_or0(*k, "neuron_scalar", lineno);
    }
    s.rank_phase.assign(static_cast<std::size_t>(std::max(0, s.ranks)), {});
    if (const jsonv::JsonValue* g = v.find("global")) {
      if (g->kind != jsonv::JsonValue::Kind::kArray) {
        jsonv::line_fail(lineno, "global is not an array");
      }
      for (const jsonv::JsonValue& e : g->array) {
        const jsonv::JsonValue* name = e.find("phase");
        if (name == nullptr) continue;
        const int p = phase_index(name->string);
        if (p < 0) continue;
        parse_stats_fields(e, s.global_phase[static_cast<std::size_t>(p)],
                           lineno);
      }
    }
    if (const jsonv::JsonValue* rd = v.find("ranks_detail")) {
      if (rd->kind != jsonv::JsonValue::Kind::kArray) {
        jsonv::line_fail(lineno, "ranks_detail is not an array");
      }
      for (const jsonv::JsonValue& e : rd->array) {
        const auto rank = jsonv::get_u64(e, "rank", lineno);
        if (rank >= s.rank_phase.size()) continue;
        const jsonv::JsonValue* phases = e.find("phases");
        if (phases == nullptr ||
            phases->kind != jsonv::JsonValue::Kind::kArray) {
          continue;
        }
        for (const jsonv::JsonValue& ph : phases->array) {
          const jsonv::JsonValue* name = ph.find("phase");
          if (name == nullptr) continue;
          const int p = phase_index(name->string);
          if (p < 0 || p >= kRankWallPhases) continue;
          WallRankPhase& slot =
              s.rank_phase[rank][static_cast<std::size_t>(p)];
          parse_stats_fields(ph, slot.wall, lineno);
          slot.virtual_s = jsonv::get_num_or0(ph, "virtual_s", lineno);
        }
      }
    }
  }
  if (!rep.found) {
    throw std::runtime_error(
        "no {\"type\":\"wallprof\"} record found — is this a --wallprof-out "
        "capture?");
  }
  return rep;
}

void write_wall_report(std::ostream& os, const WallReport& rep) {
  const WallprofSummary& s = rep.summary;
  os << "wall-clock profile: " << s.ticks << " tick(s), " << s.ranks
     << " rank(s) in " << std::fixed << std::setprecision(3) << s.wall_s
     << " s (" << std::setprecision(1) << s.ticks_per_second << " ticks/s)\n";
  os << "  RSS " << std::setprecision(1)
     << static_cast<double>(s.resources.rss_bytes) / (1024.0 * 1024.0)
     << " MB (peak "
     << static_cast<double>(s.resources.peak_rss_bytes) / (1024.0 * 1024.0)
     << " MB); instrumentation ~" << std::setprecision(3)
     << s.overhead_s * 1e3 << " ms";
  if (s.wall_s > 0.0) {
    os << " (" << std::setprecision(3) << 100.0 * s.overhead_s / s.wall_s
       << "% of wall)";
  }
  os << ", " << s.timer_ops << " timer ops\n";
  if (rep.heartbeats > 0) {
    os << "  heartbeats: " << rep.heartbeats << " (last window "
       << std::setprecision(1) << rep.last_heartbeat_ticks_per_s
       << " ticks/s)\n";
  }

  // wall_s/share: this phase's part of tick wall (phases outside the tick
  // loop show their own wall and no share). rank_s: summed per-rank
  // brackets, the same axis as virtual_s.
  os << "\nphase          wall_s    share     rank_s   virtual_s  rank/virtual\n";
  const double wall_total = std::max(s.wall_s, 1e-12);
  for (int p = 0; p < kWallPhaseCount; ++p) {
    const auto phase = static_cast<WallPhase>(p);
    const double rank = s.phase_wall_s(phase);
    const double virt = s.phase_virtual_s(phase);
    if (rank == 0.0 && virt == 0.0) continue;
    const double tick = s.phase_tick_wall_s(phase);
    os << std::left << std::setw(13) << wall_phase_name(phase) << std::right
       << std::setw(9) << std::setprecision(4) << (tick >= 0.0 ? tick : rank)
       << std::setw(8);
    if (tick >= 0.0) {
      os << std::setprecision(1) << 100.0 * tick / wall_total << "%"
         << std::setw(11) << std::setprecision(4) << rank;
    } else {
      os << "--" << ' ' << std::setw(11) << "--";
    }
    os << std::setw(12) << std::setprecision(4) << virt << std::setw(14);
    if (virt > 0.0) {
      os << std::setprecision(2) << rank / virt;
    } else {
      os << "--";
    }
    os << '\n';
  }

  if (s.team_threads > 0) {
    // Parallel efficiency: rank-seconds over (loop wall x team width); 100%
    // means every team thread was busy with rank work for the whole loop.
    os << "\nrank loops (OpenMP team " << s.team_threads << "):\n";
    const auto loop_line = [&](const char* name, double loop_s,
                               double rank_s) {
      os << "  " << std::left << std::setw(9) << name << std::right
         << "wall " << std::setprecision(4) << loop_s << " s, rank-seconds "
         << rank_s << " s";
      if (loop_s > 0.0) {
        os << ", parallel efficiency " << std::setprecision(1)
           << 100.0 * rank_s / (loop_s * s.team_threads) << "%";
      }
      os << '\n';
    };
    loop_line("compute", s.compute_loop_s,
              s.phase_wall_s(WallPhase::kSynapse) +
                  s.phase_wall_s(WallPhase::kNeuron));
    loop_line("network", s.network_loop_s,
              s.phase_wall_s(WallPhase::kNetwork));
  }

  const arch::kernels::DispatchCounters& k = s.kernels;
  if (k.synapse_bitparallel + k.synapse_scalar + k.neuron_fast +
          k.neuron_stoch_soa + k.neuron_scalar >
      0) {
    os << "\nkernel dispatch: synapse bitparallel " << k.synapse_bitparallel
       << " / scalar " << k.synapse_scalar << "; neuron fast " << k.neuron_fast
       << " / stoch-soa " << k.neuron_stoch_soa << " / scalar "
       << k.neuron_scalar << '\n';
  }

  if (!s.rank_phase.empty()) {
    os << "\nper-rank wall vs virtual (compute phases):\n"
       << "rank      wall_s   virtual_s   wall/virtual\n";
    for (std::size_t r = 0; r < s.rank_phase.size(); ++r) {
      double wall = 0.0, virt = 0.0;
      for (int p = 0; p < kRankWallPhases; ++p) {
        wall += s.rank_phase[r][static_cast<std::size_t>(p)].wall.total_s;
        virt += s.rank_phase[r][static_cast<std::size_t>(p)].virtual_s;
      }
      os << std::left << std::setw(6) << r << std::right << std::setw(10)
         << std::setprecision(4) << wall << std::setw(12) << virt
         << std::setw(13);
      if (virt > 0.0) {
        os << std::setprecision(2) << wall / virt;
      } else {
        os << "--";
      }
      os << '\n';
    }
  }
}

void write_wall_report_json(std::ostream& os, const WallReport& rep) {
  os << "{\"wallprof\":";
  // Reuse the summary serialisation minus its trailing newline.
  std::ostringstream tmp;
  write_wallprof_summary_json(tmp, rep.summary);
  std::string body = tmp.str();
  while (!body.empty() && body.back() == '\n') body.pop_back();
  os << body << ",\"tick_share_pct\":{";
  for (int p = 0; p < kRankWallPhases; ++p) {
    const auto phase = static_cast<WallPhase>(p);
    if (p != 0) os << ',';
    os << '"' << wall_phase_name(phase) << "\":";
    write_json_double(os, 100.0 * rep.summary.phase_tick_wall_s(phase) /
                              std::max(rep.summary.wall_s, 1e-12));
  }
  os << "},\"heartbeats\":" << rep.heartbeats
     << ",\"last_heartbeat_ticks_per_second\":";
  write_json_double(os, rep.last_heartbeat_ticks_per_s);
  os << "}\n";
}

}  // namespace compass::obs
