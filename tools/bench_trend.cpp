// bench_trend — cross-PR benchmark trajectory and perf-regression gate.
//
//   bench_trend [BENCH_*.json ...] [--history BENCH_history.jsonl]
//               [--append] [--check] [--tolerance PCT]
//
// Reads the BENCH snapshot files bench_record writes (BENCH_kernels.json,
// BENCH_recovery.json, BENCH_wall.json, BENCH_serve.json,
// BENCH_analytics.json — the defaults, skipping any that do not exist),
// reduces each to a small set of named metrics, and prints
// them next to the append-only history in BENCH_history.jsonl: one line per
// recorded snapshot-set, oldest first, so the table reads as the repo's
// performance trajectory across PRs.
//
//   --append          append the current metrics as a new history line
//                     (stamped with the provenance of the first file that
//                     carries one: git SHA, host, cpus and the host-thread
//                     count the run used) — run after regenerating the
//                     BENCH files
//   --check           compare current metrics against the most recent
//                     history entry; a *directional* metric that moved the
//                     wrong way by more than --tolerance fails the gate
//                     (exit 3). Info-only metrics (host-dependent absolute
//                     times, RSS) never gate.
//   --tolerance PCT   allowed relative slip for --check (default 10)
//   --history F       history file (default BENCH_history.jsonl)
//
// Directional metrics: kernels.micro_geomean_speedup (higher is better —
// kernel over scalar oracle on one machine, so machine speed cancels out),
// wall.ticks_per_second (higher is better), wall.overhead_pct (lower is
// better — instrumentation cost relative to the run it measures),
// analytics.overhead_pct (lower is better). Absolute wall
// seconds and RSS are recorded but never gated: they move with the
// recording machine, not with the code.
//
// analytics.overhead_pct additionally has a *hard ceiling*: --check fails
// (exit 3) whenever the current snapshot reports more than 2% — even with
// no history to compare against — because "< 2% on bench_headline" is the
// analytics plane's standing acceptance bar, not a relative trend.
//
// Accepts both v1 snapshots (no provenance object) and v2+; unknown
// schemas in the file list are an error, unreadable files exit 2.
//
// Exit codes: 0 ok, 1 usage error, 2 unreadable/malformed input,
// 3 regression detected by --check.
#include <cmath>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "obs/jsonv.h"
#include "util/flags.h"

namespace {

using compass::obs::jsonv::JsonParser;
using compass::obs::jsonv::JsonValue;

/// -1: lower is better, +1: higher is better, 0: recorded but never gated.
int metric_direction(const std::string& name) {
  if (name == "kernels.micro_geomean_speedup") return 1;
  if (name == "wall.ticks_per_second") return 1;
  if (name == "wall.overhead_pct") return -1;
  if (name == "serve.stimuli_per_second") return 1;
  if (name == "serve.p99_inject_latency_ms") return -1;
  if (name == "analytics.overhead_pct") return -1;
  return 0;
}

/// Absolute acceptance bar for the streaming-analytics overhead on
/// bench_headline; --check enforces it even without history.
constexpr double kAnalyticsOverheadCeilingPct = 2.0;

struct Snapshot {
  std::map<std::string, double> metrics;  // stable iteration order
  std::string git_sha;
  std::string host;
  int cpus = 0;          // 0 = not recorded
  int host_threads = 0;  // OpenMP width the benches ran with; 0 = unknown
};

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

double num_or(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return fallback;
  return v->number;
}

/// cpus / host_threads from a provenance object or history line, keeping
/// values already set (the first file that carries one wins).
void take_thread_counts(const JsonValue& obj, Snapshot& snap) {
  if (snap.cpus == 0) snap.cpus = static_cast<int>(num_or(obj, "cpus", 0.0));
  if (snap.host_threads == 0) {
    snap.host_threads = static_cast<int>(num_or(obj, "host_threads", 0.0));
  }
}

void take_provenance(const JsonValue& root, Snapshot& snap) {
  const JsonValue* prov = root.find("provenance");
  if (prov == nullptr || prov->kind != JsonValue::Kind::kObject) return;
  const JsonValue* sha = prov->find("git_sha");
  if (snap.git_sha.empty() && sha != nullptr &&
      sha->kind == JsonValue::Kind::kString) {
    snap.git_sha = sha->string;
  }
  const JsonValue* host = prov->find("host");
  if (snap.host.empty() && host != nullptr &&
      host->kind == JsonValue::Kind::kString) {
    snap.host = host->string;
  }
  take_thread_counts(*prov, snap);
}

/// Reduce one BENCH snapshot file into flat metrics; throws on an unknown
/// schema or a structurally broken file.
void ingest_file(const std::string& path, Snapshot& snap) {
  const std::string text = read_file(path);
  if (text.empty()) throw std::runtime_error(path + ": empty or unreadable");
  const JsonValue root = JsonParser(text).parse();
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString) {
    throw std::runtime_error(path + ": no \"schema\" field");
  }
  take_provenance(root, snap);
  const std::string& s = schema->string;
  if (s.rfind("compass.bench_kernels.", 0) == 0) {
    const JsonValue* micro = root.find("micro");
    if (micro != nullptr && micro->kind == JsonValue::Kind::kArray &&
        !micro->array.empty()) {
      double log_sum = 0.0;
      std::size_t n = 0;
      for (const JsonValue& row : micro->array) {
        const double sp = num_or(row, "speedup", 0.0);
        if (sp > 0.0) {
          log_sum += std::log(sp);
          ++n;
        }
      }
      if (n > 0) {
        snap.metrics["kernels.micro_geomean_speedup"] =
            std::exp(log_sum / static_cast<double>(n));
      }
    }
  } else if (s.rfind("compass.bench_recovery.", 0) == 0) {
    const JsonValue* headline = root.find("headline");
    if (headline != nullptr && headline->kind == JsonValue::Kind::kObject) {
      snap.metrics["recovery.lost_work_ratio"] =
          num_or(*headline, "lost_work_ratio_restart_over_migrate", 0.0);
      snap.metrics["recovery.migrate_wall_s"] =
          num_or(*headline, "migrate_recovery_wall_s", 0.0);
    }
  } else if (s.rfind("compass.bench_wall.", 0) == 0) {
    const JsonValue* wall = root.find("wall");
    if (wall != nullptr && wall->kind == JsonValue::Kind::kObject) {
      snap.metrics["wall.ticks_per_second"] =
          num_or(*wall, "ticks_per_second", 0.0);
      snap.metrics["wall.overhead_pct"] = num_or(*wall, "overhead_pct", 0.0);
      snap.metrics["wall.peak_rss_bytes"] =
          num_or(*wall, "peak_rss_bytes", 0.0);
    }
    const JsonValue* headline = root.find("headline");
    if (headline != nullptr && headline->kind == JsonValue::Kind::kObject) {
      snap.metrics["wall.host_wall_s"] = num_or(*headline, "host_wall_s", 0.0);
    }
  } else if (s.rfind("compass.bench_serve.", 0) == 0) {
    const JsonValue* serve = root.find("serve");
    if (serve != nullptr && serve->kind == JsonValue::Kind::kObject) {
      snap.metrics["serve.sessions_per_second"] =
          num_or(*serve, "sessions_per_second", 0.0);
      snap.metrics["serve.stimuli_per_second"] =
          num_or(*serve, "stimuli_per_second", 0.0);
      snap.metrics["serve.p50_inject_latency_ms"] =
          num_or(*serve, "p50_inject_latency_ms", 0.0);
      snap.metrics["serve.p99_inject_latency_ms"] =
          num_or(*serve, "p99_inject_latency_ms", 0.0);
      snap.metrics["serve.protocol_errors"] =
          num_or(*serve, "protocol_errors", 0.0);
    }
  } else if (s.rfind("compass.bench_analytics.", 0) == 0) {
    const JsonValue* an = root.find("analytics");
    if (an != nullptr && an->kind == JsonValue::Kind::kObject) {
      snap.metrics["analytics.overhead_pct"] =
          num_or(*an, "overhead_pct", 0.0);
      snap.metrics["analytics.windows"] = num_or(*an, "windows", 0.0);
      snap.metrics["analytics.baseline_host_wall_s"] =
          num_or(*an, "baseline_host_wall_s", 0.0);
    }
  } else {
    throw std::runtime_error(path + ": unknown schema \"" + s + "\"");
  }
}

/// One history line per recorded snapshot-set, oldest first. A malformed
/// line is an error: history is append-only provenance, silent skips would
/// hide corruption.
std::vector<Snapshot> load_history(const std::string& path) {
  std::vector<Snapshot> out;
  std::ifstream is(path);
  if (!is) return out;  // no history yet is fine
  std::string line;
  std::uint64_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const JsonValue root = JsonParser(line).parse();
    Snapshot snap;
    const JsonValue* sha = root.find("git_sha");
    if (sha != nullptr && sha->kind == JsonValue::Kind::kString) {
      snap.git_sha = sha->string;
    }
    const JsonValue* host = root.find("host");
    if (host != nullptr && host->kind == JsonValue::Kind::kString) {
      snap.host = host->string;
    }
    take_thread_counts(root, snap);
    const JsonValue* metrics = root.find("metrics");
    if (metrics == nullptr || metrics->kind != JsonValue::Kind::kObject) {
      throw std::runtime_error(path + " line " + std::to_string(lineno) +
                               ": no \"metrics\" object");
    }
    for (const auto& [k, v] : metrics->object) {
      if (v.kind == JsonValue::Kind::kNumber) snap.metrics[k] = v.number;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::string fmt(double v) {
  std::ostringstream os;
  if (v != 0.0 && (std::fabs(v) >= 1e6 || std::fabs(v) < 1e-3)) {
    os << std::scientific << std::setprecision(3) << v;
  } else {
    os << std::fixed << std::setprecision(3) << v;
  }
  return os.str();
}

std::string short_sha(const std::string& sha) {
  if (sha.empty()) return "-";
  return sha.size() > 8 ? sha.substr(0, 8) : sha;
}

void append_history(const std::string& path, const Snapshot& snap) {
  std::ofstream os(path, std::ios::app);
  if (!os) throw std::runtime_error("cannot append to " + path);
  os << "{\"schema\":\"compass.bench_history.v1\",\"recorded_unix\":"
     << static_cast<long long>(std::time(nullptr)) << ",\"git_sha\":\""
     << snap.git_sha << "\",\"host\":\"" << snap.host
     << "\",\"cpus\":" << snap.cpus
     << ",\"host_threads\":" << snap.host_threads << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : snap.metrics) {
    os << (first ? "" : ",") << "\"" << name << "\":";
    std::ostringstream num;
    num.precision(15);
    num << value;
    os << num.str();
    first = false;
  }
  os << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string history_path = "BENCH_history.jsonl";
  std::vector<std::string> files;
  bool append = false;
  bool check = false;
  double tolerance_pct = 10.0;
  using compass::util::Flag;
  compass::util::Flags(
      "bench_trend", "usage: bench_trend [BENCH_*.json ...] [options]\n",
      {
          Flag::text("--history", history_path, "F", "history file"),
          Flag::toggle("--append", append,
                       "append the current metrics as a new history line"),
          Flag::toggle("--check", check,
                       "fail (exit 3) on a directional metric that moved the "
                       "wrong way by more than --tolerance"),
          Flag::real("--tolerance", tolerance_pct, 0.0,
                     "allowed relative slip for --check, percent"),
      })
      .positionals(files, SIZE_MAX)
      .parse_or_exit(argc, argv);
  if (files.empty()) {
    for (const char* name :
         {"BENCH_kernels.json", "BENCH_recovery.json", "BENCH_wall.json",
          "BENCH_serve.json", "BENCH_analytics.json"}) {
      if (file_exists(name)) files.push_back(name);
    }
    if (files.empty()) {
      std::cerr << "bench_trend: no BENCH_*.json files found (pass paths "
                   "explicitly or run from the repo root)\n";
      return 1;
    }
  }

  Snapshot current;
  std::vector<Snapshot> history;
  try {
    for (const std::string& f : files) ingest_file(f, current);
    history = load_history(history_path);
  } catch (const std::exception& e) {
    std::cerr << "bench_trend: " << e.what() << "\n";
    return 2;
  }

  // --- Trajectory table: one column per history entry plus "current" -------
  std::map<std::string, int> all_metrics;  // name -> direction
  for (const Snapshot& s : history) {
    for (const auto& [name, _] : s.metrics) {
      all_metrics[name] = metric_direction(name);
    }
  }
  for (const auto& [name, _] : current.metrics) {
    all_metrics[name] = metric_direction(name);
  }

  std::cout << "bench trajectory (" << history.size()
            << " recorded run(s) in " << history_path << " + current from";
  for (const std::string& f : files) std::cout << " " << f;
  std::cout << ")\n\n";
  std::cout << std::left << std::setw(34) << "metric" << std::setw(5) << "dir";
  for (const Snapshot& s : history) {
    std::cout << std::setw(14) << short_sha(s.git_sha);
  }
  std::cout << std::setw(14) << "current" << "delta\n";
  // Provenance rows: a change in either means the columns are not measuring
  // the same machine shape.
  const auto count_row = [&](const char* name, int Snapshot::*field) {
    const auto cell = [](int v) { return v > 0 ? std::to_string(v) : "-"; };
    std::cout << std::left << std::setw(34) << name << std::setw(5) << "";
    for (const Snapshot& s : history) std::cout << std::setw(14) << cell(s.*field);
    std::cout << std::setw(14) << cell(current.*field) << "\n";
  };
  count_row("cpus", &Snapshot::cpus);
  count_row("host_threads", &Snapshot::host_threads);
  for (const auto& [name, dir] : all_metrics) {
    std::cout << std::left << std::setw(34) << name << std::setw(5)
              << (dir > 0 ? "up" : dir < 0 ? "down" : "info");
    double last_seen = 0.0;
    bool seen = false;
    for (const Snapshot& s : history) {
      const auto it = s.metrics.find(name);
      if (it == s.metrics.end()) {
        std::cout << std::setw(14) << "-";
      } else {
        std::cout << std::setw(14) << fmt(it->second);
        last_seen = it->second;
        seen = true;
      }
    }
    const auto cur = current.metrics.find(name);
    if (cur == current.metrics.end()) {
      std::cout << std::setw(14) << "-" << "-\n";
      continue;
    }
    std::cout << std::setw(14) << fmt(cur->second);
    if (seen && last_seen != 0.0) {
      const double pct = 100.0 * (cur->second - last_seen) / last_seen;
      std::cout << (pct >= 0.0 ? "+" : "") << fmt(pct) << "%";
    } else {
      std::cout << "new";
    }
    std::cout << "\n";
  }

  // --- Regression gate ------------------------------------------------------
  int exit_code = 0;
  if (check) {
    // Absolute ceiling on the analytics overhead: "< 2% on bench_headline"
    // is the plane's standing acceptance bar, so unlike the relative gate
    // below this fires even with no history to compare against.
    const auto an = current.metrics.find("analytics.overhead_pct");
    if (an != current.metrics.end() &&
        an->second > kAnalyticsOverheadCeilingPct) {
      std::cout << "\nCEILING: analytics.overhead_pct " << fmt(an->second)
                << "% exceeds the hard " << fmt(kAnalyticsOverheadCeilingPct)
                << "% acceptance ceiling\n";
      exit_code = 3;
    }
    if (history.empty()) {
      std::cout << "\n--check: no history to compare against (gate passes "
                   "vacuously; --append a baseline first)\n";
    } else {
      const Snapshot& base = history.back();
      std::size_t gated = 0, failed = 0;
      for (const auto& [name, cur_v] : current.metrics) {
        const int dir = metric_direction(name);
        if (dir == 0) continue;
        const auto it = base.metrics.find(name);
        if (it == base.metrics.end() || it->second == 0.0) continue;
        ++gated;
        const double base_v = it->second;
        // Worse = moved against `dir` by more than the tolerance.
        const double change_pct = 100.0 * (cur_v - base_v) / base_v;
        const double against = static_cast<double>(-dir) * change_pct;
        if (against > tolerance_pct) {
          ++failed;
          std::cout << "\nREGRESSION: " << name << " " << fmt(base_v) << " -> "
                    << fmt(cur_v) << " (" << (change_pct >= 0.0 ? "+" : "")
                    << fmt(change_pct) << "%, tolerance " << fmt(tolerance_pct)
                    << "%, " << (dir > 0 ? "higher" : "lower")
                    << " is better)";
        }
      }
      std::cout << "\n--check: " << gated << " directional metric(s) gated, "
                << failed << " regression(s), tolerance " << fmt(tolerance_pct)
                << "%\n";
      if (failed > 0) exit_code = 3;
    }
  }

  if (append) {
    try {
      append_history(history_path, current);
      std::cout << "appended current metrics to " << history_path << " ("
                << current.metrics.size() << " metric(s), sha "
                << short_sha(current.git_sha) << ")\n";
    } catch (const std::exception& e) {
      std::cerr << "bench_trend: " << e.what() << "\n";
      return 2;
    }
  }
  return exit_code;
}
