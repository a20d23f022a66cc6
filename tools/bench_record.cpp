// bench_record — snapshot bench numbers into provenance JSON files
// (BENCH_kernels.json, BENCH_recovery.json, BENCH_wall.json; schemas
// documented in EXPERIMENTS.md).
//
// Runs bench_micro_kernels once (its `...Reference` twins time the scalar
// test oracle in the same process), then pairs each benchmark with its
// Reference twin and writes one JSON file with per-benchmark times and
// speedups. The recorded numbers are a provenance snapshot of the machine
// the file was generated on, not a CI gate — regenerate with:
//
//   ./build/tools/bench_record --bench-dir build/bench --out BENCH_kernels.json
//
// Every output carries a "provenance" object (git SHA, hostname, CPU count,
// OMP_NUM_THREADS as set, the host-thread count the benches actually run
// with) so bench_trend can line snapshots up across PRs and machines. Key
// ordering is stable (std::map / fixed emit order), so regenerating on the
// same machine diffs cleanly.
//
// Flags:
//   --bench-dir <dir>   directory holding the bench binaries (default
//                       build/bench)
//   --out <path>        output path (default depends on the mode)
//   --min-time <t>      forwarded as --benchmark_min_time (e.g. 0.5s)
//   --recovery          record the rank-failure recovery drill instead:
//                       runs bench_recovery and writes BENCH_recovery.json
//                       (migrate / restart-rank / restart-from-checkpoint
//                       lost work + recovery latency)
//   --wall              record the host wall-clock profile instead: runs
//                       bench_headline once with --wallprof-out attached and
//                       writes BENCH_wall.json (ticks/s, per-phase host
//                       seconds, RSS, measured instrumentation overhead)
//   --analytics         record the streaming-analytics overhead instead:
//                       runs bench_headline twice — once bare, once with
//                       --analytics-out attached — and writes
//                       BENCH_analytics.json (window count plus the
//                       self-measured analytics overhead %, gated at 2%
//                       by bench_trend)
//   --serve             record the served-simulation drill instead: starts
//                       compass_served on an ephemeral port, drives it with
//                       compass_swarm (32 clients, 8 sessions), and writes
//                       BENCH_serve.json (sessions/sec, stimuli/sec,
//                       p50/p99 injection→observed-spike latency)
//   --tools-dir <dir>   with --serve: directory holding compass_served and
//                       compass_swarm (default build/tools)
#include <unistd.h>

#ifdef COMPASS_HAVE_OPENMP
#include <omp.h>
#endif

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/flags.h"

namespace {

struct MicroResult {
  std::string name;
  double real_time = 0.0;
  std::string time_unit;
};

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Extract the raw JSON value text after `"key":` inside `obj` (flat search;
/// good enough for google-benchmark output and our own headline lines).
std::optional<std::string> raw_field(const std::string& obj,
                                     const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = obj.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  while (i < obj.size() && std::isspace(static_cast<unsigned char>(obj[i]))) {
    ++i;
  }
  if (i >= obj.size()) return std::nullopt;
  if (obj[i] == '"') {
    const std::size_t end = obj.find('"', i + 1);
    if (end == std::string::npos) return std::nullopt;
    return obj.substr(i + 1, end - i - 1);
  }
  std::size_t end = i;
  while (end < obj.size() && obj[end] != ',' && obj[end] != '}' &&
         obj[end] != '\n') {
    ++end;
  }
  return obj.substr(i, end - i);
}

std::optional<double> number_field(const std::string& obj,
                                   const std::string& key) {
  const auto raw = raw_field(obj, key);
  if (!raw) return std::nullopt;
  try {
    return std::stod(*raw);
  } catch (...) {
    return std::nullopt;
  }
}

/// Split the top-level objects of the `"benchmarks": [...]` array.
std::vector<std::string> benchmark_objects(const std::string& json) {
  std::vector<std::string> out;
  const std::size_t arr = json.find("\"benchmarks\":");
  if (arr == std::string::npos) return out;
  std::size_t i = json.find('[', arr);
  if (i == std::string::npos) return out;
  int depth = 0;
  bool in_string = false;
  std::size_t start = 0;
  for (++i; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth++ == 0) start = i;
    } else if (c == '}') {
      if (--depth == 0) out.push_back(json.substr(start, i - start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return out;
}

int run_command(const std::string& cmd) {
  std::cout << "[bench_record] $ " << cmd << std::endl;
  const int rc = std::system(cmd.c_str());
  if (rc != 0) {
    std::cerr << "bench_record: command failed (exit " << rc << "): " << cmd
              << "\n";
  }
  return rc;
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(15);
  os << v;
  return os.str();
}

/// First line of `cmd`'s stdout, trailing newline stripped; "" on failure.
std::string shell_capture(const char* cmd) {
  std::string out;
  FILE* p = ::popen(cmd, "r");
  if (p == nullptr) return out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
  ::pclose(p);
  const std::size_t nl = out.find('\n');
  if (nl != std::string::npos) out.resize(nl);
  return out;
}

/// Machine/source provenance stamped into every snapshot so bench_trend can
/// tell "regression" from "different machine" when lining files up.
std::string provenance_json() {
  std::string sha = shell_capture("git rev-parse HEAD 2>/dev/null");
  if (sha.empty()) sha = "unknown";
  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) != 0) {
    std::snprintf(host, sizeof host, "unknown");
  }
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  // The benches inherit this process's environment, so its OpenMP default
  // width is the team their emulated ranks run on.
  int host_threads = 1;
#ifdef COMPASS_HAVE_OPENMP
  host_threads = omp_get_max_threads();
#endif
  std::ostringstream os;
  os << "{\"git_sha\": \"" << sha << "\", \"host\": \"" << host
     << "\", \"cpus\": " << std::thread::hardware_concurrency()
     << ", \"omp_num_threads\": \"" << (omp_env != nullptr ? omp_env : "")
     << "\", \"host_threads\": " << host_threads << "}";
  return os.str();
}

/// --wall mode: one profiled bench_headline run — the wallprof summary the
/// run appends to --wallprof-out is the measurement; BENCH_wall.json keeps
/// the host-facing subset (throughput, per-phase wall seconds, RSS, and the
/// instrumentation's own measured cost).
int record_wall(const std::string& bench_dir, const std::string& out) {
  const std::string head_tmp = out + ".headline.tmp";
  const std::string wall_tmp = out + ".wallprof.tmp";
  std::remove(head_tmp.c_str());
  std::remove(wall_tmp.c_str());
  if (run_command(bench_dir + "/bench_headline --json " + head_tmp +
                  " --wallprof-out " + wall_tmp + " > /dev/null") != 0) {
    return 1;
  }
  const std::string head = read_file(head_tmp);
  std::remove(head_tmp.c_str());

  // Last wallprof summary line wins (a multi-run bench appends one per run).
  std::string wline;
  {
    std::istringstream lines(read_file(wall_tmp));
    std::string line;
    while (std::getline(lines, line)) {
      if (line.find("\"type\":\"wallprof\"") != std::string::npos) {
        wline = line;
      }
    }
  }
  std::remove(wall_tmp.c_str());
  if (wline.empty()) {
    std::cerr << "bench_record: bench_headline produced no wallprof summary "
                 "(is --wallprof-out wired through bench/common?)\n";
    return 1;
  }

  const double wall_s = number_field(wline, "wall_s").value_or(0.0);
  const double overhead_s = number_field(wline, "overhead_s").value_or(0.0);
  if (wall_s <= 0.0) {
    std::cerr << "bench_record: wallprof summary has no wall_s\n";
    return 1;
  }
  std::ofstream js(out);
  if (!js) {
    std::cerr << "bench_record: cannot write " << out << "\n";
    return 1;
  }
  js << "{\n  \"schema\": \"compass.bench_wall.v1\",\n"
     << "  \"generator\": \"tools/bench_record\",\n"
     << "  \"provenance\": " << provenance_json() << ",\n"
     << "  \"headline\": {\"cores\": "
     << json_number(number_field(head, "cores").value_or(0.0))
     << ", \"ticks\": " << json_number(number_field(head, "ticks").value_or(0.0))
     << ", \"host_wall_s\": "
     << json_number(number_field(head, "host_wall_s").value_or(0.0))
     << ", \"virtual_s\": "
     << json_number(number_field(head, "virtual_s").value_or(0.0)) << "},\n"
     << "  \"wall\": {\"ranks\": "
     << json_number(number_field(wline, "ranks").value_or(0.0))
     << ", \"wall_s\": " << json_number(wall_s)
     << ", \"ticks_per_second\": "
     << json_number(number_field(wline, "ticks_per_second").value_or(0.0))
     << ", \"overhead_s\": " << json_number(overhead_s)
     << ", \"overhead_pct\": " << json_number(100.0 * overhead_s / wall_s)
     << ", \"timer_ops\": "
     << json_number(number_field(wline, "timer_ops").value_or(0.0))
     << ", \"rss_bytes\": "
     << json_number(number_field(wline, "rss_bytes").value_or(0.0))
     << ", \"peak_rss_bytes\": "
     << json_number(number_field(wline, "peak_rss_bytes").value_or(0.0))
     << "},\n"
     << "  \"phase_wall_s\": {";
  const char* phases[] = {"synapse",  "neuron",   "send",       "exchange",
                          "network",  "checkpoint", "recovery", "pcc_compile"};
  bool first = true;
  for (const char* phase : phases) {
    const auto v = number_field(wline, std::string(phase) + "_wall_s");
    if (!v) continue;
    js << (first ? "" : ", ") << "\"" << phase << "\": " << json_number(*v);
    first = false;
  }
  js << "}\n}\n";
  std::cout << "[bench_record] wrote " << out << " ("
            << json_number(number_field(wline, "ticks_per_second").value_or(0.0))
            << " ticks/s, overhead "
            << json_number(100.0 * overhead_s / wall_s) << "%)\n";
  return 0;
}

/// --analytics mode: two bench_headline runs — bare, then with the
/// streaming-analytics engine attached — so the recorded overhead is
/// self-measured on the same binary and model, with analytics attachment
/// the only variable. The acceptance bar (mirrored as a bench_trend hard
/// ceiling) is < 2% on the headline workload.
int record_analytics(const std::string& bench_dir, const std::string& out) {
  const std::string off_tmp = out + ".off.tmp";
  const std::string on_tmp = out + ".on.tmp";
  const std::string an_tmp = out + ".analytics.tmp";
  std::remove(off_tmp.c_str());
  std::remove(on_tmp.c_str());
  std::remove(an_tmp.c_str());
  constexpr std::uint64_t kWindowTicks = 64;
  if (run_command(bench_dir + "/bench_headline --json " + off_tmp +
                  " > /dev/null") != 0) {
    return 1;
  }
  if (run_command(bench_dir + "/bench_headline --json " + on_tmp +
                  " --analytics-out " + an_tmp + " --analytics-window " +
                  std::to_string(kWindowTicks) +
                  " > /dev/null") != 0) {
    return 1;
  }
  const std::string off = read_file(off_tmp);
  const std::string on = read_file(on_tmp);
  std::remove(off_tmp.c_str());
  std::remove(on_tmp.c_str());
  const double off_wall = number_field(off, "host_wall_s").value_or(0.0);
  const double on_wall = number_field(on, "host_wall_s").value_or(0.0);
  if (off_wall <= 0.0 || on_wall <= 0.0) {
    std::cerr << "bench_record: missing headline wall times for the "
                 "analytics overhead measurement\n";
    return 1;
  }
  // Count windows and total spikes from the capture; line 1 is the config
  // header, every further line one closed window.
  std::uint64_t windows = 0;
  double spikes = 0.0;
  {
    std::istringstream lines(read_file(an_tmp));
    std::string line;
    while (std::getline(lines, line)) {
      if (line.find("\"type\":\"analytics\"") == std::string::npos) continue;
      ++windows;
      spikes += number_field(line, "spikes").value_or(0.0);
    }
  }
  std::remove(an_tmp.c_str());
  if (windows == 0) {
    std::cerr << "bench_record: bench_headline produced no analytics windows "
                 "(is --analytics-out wired through bench/common?)\n";
    return 1;
  }
  // Clamp at 0: run-to-run noise can make the instrumented run *faster*,
  // and a negative overhead would read as nonsense in the trend table.
  const double overhead_pct =
      on_wall > off_wall ? 100.0 * (on_wall - off_wall) / off_wall : 0.0;
  std::ofstream js(out);
  if (!js) {
    std::cerr << "bench_record: cannot write " << out << "\n";
    return 1;
  }
  js << "{\n  \"schema\": \"compass.bench_analytics.v1\",\n"
     << "  \"generator\": \"tools/bench_record\",\n"
     << "  \"provenance\": " << provenance_json() << ",\n"
     << "  \"analytics\": {\"window_ticks\": " << kWindowTicks
     << ", \"windows\": " << windows
     << ", \"spikes\": " << json_number(spikes)
     << ", \"baseline_host_wall_s\": " << json_number(off_wall)
     << ", \"analytics_host_wall_s\": " << json_number(on_wall)
     << ", \"overhead_pct\": " << json_number(overhead_pct) << "}\n}\n";
  std::cout << "[bench_record] wrote " << out << " (" << windows
            << " windows, overhead " << json_number(overhead_pct) << "%)\n";
  return 0;
}

/// --recovery mode: drive bench_recovery once and wrap its per-strategy
/// JSON lines into BENCH_recovery.json, with the headline comparison
/// (in-run migration vs whole-job restart) called out explicitly.
int record_recovery(const std::string& bench_dir, const std::string& out) {
  const std::string tmp = out + ".recovery.tmp";
  std::remove(tmp.c_str());
  if (run_command(bench_dir + "/bench_recovery --json " + tmp +
                  " > /dev/null") != 0) {
    return 1;
  }
  struct Strategy {
    std::string line;
    double core_ticks_lost = 0.0;
    double ticks_lost = 0.0;
    double wall_s = 0.0;
  };
  std::map<std::string, Strategy> by_name;
  std::istringstream lines(read_file(tmp));
  std::string line;
  while (std::getline(lines, line)) {
    const auto name = raw_field(line, "strategy");
    if (!name) continue;
    Strategy s;
    s.line = line;
    s.core_ticks_lost = number_field(line, "core_ticks_lost").value_or(0.0);
    s.ticks_lost = number_field(line, "ticks_lost").value_or(0.0);
    s.wall_s = number_field(line, "recovery_wall_s").value_or(0.0);
    by_name[*name] = s;
  }
  std::remove(tmp.c_str());
  const auto migrate = by_name.find("migrate");
  const auto restart = by_name.find("restart-from-checkpoint");
  if (migrate == by_name.end() || restart == by_name.end()) {
    std::cerr << "bench_record: bench_recovery did not report both migrate "
                 "and restart-from-checkpoint\n";
    return 1;
  }
  std::ofstream js(out);
  if (!js) {
    std::cerr << "bench_record: cannot write " << out << "\n";
    return 1;
  }
  js << "{\n  \"schema\": \"compass.bench_recovery.v2\",\n"
     << "  \"generator\": \"tools/bench_record\",\n"
     << "  \"provenance\": " << provenance_json() << ",\n"
     << "  \"strategies\": [\n";
  std::size_t i = 0;
  for (const auto& [name, s] : by_name) {
    js << "    " << s.line << (++i < by_name.size() ? ",\n" : "\n");
  }
  const double lost_ratio =
      migrate->second.core_ticks_lost > 0.0
          ? restart->second.core_ticks_lost / migrate->second.core_ticks_lost
          : 0.0;
  js << "  ],\n"
     << "  \"headline\": {\"migrate_core_ticks_lost\": "
     << json_number(migrate->second.core_ticks_lost)
     << ", \"restart_core_ticks_lost\": "
     << json_number(restart->second.core_ticks_lost)
     << ", \"lost_work_ratio_restart_over_migrate\": "
     << json_number(lost_ratio)
     << ", \"migrate_recovery_wall_s\": "
     << json_number(migrate->second.wall_s)
     << ", \"restart_recovery_wall_s\": "
     << json_number(restart->second.wall_s) << "}\n}\n";
  std::cout << "[bench_record] wrote " << out << " (" << by_name.size()
            << " strategies; restart loses " << json_number(lost_ratio)
            << "x the work migrate does)\n";
  return 0;
}

/// --serve mode: one daemon + swarm drill. The daemon runs backgrounded on
/// an ephemeral port with --exit-on-idle-ms, the swarm drives it, and
/// `wait` reaps the daemon — one shell line, no pid files to leak. The
/// swarm's own JSON (already schema compass.bench_serve.v1) is re-emitted
/// with the provenance block bench_trend lines snapshots up by.
int record_serve(const std::string& tools_dir, const std::string& out) {
  const std::string swarm_tmp = out + ".swarm.tmp";
  const std::string port_file = out + ".port.tmp";
  std::remove(swarm_tmp.c_str());
  std::remove(port_file.c_str());
  const std::string cmd =
      tools_dir + "/compass_served --port-file " + port_file +
      " --exit-on-idle-ms 1000 --max-seconds 180 > /dev/null & SERVED=$!; " +
      "for i in $(seq 1 100); do [ -s " + port_file +
      " ] && break; sleep 0.1; done; [ -s " + port_file + " ] || exit 1; " +
      tools_dir + "/compass_swarm --port $(cat " + port_file +
      ") --clients 32 --sessions 8 --injects 16 --json " + swarm_tmp +
      "; RC=$?; wait $SERVED; exit $RC";
  const int rc = run_command(cmd);
  std::remove(port_file.c_str());
  if (rc != 0) return 1;
  const std::string swarm = read_file(swarm_tmp);
  std::remove(swarm_tmp.c_str());
  if (swarm.empty()) {
    std::cerr << "bench_record: compass_swarm wrote no JSON\n";
    return 1;
  }
  std::ofstream js(out);
  if (!js) {
    std::cerr << "bench_record: cannot write " << out << "\n";
    return 1;
  }
  const auto num = [&](const char* key) {
    return json_number(number_field(swarm, key).value_or(0.0));
  };
  js << "{\n  \"schema\": \"compass.bench_serve.v1\",\n"
     << "  \"generator\": \"tools/bench_record\",\n"
     << "  \"provenance\": " << provenance_json() << ",\n"
     << "  \"serve\": {\n"
     << "    \"clients\": " << num("clients") << ",\n"
     << "    \"sessions\": " << num("sessions") << ",\n"
     << "    \"scenario\": \"" << raw_field(swarm, "scenario").value_or("")
     << "\",\n"
     << "    \"stimuli\": " << num("stimuli") << ",\n"
     << "    \"sessions_per_second\": " << num("sessions_per_second")
     << ",\n"
     << "    \"stimuli_per_second\": " << num("stimuli_per_second") << ",\n"
     << "    \"p50_inject_latency_ms\": " << num("p50_inject_latency_ms")
     << ",\n"
     << "    \"p99_inject_latency_ms\": " << num("p99_inject_latency_ms")
     << ",\n"
     << "    \"max_inject_latency_ms\": " << num("max_inject_latency_ms")
     << ",\n"
     << "    \"protocol_errors\": " << num("protocol_errors") << "\n"
     << "  }\n}\n";
  std::cout << "[bench_record] wrote " << out << " ("
            << num("stimuli_per_second") << " stimuli/s, p99 "
            << num("p99_inject_latency_ms") << " ms, "
            << num("protocol_errors") << " protocol errors)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench_dir = "build/bench";
  std::string tools_dir = "build/tools";
  std::string out;
  std::string min_time;
  bool recovery = false;
  bool wall = false;
  bool serve = false;
  bool analytics = false;
  using compass::util::Flag;
  compass::util::Flags(
      "bench_record", "usage: bench_record [options]\n",
      {
          Flag::text("--bench-dir", bench_dir, "DIR",
                     "directory holding the bench binaries"),
          Flag::text("--tools-dir", tools_dir, "DIR",
                     "with --serve: directory holding compass_served and "
                     "compass_swarm"),
          Flag::text("--out", out, "PATH",
                     "output path (default depends on the mode)"),
          Flag::text("--min-time", min_time, "T",
                     "forwarded as --benchmark_min_time (e.g. 0.5s)"),
          Flag::toggle("--recovery", recovery,
                       "record the recovery drill (BENCH_recovery.json)"),
          Flag::toggle("--wall", wall,
                       "record the host wall-clock profile (BENCH_wall.json)"),
          Flag::toggle("--serve", serve,
                       "record the served-simulation drill "
                       "(BENCH_serve.json)"),
          Flag::toggle("--analytics", analytics,
                       "record the analytics overhead "
                       "(BENCH_analytics.json)"),
      })
      .parse_or_exit(argc, argv);
  if (static_cast<int>(recovery) + static_cast<int>(wall) +
          static_cast<int>(serve) + static_cast<int>(analytics) >
      1) {
    std::cerr << "bench_record: --recovery, --wall, --serve, and --analytics "
                 "are exclusive\n";
    return 1;
  }
  if (out.empty()) {
    out = recovery ? "BENCH_recovery.json"
                   : (wall ? "BENCH_wall.json"
                           : (serve ? "BENCH_serve.json"
                                    : (analytics ? "BENCH_analytics.json"
                                                 : "BENCH_kernels.json")));
  }
  if (recovery) return record_recovery(bench_dir, out);
  if (wall) return record_wall(bench_dir, out);
  if (serve) return record_serve(tools_dir, out);
  if (analytics) return record_analytics(bench_dir, out);

  // --- Microbenchmarks: one process measures kernels and oracle -------------
  const std::string micro_tmp = out + ".micro.tmp";
  {
    std::string cmd = bench_dir + "/bench_micro_kernels --json " + micro_tmp +
                      " --benchmark_filter='BM_(SynapsePhase|NeuronPhase|"
                      "FullCoreTick)'";
    if (!min_time.empty()) cmd += " --benchmark_min_time=" + min_time;
    if (run_command(cmd) != 0) return 1;
  }
  std::map<std::string, MicroResult> by_name;
  for (const std::string& obj : benchmark_objects(read_file(micro_tmp))) {
    MicroResult r;
    const auto name = raw_field(obj, "name");
    const auto rt = number_field(obj, "real_time");
    const auto unit = raw_field(obj, "time_unit");
    if (!name || !rt) continue;
    r.name = *name;
    r.real_time = *rt;
    r.time_unit = unit.value_or("ns");
    by_name[r.name] = r;
  }
  std::remove(micro_tmp.c_str());

  // Pair BM_Foo/arg with BM_FooReference/arg.
  struct Pair {
    std::string name;
    double bitparallel = 0.0;
    double reference = 0.0;
    std::string unit;
  };
  std::vector<Pair> pairs;
  for (const auto& [name, ref] : by_name) {
    const std::size_t tag = name.find("Reference");
    if (tag == std::string::npos) continue;
    const std::string base = name.substr(0, tag) + name.substr(tag + 9);
    const auto it = by_name.find(base);
    if (it == by_name.end()) continue;
    pairs.push_back(
        Pair{base, it->second.real_time, ref.real_time, ref.time_unit});
  }
  if (pairs.empty()) {
    std::cerr << "bench_record: no benchmark/Reference pairs found — did "
                 "bench_micro_kernels run?\n";
    return 1;
  }

  // --- Emit -----------------------------------------------------------------
  std::ofstream js(out);
  if (!js) {
    std::cerr << "bench_record: cannot write " << out << "\n";
    return 1;
  }
  js << "{\n  \"schema\": \"compass.bench_kernels.v2\",\n"
     << "  \"generator\": \"tools/bench_record\",\n"
     << "  \"provenance\": " << provenance_json() << ",\n"
     << "  \"micro\": [\n";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Pair& p = pairs[i];
    js << "    {\"name\": \"" << p.name << "\", \"bitparallel_" << p.unit
       << "\": " << json_number(p.bitparallel) << ", \"reference_" << p.unit
       << "\": " << json_number(p.reference)
       << ", \"speedup\": " << json_number(p.reference / p.bitparallel) << "}"
       << (i + 1 < pairs.size() ? ",\n" : "\n");
  }
  js << "  ]\n}\n";
  std::cout << "[bench_record] wrote " << out << " (" << pairs.size()
            << " micro pairs)\n";
  return 0;
}
