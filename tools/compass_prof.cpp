// compass_prof — offline profile analyzer for Compass JSONL traces.
//
//   compass_prof <trace.jsonl> [--json] [--top K] [--what-if placement]
//   compass_prof --spans <spans.jsonl> [--json] [--top K] [--flow out.json]
//   compass_prof --wall <wallprof.jsonl> [--json]
//   compass_prof --analytics <analytics.jsonl> --raster <raster> [--json]
//
// Reads a --trace-out capture (span + tick records, plus the end-of-run
// profile record when the run had profiling enabled) and prints where the
// virtual parallel time went: per-phase totals, load-imbalance factors,
// the top-K heaviest / most-critical ranks, and a text comm-matrix heatmap.
// --json emits the same analysis as one machine-readable JSON object.
// A writer-truncation marker in the capture is surfaced as a WARNING (and a
// "dropped" count under --json) — the analysis then covers a prefix of the
// run, not the whole run.
//
// --spans switches to the causal spike-trace analyzer: the input is a
// --spike-trace-out capture, whose per-spike span records are stitched back
// into fire -> send -> wire -> recv -> ring -> integrate chains. The report
// shows per-(src,dst) rank-pair latency histograms (p50/p99/max ticks), the
// top-K critical chains per fire tick with their wire/ring decomposition,
// and loss counts. --flow additionally writes a Chrome trace with flow
// arrows (open in Perfetto) connecting each sampled spike's rank hops.
//
// --wall switches to the host wall-clock analyzer: the input is a
// --wallprof-out capture ({"type":"wallprof"} summary plus heartbeat
// records). The report shows where the *host's* wall time went per phase
// (each phase's share of tick wall, with a parallel rank loop's wall split
// among its phases by rank-seconds, so shares stay at or below 100% at any
// OpenMP width), the rank loops' parallel efficiency,
// the per-rank wall-vs-virtual divergence (how much slower this host
// emulates each rank than the modelled machine would run it), the
// kernel-dispatch mix, RSS, and the instrumentation's own measured cost —
// the complement of the default analyzer's virtual-time view.
//
// --analytics switches to the offline analytics re-derivation: the input is
// an --analytics-out capture and --raster names the spike raster recorded by
// the same run. The config header line rebuilds an identical
// AnalyticsEngine, the raster's fired-spike stream (the exact stream the
// in-run engine saw) is replayed through it tick by tick, and every
// re-derived line is compared byte-for-byte against the recording — the
// determinism proof that the streamed statistics are a pure function of the
// spike stream. Any byte difference exits 2.
//
// --what-if rescores the trace's *measured* comm matrix under a placement
// file's rank->node embedding (tools/compass --placement-out), comparing
// hop-weighted off-diagonal wire bytes against the default block embedding —
// placement studies without re-running the simulation. The matrix is
// rank-level, so only the rank->node map can be hypothesised; the core->rank
// partition is whatever the recorded run used.
//
// Exit codes: 0 success, 1 usage error, 2 unreadable/malformed input.
#include <algorithm>
#include <climits>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "comm/torus.h"
#include "io/raster.h"
#include "obs/analytics.h"
#include "obs/jsonv.h"
#include "obs/profile.h"
#include "obs/spiketrace.h"
#include "obs/wallprof.h"
#include "place/placement.h"
#include "util/flags.h"

namespace {

int run_wall(const std::string& path, bool json) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "compass_prof: cannot read " << path << "\n";
    return 2;
  }
  try {
    const compass::obs::WallReport report =
        compass::obs::analyze_wallprof(is);
    if (json) {
      compass::obs::write_wall_report_json(std::cout, report);
    } else {
      compass::obs::write_wall_report(std::cout, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "compass_prof: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

int run_spans(const std::string& path, bool json, int top_k,
              const std::string& flow_file) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "compass_prof: cannot read " << path << "\n";
    return 2;
  }
  try {
    const compass::obs::SpikeTraceAnalysis analysis =
        compass::obs::analyze_spike_trace(is);
    if (json) {
      compass::obs::write_span_report_json(std::cout, analysis);
    } else {
      compass::obs::write_span_report(std::cout, analysis, top_k);
    }
    if (!flow_file.empty()) {
      std::ofstream os(flow_file);
      if (!os) {
        std::cerr << "compass_prof: cannot write " << flow_file << "\n";
        return 2;
      }
      const std::uint64_t clipped =
          compass::obs::write_span_flow_trace(os, analysis);
      if (!json) {
        std::cout << "\nflow trace (open in Perfetto / chrome://tracing) "
                     "written to "
                  << flow_file << "\n";
      }
      if (clipped > 0) {
        std::cerr << "compass_prof: WARNING: flow trace clipped at its record "
                     "cap; "
                  << clipped << " chain(s) omitted\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "compass_prof: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

/// Offline analytics re-derivation: rebuild the engine from the capture's
/// config header, replay the recorded raster through it, and compare every
/// re-derived line byte-for-byte against the capture.
int run_analytics(const std::string& analytics_path,
                  const std::string& raster_path, bool json) {
  namespace jsonv = compass::obs::jsonv;
  std::ifstream is(analytics_path);
  if (!is) {
    std::cerr << "compass_prof: cannot read " << analytics_path << "\n";
    return 2;
  }
  std::vector<std::string> recorded;
  for (std::string line; std::getline(is, line);) {
    if (!line.empty()) recorded.push_back(line);
  }
  if (recorded.empty()) {
    std::cerr << "compass_prof: " << analytics_path
              << " holds no analytics records\n";
    return 2;
  }
  try {
    // Line 1 must be the config header; it carries everything needed to
    // rebuild an identical engine (the engine keeps no per-rank state, so
    // the replay passes one rank).
    const jsonv::JsonValue header = jsonv::JsonParser(recorded[0]).parse();
    const jsonv::JsonValue* type = header.find("type");
    if (type == nullptr || type->string != "analytics_config") {
      std::cerr << "compass_prof: " << analytics_path
                << " does not start with an analytics_config header\n";
      return 2;
    }
    compass::obs::AnalyticsOptions opt;
    opt.window_ticks = jsonv::get_u64(header, "window_ticks", 1);
    opt.sample_every = jsonv::get_u64(header, "sample_every", 1);
    opt.seed = jsonv::get_u64(header, "seed", 1);
    opt.updown_frac = jsonv::get_num(header, "updown_frac", 1);
    const std::uint64_t cores = jsonv::get_u64(header, "cores", 1);
    std::vector<std::uint32_t> core_region;
    if (const jsonv::JsonValue* cr = header.find("core_region");
        cr != nullptr && cr->kind == jsonv::JsonValue::Kind::kArray) {
      core_region.reserve(cr->array.size());
      for (const jsonv::JsonValue& v : cr->array) {
        core_region.push_back(static_cast<std::uint32_t>(v.integer));
      }
    }

    // The recorded windows bound the tick range the engine actually saw:
    // replay must drive silent ticks too (they extend windows), through the
    // last recorded window's end.
    std::uint64_t total_ticks = 0;
    for (std::size_t i = 1; i < recorded.size(); ++i) {
      const jsonv::JsonValue w = jsonv::JsonParser(recorded[i]).parse();
      const std::uint64_t end = jsonv::get_u64(w, "first_tick", i + 1) +
                                jsonv::get_u64(w, "ticks", i + 1);
      total_ticks = std::max(total_ticks, end);
    }

    compass::io::Raster raster = compass::io::Raster::load(raster_path);
    std::vector<compass::io::RasterEvent> events = raster.events();
    std::stable_sort(events.begin(), events.end(),
                     [](const compass::io::RasterEvent& a,
                        const compass::io::RasterEvent& b) {
                       return a.tick < b.tick;
                     });

    compass::obs::AnalyticsEngine engine(
        /*ranks=*/1, static_cast<std::uint32_t>(cores), std::move(core_region),
        opt);
    compass::obs::TraceBuffer derived;
    engine.add_sink(&derived);
    std::size_t next = 0;
    for (std::uint64_t tick = 0; tick < total_ticks; ++tick) {
      engine.begin_tick(tick);
      while (next < events.size() && events[next].tick == tick) {
        engine.on_fire(events[next].core, events[next].neuron);
        ++next;
      }
      engine.end_tick();
    }
    engine.flush();

    // Byte-for-byte comparison, config header included.
    std::uint64_t mismatches = 0;
    std::size_t first_mismatch = 0;
    const std::size_t derived_count = derived.analytics().size();
    const std::size_t common = std::min(recorded.size(), derived_count);
    for (std::size_t i = 0; i < common; ++i) {
      if (derived.analytics()[i].json != recorded[i]) {
        if (mismatches == 0) first_mismatch = i;
        ++mismatches;
      }
    }
    if (recorded.size() != derived_count) {
      if (mismatches == 0) first_mismatch = common;
      mismatches += (recorded.size() > derived_count ? recorded.size() : derived_count) - common;
    }
    const bool match = mismatches == 0;
    if (json) {
      std::cout << "{\"analytics_replay\":{\"recorded_lines\":"
                << recorded.size() << ",\"derived_lines\":" << derived_count
                << ",\"windows\":" << engine.windows_emitted()
                << ",\"spikes\":" << engine.total_spikes()
                << ",\"ticks\":" << total_ticks
                << ",\"mismatched_lines\":" << mismatches
                << ",\"match\":" << (match ? "true" : "false") << "}}\n";
    } else {
      std::cout << "analytics replay: " << raster_path << " ("
                << events.size() << " spikes, " << total_ticks
                << " ticks) through the engine of " << analytics_path << "\n"
                << "  windows re-derived   " << engine.windows_emitted()
                << "\n"
                << "  recorded lines       " << recorded.size() << "\n"
                << "  byte-identical       " << (match ? "yes" : "NO") << "\n";
    }
    if (!match) {
      std::cerr << "compass_prof: re-derivation DIFFERS from the recording ("
                << mismatches << " line(s), first at line "
                << (first_mismatch + 1) << ")\n";
      if (first_mismatch < recorded.size()) {
        std::cerr << "  recorded: " << recorded[first_mismatch] << "\n";
      }
      if (first_mismatch < derived_count) {
        std::cerr << "  derived:  " << derived.analytics()[first_mismatch].json
                  << "\n";
      }
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "compass_prof: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string what_if;
  std::string flow_file;
  bool json = false;
  bool spans = false;
  bool wall = false;
  bool analytics = false;
  std::string raster_file;
  int top_k = 5;
  using compass::util::Flag;
  compass::util::Flags flags(
      "compass_prof",
      "usage: compass_prof <trace.jsonl> [--json] [--top K] "
      "[--what-if placement]\n"
      "       compass_prof --spans <spans.jsonl> [--json] [--top K] "
      "[--flow out.json]\n"
      "       compass_prof --wall <wallprof.jsonl> [--json]\n"
      "       compass_prof --analytics <analytics.jsonl> --raster <raster> "
      "[--json]\n"
      "  analyze a Compass --trace-out JSONL capture\n",
      {
          Flag::toggle("--json", json,
                       "machine-readable report (one JSON object)"),
          Flag::u64("--top", top_k, 1, INT_MAX,
                    "rows in the heaviest-ranks table"),
          Flag::text("--what-if", what_if, "F",
                     "rescore the measured comm matrix under the rank->node "
                     "embedding of placement file F"),
          Flag::toggle("--spans", spans,
                       "input is a --spike-trace-out capture: stitch the "
                       "causal spike chains and report per-hop latencies"),
          Flag::text("--flow", flow_file, "F",
                     "with --spans: write a Chrome trace with flow arrows "
                     "per sampled spike (open in Perfetto)"),
          Flag::toggle("--wall", wall,
                       "input is a --wallprof-out capture: each phase's "
                       "share of tick wall, parallel efficiency, "
                       "wall-vs-virtual divergence, kernel mix, RSS"),
          Flag::toggle("--analytics", analytics,
                       "input is an --analytics-out capture: replay the "
                       "--raster through a rebuilt engine and verify every "
                       "line byte-for-byte"),
          Flag::text("--raster", raster_file, "F",
                     "with --analytics: the spike raster recorded by the "
                     "same run"),
      });
  flags.positionals(paths, 1).parse_or_exit(argc, argv);
  if (paths.empty()) {
    flags.usage(std::cerr);
    return 1;
  }
  const std::string& path = paths[0];
  if (!flow_file.empty() && !spans) {
    std::cerr << "compass_prof: --flow only applies to --spans input\n";
    return 1;
  }
  if (analytics) {
    if (spans || wall || !what_if.empty()) {
      std::cerr << "compass_prof: --analytics is exclusive with --spans, "
                   "--wall, and --what-if\n";
      return 1;
    }
    if (raster_file.empty()) {
      std::cerr << "compass_prof: --analytics requires --raster (the spike "
                   "raster recorded by the same run)\n";
      return 1;
    }
    return run_analytics(path, raster_file, json);
  }
  if (!raster_file.empty()) {
    std::cerr << "compass_prof: --raster only applies to --analytics input\n";
    return 1;
  }
  if (wall) {
    if (spans || !what_if.empty()) {
      std::cerr << "compass_prof: --wall is exclusive with --spans and "
                   "--what-if\n";
      return 1;
    }
    return run_wall(path, json);
  }
  if (spans) {
    if (!what_if.empty()) {
      std::cerr << "compass_prof: --what-if only applies to trace input\n";
      return 1;
    }
    return run_spans(path, json, top_k, flow_file);
  }

  std::ifstream is(path);
  if (!is) {
    std::cerr << "compass_prof: cannot read " << path << "\n";
    return 2;
  }
  try {
    const compass::obs::TraceProfile profile =
        compass::obs::analyze_trace(is);
    if (json) {
      compass::obs::write_trace_report_json(std::cout, profile);
    } else {
      compass::obs::write_trace_report(std::cout, profile, top_k);
    }

    if (!what_if.empty()) {
      if (!profile.has_profile) {
        std::cerr << "compass_prof: trace has no profile record; re-run with "
                     "--profile-out to capture the comm matrix\n";
        return 2;
      }
      const compass::place::Placement placement =
          compass::place::load_placement_file(what_if);
      if (placement.partition.ranks() != profile.matrix.ranks()) {
        std::cerr << "compass_prof: placement has "
                  << placement.partition.ranks() << " ranks, trace has "
                  << profile.matrix.ranks() << "\n";
        return 2;
      }
      const compass::comm::TorusTopology topo(placement.torus_dims);
      const std::vector<int> baseline = compass::place::identity_node_map(
          profile.matrix.ranks(), placement.ranks_per_node, topo.nodes());
      const compass::place::PlacementScore base =
          compass::place::evaluate_comm_matrix(profile.matrix, baseline,
                                               &topo);
      const compass::place::PlacementScore hypo =
          compass::place::evaluate_comm_matrix(
              profile.matrix, placement.node_of_rank, &topo);
      const double gain =
          base.objective > 0.0
              ? 100.0 * (base.objective - hypo.objective) / base.objective
              : 0.0;
      if (json) {
        std::cout << "\n{\"what_if\":{\"placement\":\"" << placement.policy
                  << "\",\"off_diag_bytes\":" << hypo.off_diag_weight
                  << ",\"baseline_hop_weighted\":" << base.objective
                  << ",\"hop_weighted\":" << hypo.objective
                  << ",\"gain_pct\":" << gain << "}}\n";
      } else {
        std::cout << "\nwhat-if (" << placement.policy << " embedding, torus "
                  << topo.dims()[0] << "x" << topo.dims()[1] << "x"
                  << topo.dims()[2] << "x" << topo.dims()[3] << "x"
                  << topo.dims()[4] << "):\n"
                  << "  off-diagonal wire bytes     " << hypo.off_diag_weight
                  << "\n"
                  << "  hop-weighted bytes baseline " << base.objective << "\n"
                  << "  hop-weighted bytes what-if  " << hypo.objective << "\n"
                  << "  improvement                 " << gain << "%\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "compass_prof: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
