// Streaming spike-analytics lockdown suite (`ctest -L obs-analytics`).
//
// Three layers of contract:
//
//   1. Unit — the statistics themselves on synthetic spike streams with
//      hand-computable answers: Welford vs a direct two-pass variance, the
//      Goertzel band power peaking at the stimulus frequency, zero ISI CV
//      for a metronome neuron, the Up/Down detector on a square wave, and
//      the purity of the sampling hash.
//
//   2. Model — byte-identity of every emitted JSONL line across MPI/PGAS
//      transports, serial/parallel execution, and OpenMP thread widths for
//      a fixed seeded macaque model; the no-observer-effect guarantee that
//      attaching an engine leaves the main trace byte-identical; an engine
//      must cover the model's cores to attach; exact
//      offline re-derivation of every window from the recorded fired-spike
//      stream (the library-level form of `compass_prof --analytics`).
//
//   3. Golden — the committed tests/data/golden_analytics.jsonl pins the
//      serialization: any change to a formula, a field, or the shortest-
//      round-trip double writer shows up as a diff here. Regenerate with
//
//        COMPASS_REGOLDEN=1 ./build/tests/test_analytics
//
//      and commit the rewritten file together with the change that
//      intentionally moved it.
#include <gtest/gtest.h>
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "comm/mpi_transport.h"
#include "compiler/pcc.h"
#include "macaque_fixture.h"
#include "obs/analytics.h"
#include "obs/jsonv.h"
#include "obs/trace.h"
#include "runtime/compass.h"

#ifndef COMPASS_TEST_DATA_DIR
#error "COMPASS_TEST_DATA_DIR must be defined by the build"
#endif

namespace compass {
namespace {

using comm::TransportKind;
using testing::compile_macaque;

using obs::AnalyticsEngine;
using obs::AnalyticsOptions;
using obs::Band;
using obs::jsonv::JsonParser;
using obs::jsonv::JsonValue;
using obs::TraceBuffer;

// --- helpers -----------------------------------------------------------------

/// Drive a single-rank, single-region engine with `counts[t]` fires per
/// tick (neuron j of core 0 fires when j < counts[t], matching the
/// at-most-once-per-tick discipline of a real neuron). Returns the
/// buffered records after flush().
TraceBuffer drive_counts(const std::vector<std::uint64_t>& counts,
                         AnalyticsOptions opt) {
  AnalyticsEngine engine(1, 1, {}, opt);
  TraceBuffer buf;
  engine.add_sink(&buf);
  for (std::size_t t = 0; t < counts.size(); ++t) {
    engine.begin_tick(t);
    for (std::uint64_t j = 0; j < counts[t]; ++j) {
      engine.on_fire(0, static_cast<unsigned>(j));
    }
    engine.end_tick();
  }
  engine.flush();
  return buf;
}

/// Parse the first *window* record (skipping the config header) of a
/// buffered run.
JsonValue first_window(const TraceBuffer& buf) {
  for (const auto& rec : buf.analytics()) {
    if (rec.ticks == 0) continue;  // config header
    return JsonParser(rec.json).parse();
  }
  ADD_FAILURE() << "no window record emitted";
  return {};
}

double num(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  EXPECT_NE(f, nullptr) << "missing field " << key;
  return f != nullptr ? f->number : 0.0;
}

std::uint64_t u64(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  EXPECT_NE(f, nullptr) << "missing field " << key;
  return f != nullptr ? f->integer : 0;
}

/// All emitted JSONL lines of a buffered run, newline-joined — the byte
/// string every identity assertion below compares.
std::string joined_lines(const TraceBuffer& buf) {
  std::string out;
  for (const auto& rec : buf.analytics()) {
    out += rec.json;
    out += '\n';
  }
  return out;
}

// --- 1. unit: the statistics on synthetic streams ---------------------------

TEST(AnalyticsUnit, WelfordMatchesDirectTwoPassVariance) {
  const std::vector<std::uint64_t> counts = {3, 7, 0, 12, 5, 5, 9, 1,
                                             0, 14, 2, 8, 6, 3, 11, 4};
  AnalyticsOptions opt;
  opt.window_ticks = counts.size();
  const TraceBuffer buf = drive_counts(counts, opt);
  const JsonValue w = first_window(buf);
  const JsonValue* pop = w.find("pop");
  ASSERT_NE(pop, nullptr);

  double mean = 0.0;
  for (const std::uint64_t c : counts) mean += static_cast<double>(c);
  mean /= static_cast<double>(counts.size());
  double ss = 0.0;
  for (const std::uint64_t c : counts) {
    const double d = static_cast<double>(c) - mean;
    ss += d * d;
  }
  const double var = ss / static_cast<double>(counts.size() - 1);

  EXPECT_EQ(u64(w, "spikes"), 90u);
  EXPECT_NEAR(num(*pop, "mean"), mean, 1e-12);
  EXPECT_NEAR(num(*pop, "var"), var, 1e-9);
  EXPECT_NEAR(num(*pop, "fano"), var / mean, 1e-9);
  // 1 tick == 1 ms: rate_hz = mean count * 1000 / (cores * 256 neurons).
  EXPECT_NEAR(num(*pop, "rate_hz"), mean * 1000.0 / 256.0, 1e-9);
}

TEST(AnalyticsUnit, GoertzelBandPowerPeaksAtStimulusFrequency) {
  // A 40 Hz impulse train (one burst every 25 ticks at the 1 kHz tick
  // rate): all of its spectral lines sit at multiples of 40 Hz, so the
  // gamma bin must dominate every lower band.
  std::vector<std::uint64_t> counts(100, 0);
  for (std::size_t t = 0; t < counts.size(); t += 25) counts[t] = 200;
  AnalyticsOptions opt;
  opt.window_ticks = counts.size();
  const TraceBuffer buf = drive_counts(counts, opt);
  const JsonValue w = first_window(buf);
  const JsonValue* bands = w.find("bands");
  ASSERT_NE(bands, nullptr);
  const double gamma = num(*bands, "gamma");
  EXPECT_GT(gamma, 0.0);
  for (const char* other : {"delta", "theta", "alpha", "beta"}) {
    EXPECT_GT(gamma, 10.0 * num(*bands, other)) << "band " << other;
  }
}

TEST(AnalyticsUnit, MetronomeNeuronHasZeroIsiCv) {
  // One neuron firing every 5 ticks: 13 fires in [0, 60], 12 intervals,
  // every one of them exactly 5 → mean 5, CV 0. sample_every = 1 tracks
  // every neuron, so the metronome is certainly in the sampled set.
  std::vector<std::uint64_t> counts(64, 0);
  for (std::size_t t = 0; t < counts.size(); t += 5) counts[t] = 1;
  AnalyticsOptions opt;
  opt.window_ticks = counts.size();
  opt.sample_every = 1;
  const TraceBuffer buf = drive_counts(counts, opt);
  const JsonValue w = first_window(buf);
  const JsonValue* isi = w.find("isi");
  ASSERT_NE(isi, nullptr);
  EXPECT_EQ(u64(*isi, "neurons"), 1u);
  EXPECT_EQ(u64(*isi, "intervals"), 12u);
  EXPECT_DOUBLE_EQ(num(*isi, "mean"), 5.0);
  EXPECT_DOUBLE_EQ(num(*isi, "cv"), 0.0);
  // bit_width(5) == 3: all 12 intervals land in histogram bucket 3.
  const JsonValue* hist = isi->find("hist");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->array.size(), 4u);
  EXPECT_EQ(hist->array[3].integer, 12u);
}

TEST(AnalyticsUnit, UpDownDetectorCountsStatesAndTransitions) {
  // Square wave: 10 Up ticks at 100 spikes, 10 Down at 0, twice over.
  // Threshold = 0.5 * peak = 50 → 20 Up, 20 Down, 3 flips.
  std::vector<std::uint64_t> counts(40, 0);
  for (std::size_t t = 0; t < counts.size(); ++t) {
    if ((t / 10) % 2 == 0) counts[t] = 100;
  }
  AnalyticsOptions opt;
  opt.window_ticks = counts.size();
  const TraceBuffer buf = drive_counts(counts, opt);
  const JsonValue w = first_window(buf);
  const JsonValue* ud = w.find("updown");
  ASSERT_NE(ud, nullptr);
  EXPECT_DOUBLE_EQ(num(*ud, "threshold"), 50.0);
  EXPECT_EQ(u64(*ud, "up_ticks"), 20u);
  EXPECT_EQ(u64(*ud, "down_ticks"), 20u);
  EXPECT_EQ(u64(*ud, "transitions"), 3u);
}

TEST(AnalyticsUnit, SamplingIsAPureFunctionOfNeuronIdentity) {
  // sampled() must implement H = SplitMix64(seed ^ pack(core, neuron)),
  // sampled <=> H % sample_every == 0 — the formula the offline replay and
  // both transports rely on to track the same neuron set.
  AnalyticsOptions opt;
  opt.sample_every = 16;
  AnalyticsEngine engine(1, 8, {}, opt);
  std::uint64_t hits = 0;
  for (std::uint32_t core = 0; core < 8; ++core) {
    for (unsigned j = 0; j < arch::kNeuronsPerCore; ++j) {
      const bool want =
          AnalyticsEngine::sample_hash(opt.seed, core, j) % 16 == 0;
      EXPECT_EQ(engine.sampled(core, j), want);
      hits += want ? 1u : 0u;
    }
  }
  // ~1/16 of 2048 neurons; a loose band catches a broken hash.
  EXPECT_GT(hits, 64u);
  EXPECT_LT(hits, 256u);

  // And the precomputed fast path agrees with the formula: the same
  // synthetic stream produces identical bytes from two engines built with
  // the same options.
  std::vector<std::uint64_t> counts(32, 5);
  const std::string a = joined_lines(drive_counts(counts, opt));
  const std::string b = joined_lines(drive_counts(counts, opt));
  EXPECT_EQ(a, b);
}

TEST(AnalyticsUnit, ConfigHeaderIsEmittedOnceBeforeFirstWindow) {
  AnalyticsOptions opt;
  opt.window_ticks = 4;
  const TraceBuffer buf = drive_counts({1, 2, 3, 4, 5, 6, 7, 8}, opt);
  ASSERT_EQ(buf.analytics().size(), 3u);  // header + two windows
  EXPECT_EQ(buf.analytics()[0].ticks, 0u);
  EXPECT_NE(buf.analytics()[0].json.find("\"type\":\"analytics_config\""),
            std::string::npos);
  EXPECT_EQ(buf.analytics()[1].window, 0u);
  EXPECT_EQ(buf.analytics()[2].window, 1u);
  EXPECT_EQ(buf.analytics()[2].first_tick, 4u);
}

// --- 2. model: byte-identity across the execution matrix --------------------

constexpr arch::Tick kModelTicks = 50;  // 3 full windows of 16 + a partial

std::vector<std::uint32_t> region_map(const compiler::PccResult& pcc) {
  std::vector<std::uint32_t> core_region(pcc.model.num_cores(), 0);
  for (std::size_t g = 0; g < pcc.regions.size(); ++g) {
    const compiler::RegionInfo& r = pcc.regions[g];
    for (std::int64_t c = 0; c < r.cores; ++c) {
      core_region[static_cast<std::size_t>(r.first_core) +
                  static_cast<std::size_t>(c)] = static_cast<std::uint32_t>(g);
    }
  }
  return core_region;
}

struct ModelRun {
  runtime::RunReport report;
  std::string analytics_jsonl;  // every emitted line, run(…) flushes
  std::string trace_jsonl;      // the main span/tick trace
};

ModelRun run_model(const compiler::PccResult& pcc, TransportKind kind,
                   bool parallel, bool with_analytics) {
  arch::Model model = pcc.model;
  const auto transport = comm::make_transport(kind, pcc.partition.ranks());
  runtime::Config cfg;
  cfg.parallel_execution = parallel;
  cfg.measure = false;
  runtime::Compass sim(model, pcc.partition, *transport, cfg);

  std::ostringstream os;
  obs::JsonlTraceWriter writer(os, obs::JsonlOptions{.include_measured = false});
  sim.add_trace_sink(&writer);

  std::optional<AnalyticsEngine> engine;
  TraceBuffer buf;
  if (with_analytics) {
    AnalyticsOptions opt;
    opt.window_ticks = 16;
    engine.emplace(pcc.partition.ranks(),
                   static_cast<std::uint32_t>(pcc.model.num_cores()),
                   region_map(pcc), opt);
    engine->add_sink(&buf);
    sim.set_analytics(&*engine);
  }

  ModelRun out;
  out.report = sim.run(kModelTicks);
  out.analytics_jsonl = joined_lines(buf);
  out.trace_jsonl = os.str();
  return out;
}

TEST(AnalyticsModel, AttachedEngineLeavesMainTraceByteIdentical) {
  // The no-observer-effect half of the acceptance criterion: the spans,
  // tick records, and run report of an instrumented run are byte-for-byte
  // the bytes of a bare run.
  const compiler::PccResult pcc = compile_macaque();
  const ModelRun bare = run_model(pcc, TransportKind::kMpi, false, false);
  const ModelRun instrumented =
      run_model(pcc, TransportKind::kMpi, false, true);
  EXPECT_EQ(bare.trace_jsonl, instrumented.trace_jsonl);
  testing::expect_reports_equal(bare.report, instrumented.report,
                                /*virtual_time=*/true);
  EXPECT_TRUE(bare.analytics_jsonl.empty());
  EXPECT_FALSE(instrumented.analytics_jsonl.empty());
}

TEST(AnalyticsModel, AttachRequiresTheModelsCoreCount) {
  // on_fire indexes the region map and the sampling bitmap by core id, so an
  // engine built for fewer cores than the model would read past their ends.
  // The rank count does not matter: the engine keeps no per-rank state.
  const compiler::PccResult pcc = compile_macaque();
  arch::Model model = pcc.model;
  comm::MpiTransport transport(pcc.partition.ranks());
  runtime::Compass sim(model, pcc.partition, transport);
  const auto cores = static_cast<std::uint32_t>(pcc.model.num_cores());
  AnalyticsEngine fewer(pcc.partition.ranks(), cores - 1, {});
  AnalyticsEngine more(pcc.partition.ranks(), cores + 1, {});
  EXPECT_THROW(sim.set_analytics(&fewer), std::invalid_argument);
  EXPECT_THROW(sim.set_analytics(&more), std::invalid_argument);
  AnalyticsEngine one_rank(1, cores, {});
  EXPECT_NO_THROW(sim.set_analytics(&one_rank));
}

TEST(AnalyticsModel, ByteIdenticalAcrossTransportsAndParallelism) {
  const compiler::PccResult pcc = compile_macaque();
  const ModelRun baseline = run_model(pcc, TransportKind::kMpi, false, true);
  ASSERT_FALSE(baseline.analytics_jsonl.empty());
  // Header + 3 full windows + the flushed partial.
  EXPECT_EQ(std::count(baseline.analytics_jsonl.begin(),
                       baseline.analytics_jsonl.end(), '\n'),
            5);
  {
    SCOPED_TRACE("MPI parallel");
    EXPECT_EQ(run_model(pcc, TransportKind::kMpi, true, true).analytics_jsonl,
              baseline.analytics_jsonl);
  }
  {
    SCOPED_TRACE("PGAS serial");
    EXPECT_EQ(run_model(pcc, TransportKind::kPgas, false, true).analytics_jsonl,
              baseline.analytics_jsonl);
  }
  {
    SCOPED_TRACE("PGAS parallel");
    EXPECT_EQ(run_model(pcc, TransportKind::kPgas, true, true).analytics_jsonl,
              baseline.analytics_jsonl);
  }
}

TEST(AnalyticsModel, ByteIdenticalAcrossOmpThreadWidths) {
#ifndef COMPASS_HAVE_OPENMP
  GTEST_SKIP() << "built without OpenMP; thread-width sweep not applicable";
#endif
  const compiler::PccResult pcc = compile_macaque();
  const ModelRun baseline = [&] {
    const testing::OmpWidth width(1);
    return run_model(pcc, TransportKind::kMpi, true, true);
  }();
  for (const int threads : {2, 4}) {
    const testing::OmpWidth width(threads);
    SCOPED_TRACE("OMP threads = " + std::to_string(threads));
    for (const TransportKind kind : testing::kTransports) {
      EXPECT_EQ(run_model(pcc, kind, true, true).analytics_jsonl,
                baseline.analytics_jsonl);
    }
  }
}

TEST(AnalyticsModel, OfflineReplayRederivesEveryWindowExactly) {
  // Record the fired-spike stream (spike hook — the same stream a raster
  // file captures and the same stream the engine counts), then replay it
  // through a fresh single-rank engine: every line must come back
  // byte-for-byte. This is the library-level form of
  //   compass_prof --analytics <jsonl> --raster <rst>
  const compiler::PccResult pcc = compile_macaque();

  arch::Model model = pcc.model;
  comm::MpiTransport transport(pcc.partition.ranks());
  runtime::Config cfg;
  cfg.measure = false;
  cfg.parallel_execution = false;
  runtime::Compass sim(model, pcc.partition, transport, cfg);

  std::vector<std::tuple<arch::Tick, arch::CoreId, unsigned>> fires;
  sim.set_spike_hook([&fires](arch::Tick t, arch::CoreId c, unsigned j) {
    fires.emplace_back(t, c, j);
  });

  AnalyticsOptions opt;
  opt.window_ticks = 16;
  AnalyticsEngine live(pcc.partition.ranks(),
                       static_cast<std::uint32_t>(pcc.model.num_cores()),
                       region_map(pcc), opt);
  TraceBuffer live_buf;
  live.add_sink(&live_buf);
  sim.set_analytics(&live);
  sim.run(kModelTicks);
  ASSERT_FALSE(fires.empty());

  // Replay: the engine keeps no per-rank state, so the offline pass uses 1
  // rank.
  AnalyticsEngine replay(1, static_cast<std::uint32_t>(pcc.model.num_cores()),
                         region_map(pcc), opt);
  TraceBuffer replay_buf;
  replay.add_sink(&replay_buf);
  std::size_t next = 0;
  for (arch::Tick t = 0; t < kModelTicks; ++t) {
    replay.begin_tick(t);
    while (next < fires.size() && std::get<0>(fires[next]) == t) {
      replay.on_fire(std::get<1>(fires[next]), std::get<2>(fires[next]));
      ++next;
    }
    replay.end_tick();
  }
  replay.flush();

  EXPECT_EQ(joined_lines(replay_buf), joined_lines(live_buf));
}

// --- 3. golden ---------------------------------------------------------------

std::string golden_path() {
  return std::string(COMPASS_TEST_DATA_DIR) + "/golden_analytics.jsonl";
}

TEST(AnalyticsGolden, WindowsMatchCommittedJsonl) {
  const compiler::PccResult pcc = compile_macaque();
  const std::string actual =
      run_model(pcc, TransportKind::kMpi, false, true).analytics_jsonl;

  if (std::getenv("COMPASS_REGOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << actual;
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << golden_path()
      << " — regenerate with COMPASS_REGOLDEN=1 (see file header)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str());
}

}  // namespace
}  // namespace compass
