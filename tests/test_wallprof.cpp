// Wall-clock observability plane lockdown (`ctest -L obs-wall`).
//
// Three contracts:
//   * Aggregation math (WallPhaseStats, TickRateWindow, the progress-line
//     formatter) is exact and deterministic — driven with synthetic clocks,
//     no real timers.
//   * Attaching a WallProfiler never perturbs the functional output: the
//     determinism suite's byte-identity comparison must hold between a
//     profiled and an unprofiled run, across transports and the parallel
//     rank loop.
//   * The real-timer path round-trips: a profiled run writes a summary that
//     analyze_wallprof parses back to the same totals, and the measured
//     instrumentation cost stays a small fraction of the run it measures
//     (generous bound — CI machines are noisy, the 2% target is enforced on
//     bench_headline where ticks are long enough to average).
#include <gtest/gtest.h>

#ifdef COMPASS_HAVE_OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "arch/kernels.h"
#include "comm/mpi_transport.h"
#include "comm/pgas_transport.h"
#include "compiler/pcc.h"
#include "macaque_fixture.h"
#include "obs/trace.h"
#include "obs/wallprof.h"
#include "resilience/fault.h"
#include "runtime/compass.h"
#include "util/stopwatch.h"

namespace compass {
namespace {

using testing::compile_macaque;

// --- WallPhaseStats ---------------------------------------------------------

TEST(WallPhaseStats, ObserveTracksMinMeanMax) {
  obs::WallPhaseStats s;
  s.observe(2e-3);
  s.observe(4e-3);
  s.observe(6e-3);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.total_s, 12e-3);
  EXPECT_DOUBLE_EQ(s.min_s, 2e-3);
  EXPECT_DOUBLE_EQ(s.max_s, 6e-3);
  EXPECT_DOUBLE_EQ(s.mean_s(), 4e-3);
}

TEST(WallPhaseStats, HistogramBucketsArePowerOfTwoMicroseconds) {
  obs::WallPhaseStats s;
  s.observe(0.5e-6);   // sub-microsecond -> bucket 0
  s.observe(1.5e-6);   // 1 us -> bit_width(1) = 1
  s.observe(3e-6);     // 3 us -> bit_width(3) = 2
  s.observe(100e-6);   // 100 us -> bit_width(100) = 7
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[7], 1u);
  std::uint64_t total = 0;
  for (const std::uint64_t b : s.buckets) total += b;
  EXPECT_EQ(total, s.count);
}

TEST(WallPhaseStats, MergeCombinesEverything) {
  obs::WallPhaseStats a, b;
  a.observe(1e-3);
  a.observe(5e-3);
  b.observe(2e-3);
  b.observe(9e-3);
  a.merge(b);
  EXPECT_EQ(a.count, 4u);
  EXPECT_DOUBLE_EQ(a.total_s, 17e-3);
  EXPECT_DOUBLE_EQ(a.min_s, 1e-3);
  EXPECT_DOUBLE_EQ(a.max_s, 9e-3);
}

TEST(WallPhaseStats, MergeIntoEmptyTakesOtherMin) {
  obs::WallPhaseStats a, b;
  b.observe(3e-3);
  a.merge(b);
  EXPECT_EQ(a.count, 1u);
  EXPECT_DOUBLE_EQ(a.min_s, 3e-3);
}

// --- TickRateWindow ---------------------------------------------------------

TEST(TickRateWindow, ZeroUntilTwoSamples) {
  obs::TickRateWindow w(8);
  EXPECT_DOUBLE_EQ(w.ticks_per_second(), 0.0);
  w.add(1, 0.1);
  EXPECT_DOUBLE_EQ(w.ticks_per_second(), 0.0);
  w.add(2, 0.2);
  EXPECT_NEAR(w.ticks_per_second(), 10.0, 1e-9);
}

TEST(TickRateWindow, RateSpansTheWholeWindow) {
  obs::TickRateWindow w(4);
  // 1 tick per 0.5 s, constant.
  for (std::uint64_t t = 1; t <= 10; ++t) {
    w.add(t, 0.5 * static_cast<double>(t));
  }
  EXPECT_EQ(w.size(), 4u);
  EXPECT_NEAR(w.ticks_per_second(), 2.0, 1e-9);
}

TEST(TickRateWindow, WindowForgetsOldRates) {
  obs::TickRateWindow w(3);
  // Slow start, then 100 ticks/s; once the slow samples rotate out the
  // estimate must reflect only the fast regime.
  w.add(1, 1.0);
  w.add(2, 2.0);
  w.add(3, 2.01);
  w.add(4, 2.02);
  w.add(5, 2.03);
  EXPECT_NEAR(w.ticks_per_second(), 100.0, 1e-6);
}

TEST(TickRateWindow, ClearResets) {
  obs::TickRateWindow w(4);
  w.add(1, 0.1);
  w.add(2, 0.2);
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_DOUBLE_EQ(w.ticks_per_second(), 0.0);
}

// --- Progress formatting ----------------------------------------------------

TEST(ProgressLine, KnownSnapshotFormatsAllFields) {
  obs::ProgressSnapshot snap;
  snap.tick = 120;
  snap.total_ticks = 500;
  snap.ticks_per_second = 813.25;
  snap.eta_s = 0.47;
  snap.rss_bytes = 123u * 1024 * 1024;
  const std::string line = obs::format_progress_line(snap);
  EXPECT_NE(line.find("120/500"), std::string::npos) << line;
  EXPECT_NE(line.find("24.0%"), std::string::npos) << line;
  EXPECT_NE(line.find("ticks/s"), std::string::npos) << line;
  EXPECT_NE(line.find("ETA"), std::string::npos) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos) << "single line, no newline";
}

TEST(ProgressLine, UnknownTotalOmitsPercentAndEta) {
  obs::ProgressSnapshot snap;
  snap.tick = 7;
  snap.total_ticks = 0;
  snap.ticks_per_second = 5.0;
  const std::string line = obs::format_progress_line(snap);
  EXPECT_EQ(line.find('%'), std::string::npos) << line;
  EXPECT_EQ(line.find("ETA"), std::string::npos) << line;
}

TEST(ProgressMeter, ThrottlesToIntervalAndRewritesInPlace) {
  std::ostringstream os;
  obs::ProgressMeter meter(os, /*interval_s=*/1.0);
  // Ticks arrive every 0.25 s: only every 4th lands past the interval.
  for (std::uint64_t t = 1; t <= 16; ++t) {
    meter.update_at(t, 16, 0.25 * static_cast<double>(t));
  }
  EXPECT_GE(meter.lines_emitted(), 3u);
  EXPECT_LE(meter.lines_emitted(), 5u);
  const std::string out = os.str();
  EXPECT_EQ(out.find('\n'), std::string::npos)
      << "no newline before finish(): " << out;
  EXPECT_NE(out.find('\r'), std::string::npos);
  meter.finish();
  EXPECT_NE(os.str().find('\n'), std::string::npos);
}

TEST(ProgressMeter, FinishWithoutUpdatesEmitsNothing) {
  std::ostringstream os;
  obs::ProgressMeter meter(os);
  meter.finish();
  EXPECT_TRUE(os.str().empty());
}

// --- WallProfiler unit behavior ---------------------------------------------

TEST(WallProfiler, RejectsNonPositiveRankCount) {
  EXPECT_THROW(obs::WallProfiler(0), std::invalid_argument);
  EXPECT_THROW(obs::WallProfiler(-3), std::invalid_argument);
}

TEST(WallProfiler, AccumulatesPerRankAndGlobalPhases) {
  obs::WallProfiler prof(2);
  prof.record(0, obs::WallPhase::kSynapse, 1e-3);
  prof.record(1, obs::WallPhase::kSynapse, 3e-3);
  prof.record(0, obs::WallPhase::kNeuron, 2e-3);
  prof.add_virtual(0, obs::WallPhase::kSynapse, 10e-3);
  prof.record_global(obs::WallPhase::kCheckpoint, 7e-3);
  const obs::WallprofSummary sum = prof.summary();
  EXPECT_DOUBLE_EQ(sum.phase_wall_s(obs::WallPhase::kSynapse), 4e-3);
  EXPECT_DOUBLE_EQ(sum.phase_wall_s(obs::WallPhase::kNeuron), 2e-3);
  EXPECT_DOUBLE_EQ(sum.phase_wall_s(obs::WallPhase::kCheckpoint), 7e-3);
  EXPECT_DOUBLE_EQ(sum.phase_virtual_s(obs::WallPhase::kSynapse), 10e-3);
  EXPECT_EQ(sum.ranks, 2);
  EXPECT_GT(prof.timer_ops(), 0u);
  EXPECT_GE(prof.overhead_s(), 0.0);
}

TEST(WallProfiler, TickLoopAdvancesCountAndWallTime) {
  obs::WallProfiler prof(1);
  for (std::uint64_t t = 0; t < 5; ++t) {
    prof.begin_tick();
    prof.end_tick(t);
  }
  EXPECT_EQ(prof.ticks(), 5u);
  EXPECT_GE(prof.wall_total_s(), 0.0);
  const obs::WallprofSummary sum = prof.summary();
  EXPECT_EQ(sum.ticks, 5u);
}

TEST(WallProfiler, HeartbeatCadenceEmitsRecords) {
  std::ostringstream os;
  obs::WallprofOptions opt;
  opt.heartbeat_every_ticks = 2;
  obs::WallProfiler prof(1, opt);
  prof.set_sink(&os);
  for (std::uint64_t t = 0; t < 6; ++t) {
    prof.begin_tick();
    prof.end_tick(t);
  }
  const std::string out = os.str();
  std::size_t beats = 0;
  for (std::size_t at = out.find("wallheartbeat"); at != std::string::npos;
       at = out.find("wallheartbeat", at + 1)) {
    ++beats;
  }
  EXPECT_EQ(beats, 3u);
  EXPECT_EQ(out.find("\"type\":\"wallprof\""), std::string::npos)
      << "summary only on write_summary()";
}

TEST(WallProfiler, SummaryJsonRoundTripsThroughAnalyzer) {
  std::ostringstream os;
  obs::WallprofOptions opt;
  opt.heartbeat_every_ticks = 2;
  obs::WallProfiler prof(2, opt);
  prof.set_sink(&os);
  for (std::uint64_t t = 0; t < 4; ++t) {
    prof.begin_tick();
    prof.record(0, obs::WallPhase::kSynapse, 1e-3);
    prof.record(1, obs::WallPhase::kNeuron, 2e-3);
    prof.add_virtual(1, obs::WallPhase::kNeuron, 4e-3);
    prof.end_tick(t);
  }
  prof.record_global(obs::WallPhase::kPccCompile, 0.5);
  obs::KernelDispatchCounts kc;
  kc.synapse_bitparallel = 17;
  kc.neuron_stoch_soa = 99;
  prof.note_kernel_counts(kc);
  prof.write_summary();

  std::istringstream is(os.str());
  const obs::WallReport report = obs::analyze_wallprof(is);
  ASSERT_TRUE(report.found);
  EXPECT_EQ(report.summary.ranks, 2);
  EXPECT_EQ(report.summary.ticks, 4u);
  EXPECT_EQ(report.heartbeats, 2u);
  EXPECT_DOUBLE_EQ(report.summary.phase_wall_s(obs::WallPhase::kSynapse),
                   4e-3);
  EXPECT_DOUBLE_EQ(report.summary.phase_wall_s(obs::WallPhase::kNeuron), 8e-3);
  EXPECT_DOUBLE_EQ(report.summary.phase_virtual_s(obs::WallPhase::kNeuron),
                   16e-3);
  EXPECT_DOUBLE_EQ(report.summary.phase_wall_s(obs::WallPhase::kPccCompile),
                   0.5);
  EXPECT_EQ(report.summary.kernels.synapse_bitparallel, 17u);
  EXPECT_EQ(report.summary.kernels.neuron_stoch_soa, 99u);
  // The analyzer's reports must render without throwing.
  std::ostringstream text, json;
  obs::write_wall_report(text, report);
  obs::write_wall_report_json(json, report);
  EXPECT_NE(text.str().find("wall-clock profile"), std::string::npos);
  EXPECT_NE(json.str().find("\"wallprof\""), std::string::npos);
}

TEST(WallProfiler, AnalyzerRejectsCaptureWithoutSummary) {
  std::istringstream empty("");
  EXPECT_THROW(obs::analyze_wallprof(empty), std::runtime_error);
  std::istringstream beats_only(
      "{\"type\":\"wallheartbeat\",\"tick\":1,\"ticks\":2,\"wall_s\":0.1,"
      "\"ticks_per_second\":20,\"rss_bytes\":0}\n");
  EXPECT_THROW(obs::analyze_wallprof(beats_only), std::runtime_error);
}

// --- Integration with the simulator ----------------------------------------

struct TracedRun {
  runtime::RunReport report;
  std::string trace_jsonl;
  std::string wallprof_jsonl;  // empty when no profiler was attached
};

TracedRun run_once(const compiler::PccResult& pcc, bool with_wallprof,
                   bool use_pgas, bool parallel) {
  arch::Model model = pcc.model;
  std::unique_ptr<comm::Transport> transport;
  if (use_pgas) {
    transport = std::make_unique<comm::PgasTransport>(pcc.partition.ranks(),
                                                      comm::CommCostModel{});
  } else {
    transport = std::make_unique<comm::MpiTransport>(pcc.partition.ranks(),
                                                     comm::CommCostModel{});
  }
  runtime::Config cfg;
  cfg.parallel_execution = parallel;
  cfg.measure = false;  // modelled times only: the trace is reproducible
  runtime::Compass sim(model, pcc.partition, *transport, cfg);

  std::ostringstream trace_os;
  obs::JsonlTraceWriter writer(trace_os,
                               obs::JsonlOptions{.include_measured = false});
  sim.add_trace_sink(&writer);

  std::ostringstream wall_os;
  std::optional<obs::WallProfiler> wallprof;
  if (with_wallprof) {
    obs::WallprofOptions opt;
    opt.heartbeat_every_ticks = 8;
    wallprof.emplace(pcc.partition.ranks(), opt);
    wallprof->set_sink(&wall_os);
    sim.set_wall_profiler(&*wallprof);
  }

  TracedRun out;
  out.report = sim.run(40);
  if (wallprof) {
    wallprof->write_summary();
    out.wallprof_jsonl = wall_os.str();
  }
  out.trace_jsonl = trace_os.str();
  return out;
}

TEST(WallprofDeterminism, AttachedProfilerLeavesTraceByteIdentical) {
  const compiler::PccResult pcc = compile_macaque();
  for (const bool pgas : {false, true}) {
    for (const bool parallel : {false, true}) {
      const TracedRun plain = run_once(pcc, /*with_wallprof=*/false, pgas,
                                       parallel);
      const TracedRun profiled = run_once(pcc, /*with_wallprof=*/true, pgas,
                                          parallel);
      ASSERT_FALSE(plain.trace_jsonl.empty());
      EXPECT_EQ(plain.trace_jsonl, profiled.trace_jsonl)
          << "wallprof perturbed the functional trace (pgas=" << pgas
          << ", parallel=" << parallel << ")";
      EXPECT_EQ(plain.report.fired_spikes, profiled.report.fired_spikes);
      EXPECT_EQ(plain.report.wire_bytes, profiled.report.wire_bytes);
      EXPECT_FALSE(profiled.wallprof_jsonl.empty());
      EXPECT_EQ(plain.trace_jsonl.find("wallprof"), std::string::npos)
          << "wall records must never ride a trace sink";
    }
  }
}

TEST(WallprofIntegration, SimRunProducesAttributedSummary) {
  const compiler::PccResult pcc = compile_macaque();
  const TracedRun run = run_once(pcc, /*with_wallprof=*/true, /*use_pgas=*/false,
                                 /*parallel=*/false);
  std::istringstream is(run.wallprof_jsonl);
  const obs::WallReport report = obs::analyze_wallprof(is);
  ASSERT_TRUE(report.found);
  EXPECT_EQ(report.summary.ranks, 3);
  EXPECT_EQ(report.summary.ticks, 40u);
  EXPECT_GT(report.summary.wall_s, 0.0);
  EXPECT_GT(report.summary.ticks_per_second, 0.0);
  // Every tick crossed the compute phases: wall time must be attributed.
  EXPECT_GT(report.summary.phase_wall_s(obs::WallPhase::kSynapse), 0.0);
  EXPECT_GT(report.summary.phase_wall_s(obs::WallPhase::kNeuron), 0.0);
  EXPECT_GT(report.summary.phase_wall_s(obs::WallPhase::kExchange), 0.0);
  // Modelled comm charges flow in as virtual seconds even with measure off.
  EXPECT_GT(report.summary.phase_virtual_s(obs::WallPhase::kSend), 0.0);
  // The simulator reported the kernel-dispatch delta for the run.
  const obs::KernelDispatchCounts& kc = report.summary.kernels;
  EXPECT_GT(kc.synapse_bitparallel + kc.synapse_scalar, 0u);
  EXPECT_GT(kc.neuron_fast + kc.neuron_stoch_soa + kc.neuron_scalar, 0u);
  EXPECT_EQ(report.heartbeats, 5u);  // 40 ticks / heartbeat_every=8
}

TEST(WallprofIntegration, TickSharesStayWithinWallAtFourThreads) {
  // Under a 4-thread team the per-rank brackets overlap, so rank-seconds can
  // exceed the tick wall; the shares compass_prof --wall prints split each
  // rank loop's own wall instead and must sum to at most 100%.
#ifdef COMPASS_HAVE_OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
#endif
  const compiler::PccResult pcc = compile_macaque();
  const TracedRun run = run_once(pcc, /*with_wallprof=*/true,
                                 /*use_pgas=*/false, /*parallel=*/true);
#ifdef COMPASS_HAVE_OPENMP
  omp_set_num_threads(saved);
#endif
  std::istringstream is(run.wallprof_jsonl);
  const obs::WallprofSummary s = obs::analyze_wallprof(is).summary;
  ASSERT_GT(s.wall_s, 0.0);
  EXPECT_GT(s.compute_loop_s, 0.0);
  EXPECT_GT(s.network_loop_s, 0.0);
#ifdef COMPASS_HAVE_OPENMP
  EXPECT_EQ(s.team_threads, std::min(4, pcc.partition.ranks()));
#else
  EXPECT_EQ(s.team_threads, 1);
#endif
  double tick_sum = 0.0;
  for (int p = 0; p < obs::kRankWallPhases; ++p) {
    const double tick = s.phase_tick_wall_s(static_cast<obs::WallPhase>(p));
    EXPECT_GE(tick, 0.0);
    tick_sum += tick;
  }
  EXPECT_GT(tick_sum, 0.0);
  EXPECT_LE(tick_sum, s.wall_s);
  // The compute loop's wall is shared out exactly between its two phases.
  EXPECT_NEAR(s.phase_tick_wall_s(obs::WallPhase::kSynapse) +
                  s.phase_tick_wall_s(obs::WallPhase::kNeuron),
              s.compute_loop_s, 1e-12);
  // Phases outside the tick loop get no share.
  EXPECT_LT(s.phase_tick_wall_s(obs::WallPhase::kPccCompile), 0.0);
  std::ostringstream text;
  obs::write_wall_report(text, obs::WallReport{true, s, 0, 0.0});
  EXPECT_NE(text.str().find("parallel efficiency"), std::string::npos)
      << text.str();
}

TEST(WallprofIntegration, ExchangeIsTimedOncePerTickThroughAFaultDecorator) {
  // The simulator brackets exchange() itself, so a decorated transport is
  // timed once per tick, not once per layer.
  const compiler::PccResult pcc = compile_macaque();
  arch::Model model = pcc.model;
  comm::MpiTransport inner(pcc.partition.ranks(), comm::CommCostModel{});
  resilience::FaultInjectingTransport faulty(
      inner, resilience::FaultPlan::parse("drop=0.1,dup=0.1,seed=3"));
  runtime::Config cfg;
  cfg.measure = false;
  runtime::Compass sim(model, pcc.partition, faulty, cfg);
  obs::WallProfiler wallprof(pcc.partition.ranks());
  sim.set_wall_profiler(&wallprof);
  const runtime::RunReport rep = sim.run(25);
  ASSERT_GT(rep.faults_injected, 0u);
  const obs::WallprofSummary s = wallprof.summary();
  EXPECT_EQ(s.global_phase[static_cast<std::size_t>(obs::WallPhase::kExchange)]
                .count,
            rep.ticks);
}

TEST(WallprofIntegration, RankCountMismatchThrows) {
  const compiler::PccResult pcc = compile_macaque();
  arch::Model model = pcc.model;
  comm::MpiTransport transport(pcc.partition.ranks(), comm::CommCostModel{});
  runtime::Compass sim(model, pcc.partition, transport, runtime::Config{});
  obs::WallProfiler wrong(pcc.partition.ranks() + 1);
  EXPECT_THROW(sim.set_wall_profiler(&wrong), std::invalid_argument);
}

TEST(WallprofIntegration, MeasuredOverheadStaysSmall) {
  // The estimate must stay a small fraction of the run it measures. The
  // bound is deliberately generous (25% on a sub-second toy run; the <2%
  // acceptance target is checked on bench_headline, whose ticks are long
  // enough to average) — this test exists to catch pathological regressions
  // like an unconditional clock read per neuron, not to measure precisely.
  const compiler::PccResult pcc = compile_macaque();
  const TracedRun run = run_once(pcc, /*with_wallprof=*/true, /*use_pgas=*/false,
                                 /*parallel=*/false);
  std::istringstream is(run.wallprof_jsonl);
  const obs::WallReport report = obs::analyze_wallprof(is);
  ASSERT_TRUE(report.found);
  ASSERT_GT(report.summary.wall_s, 0.0);
  EXPECT_LT(report.summary.overhead_s, 0.25 * report.summary.wall_s)
      << "instrumentation cost " << report.summary.overhead_s << "s of "
      << report.summary.wall_s << "s wall";
  // Attribution sanity: timer op count matches the instrumented sites'
  // cadence — at least one op per tick, nowhere near one per neuron.
  EXPECT_GE(report.summary.timer_ops, 40u);
  EXPECT_LT(report.summary.timer_ops, 40u * 1000u);
}

}  // namespace
}  // namespace compass
