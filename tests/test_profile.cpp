// Parallel-profile layer tests: comm-matrix conservation against the run
// report, per-phase virtual-time totals (bit-exact vs RunReport), imbalance
// and overlap-efficiency invariants, critical-rank attribution counts, the
// offline analyzer's round-trip through --trace-out JSONL, and the JSON
// writers' validity.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "comm/mpi_transport.h"
#include "compiler/pcc.h"
#include "macaque_fixture.h"
#include "obs/jsonv.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/compass.h"

namespace compass {
namespace {

using comm::TransportKind;
using testing::compile_macaque;


// --- CommMatrix unit tests -------------------------------------------------

TEST(CommMatrix, RecordAndTotals) {
  obs::CommMatrix m(3);
  m.record(0, 1, /*spikes=*/10, /*bytes=*/40);
  m.record(0, 1, 5, 20);
  m.record(2, 0, 7, 28);
  m.record_local(1, 100);

  EXPECT_EQ(m.at(0, 1).messages, 2u);
  EXPECT_EQ(m.at(0, 1).spikes, 15u);
  EXPECT_EQ(m.at(0, 1).bytes, 60u);
  // Diagonal carries spikes only — local routing never touches the wire.
  EXPECT_EQ(m.at(1, 1).messages, 0u);
  EXPECT_EQ(m.at(1, 1).spikes, 100u);
  EXPECT_EQ(m.at(1, 1).bytes, 0u);

  EXPECT_EQ(m.row_total(0).messages, 2u);
  EXPECT_EQ(m.col_total(1).spikes, 115u);
  EXPECT_EQ(m.col_total(0).messages, 1u);
  EXPECT_EQ(m.total().messages, 3u);
  EXPECT_EQ(m.total().spikes, 122u);
  EXPECT_EQ(m.total().bytes, 88u);
}

TEST(CommMatrix, EqualityIsCellwise) {
  obs::CommMatrix a(2), b(2);
  a.record(0, 1, 3, 12);
  EXPECT_FALSE(a == b);
  b.record(0, 1, 3, 12);
  EXPECT_TRUE(a == b);
}

TEST(ImbalanceFactor, EmptyAndZeroPhasesAreBalanced) {
  std::vector<obs::RankPhaseSeconds> none;
  EXPECT_DOUBLE_EQ(obs::imbalance_factor(none, &obs::RankPhaseSeconds::neuron),
                   1.0);
  std::vector<obs::RankPhaseSeconds> zeros(4);
  EXPECT_DOUBLE_EQ(obs::imbalance_factor(zeros, &obs::RankPhaseSeconds::neuron),
                   1.0);
}

TEST(ImbalanceFactor, MaxOverMean) {
  std::vector<obs::RankPhaseSeconds> v(4);
  v[0].neuron = 1.0;
  v[1].neuron = 1.0;
  v[2].neuron = 1.0;
  v[3].neuron = 5.0;  // mean = 2.0, max = 5.0
  EXPECT_DOUBLE_EQ(obs::imbalance_factor(v, &obs::RankPhaseSeconds::neuron),
                   2.5);
  // Other phases untouched -> balanced.
  EXPECT_DOUBLE_EQ(obs::imbalance_factor(v, &obs::RankPhaseSeconds::synapse),
                   1.0);
}

// --- End-to-end through Compass --------------------------------------------

struct ProfiledRun {
  runtime::RunReport report;
  obs::CommMatrix matrix{0};
  std::string trace_jsonl;
};

ProfiledRun run_profiled(const compiler::PccResult& pcc,
                         TransportKind kind = TransportKind::kMpi,
                         bool measure = true, bool with_trace = false,
                         arch::Tick ticks = 25) {
  arch::Model model = pcc.model;
  const auto transport = comm::make_transport(kind, pcc.partition.ranks());
  runtime::Config cfg;
  cfg.measure = measure;
  runtime::Compass sim(model, pcc.partition, *transport, cfg);

  obs::ProfileCollector collector(pcc.partition.ranks());
  sim.set_profile(&collector);

  std::ostringstream os;
  std::optional<obs::JsonlTraceWriter> writer;
  if (with_trace) {
    writer.emplace(os, obs::JsonlOptions{.include_measured = false});
    sim.add_trace_sink(&*writer);
  }

  ProfiledRun out;
  out.report = sim.run(ticks);
  out.matrix = collector.comm_matrix();
  out.trace_jsonl = os.str();
  return out;
}

TEST(ProfileCollector, TotalsAreBitExactAgainstRunReport) {
  const compiler::PccResult pcc = compile_macaque();
  const ProfiledRun run = run_profiled(pcc);
  ASSERT_TRUE(run.report.profile.has_value());
  const obs::ProfileSummary& prof = *run.report.profile;

  // Both the report and the profiler accumulate the same composed per-tick
  // slices in the same order, so equality is exact, not approximate.
  EXPECT_EQ(prof.ticks, run.report.ticks);
  EXPECT_EQ(prof.totals.synapse, run.report.virtual_time.synapse);
  EXPECT_EQ(prof.totals.neuron, run.report.virtual_time.neuron);
  EXPECT_EQ(prof.totals.network, run.report.virtual_time.network);
}

TEST(ProfileCollector, ImbalanceAndOverlapInvariants) {
  const compiler::PccResult pcc = compile_macaque();
  const ProfiledRun run = run_profiled(pcc);
  const obs::ProfileSummary& prof = *run.report.profile;

  ASSERT_EQ(prof.ranks(), 3);
  for (const double f : prof.imbalance) EXPECT_GE(f, 1.0);
  EXPECT_GE(prof.overlap_efficiency(), 0.0);
  EXPECT_LE(prof.overlap_efficiency(), 1.0);
  EXPECT_GE(prof.sync_s, 0.0);
  EXPECT_GE(prof.hidden_s, 0.0);
  EXPECT_LE(prof.hidden_s, prof.sync_s);

  // The composed synapse total is the sum of per-tick maxima of the same
  // per-rank values the collector accumulates, so no single rank's sum can
  // exceed it.
  for (const obs::RankPhaseSeconds& r : prof.rank_phase_s) {
    EXPECT_LE(r.synapse, prof.totals.synapse * (1.0 + 1e-12));
  }
}

TEST(ProfileCollector, CriticalCountsSumToTicksPerPhase) {
  const compiler::PccResult pcc = compile_macaque();
  const arch::Tick ticks = 30;
  const ProfiledRun run =
      run_profiled(pcc, TransportKind::kMpi, true, false, ticks);
  const obs::ProfileSummary& prof = *run.report.profile;

  std::uint64_t syn = 0, neu = 0, net = 0;
  for (const obs::RankCriticalCounts& c : prof.critical) {
    syn += c.synapse;
    neu += c.neuron;
    net += c.network;
  }
  // Exactly one rank sets each slice of every tick's makespan.
  EXPECT_EQ(syn, ticks);
  EXPECT_EQ(neu, ticks);
  EXPECT_EQ(net, ticks);
}

TEST(CommMatrixConservation, TotalsMatchRunReport) {
  const compiler::PccResult pcc = compile_macaque();
  const ProfiledRun run = run_profiled(pcc);

  const obs::CommCell total = run.matrix.total();
  EXPECT_EQ(total.messages, run.report.messages);
  EXPECT_EQ(total.bytes, run.report.wire_bytes);
  EXPECT_EQ(total.spikes, run.report.routed_spikes);

  // Row and column sums are two decompositions of the same totals.
  obs::CommCell rows, cols;
  for (int r = 0; r < run.matrix.ranks(); ++r) {
    rows += run.matrix.row_total(r);
    cols += run.matrix.col_total(r);
  }
  EXPECT_EQ(rows, total);
  EXPECT_EQ(cols, total);

  // Diagonal = rank-local routing: spikes only, nothing on the wire.
  std::uint64_t diag_spikes = 0;
  for (int r = 0; r < run.matrix.ranks(); ++r) {
    EXPECT_EQ(run.matrix.at(r, r).messages, 0u);
    EXPECT_EQ(run.matrix.at(r, r).bytes, 0u);
    diag_spikes += run.matrix.at(r, r).spikes;
  }
  EXPECT_EQ(diag_spikes, run.report.local_spikes);
  EXPECT_EQ(total.spikes - diag_spikes, run.report.remote_spikes);
}

TEST(CommMatrixConservation, ByteIdenticalAcrossOmpThreadCounts) {
#ifndef COMPASS_HAVE_OPENMP
  GTEST_SKIP() << "built without OpenMP; thread-count sweep not applicable";
#endif
  const compiler::PccResult pcc = compile_macaque();
  const ProfiledRun baseline = [&] {
    const testing::OmpWidth width(1);
    return run_profiled(pcc, TransportKind::kMpi, /*measure=*/false);
  }();
  for (const int threads : {2, 8}) {
    const testing::OmpWidth width(threads);
    const ProfiledRun run =
        run_profiled(pcc, TransportKind::kMpi, /*measure=*/false);
    SCOPED_TRACE("OMP threads = " + std::to_string(threads));
    EXPECT_TRUE(run.matrix == baseline.matrix);
  }
}

TEST(CommMatrixConservation, MpiAndPgasAgree) {
  // At one thread per rank both transports aggregate identically (one
  // message per (src, dst) per tick), so the full matrix — message counts
  // included — is equal.
  const compiler::PccResult one = compile_macaque({.ranks = 3, .threads = 1});
  const ProfiledRun mpi1 = run_profiled(one, TransportKind::kMpi, false);
  const ProfiledRun pgas1 = run_profiled(one, TransportKind::kPgas, false);
  EXPECT_TRUE(mpi1.matrix == pgas1.matrix);

  // With several threads per rank PGAS issues one put per (thread, dst) while
  // MPI aggregates per rank, so message counts legitimately differ — but the
  // functional traffic (spikes, and bytes = spikes x wire-size) must agree
  // cell by cell.
  const compiler::PccResult two = compile_macaque({.ranks = 3, .threads = 2});
  const ProfiledRun mpi2 = run_profiled(two, TransportKind::kMpi, false);
  const ProfiledRun pgas2 = run_profiled(two, TransportKind::kPgas, false);
  for (int src = 0; src < 3; ++src) {
    for (int dst = 0; dst < 3; ++dst) {
      SCOPED_TRACE("cell " + std::to_string(src) + "->" + std::to_string(dst));
      EXPECT_EQ(mpi2.matrix.at(src, dst).spikes,
                pgas2.matrix.at(src, dst).spikes);
      EXPECT_EQ(mpi2.matrix.at(src, dst).bytes,
                pgas2.matrix.at(src, dst).bytes);
    }
  }
  EXPECT_GE(pgas2.matrix.total().messages, mpi2.matrix.total().messages);
}

TEST(ProfileCollector, DetachedRunCarriesNoProfile) {
  const compiler::PccResult pcc = compile_macaque();
  arch::Model model = pcc.model;
  comm::MpiTransport transport(3);
  runtime::Compass sim(model, pcc.partition, transport);
  const runtime::RunReport rep = sim.run(5);
  EXPECT_FALSE(rep.profile.has_value());
}

TEST(ProfileCollector, RankCountMismatchIsRejected) {
  const compiler::PccResult pcc = compile_macaque();
  arch::Model model = pcc.model;
  comm::MpiTransport transport(3);
  runtime::Compass sim(model, pcc.partition, transport);
  obs::ProfileCollector wrong(2);
  EXPECT_THROW(sim.set_profile(&wrong), std::invalid_argument);
}

// --- JSON writers ----------------------------------------------------------

TEST(ProfileJson, DocumentIsValidJson) {
  const compiler::PccResult pcc = compile_macaque();
  const ProfiledRun run = run_profiled(pcc);
  std::ostringstream os;
  obs::write_profile_json(os, *run.report.profile, run.matrix);
  EXPECT_NO_THROW(obs::jsonv::JsonParser(os.str()).parse()) << os.str();
  EXPECT_NE(os.str().find("\"comm\""), std::string::npos);
  EXPECT_NE(os.str().find("\"imbalance\""), std::string::npos);
  EXPECT_NE(os.str().find("\"critical\""), std::string::npos);
}

TEST(ProfileJsonl, TraceCarriesOneProfileRecordAndStaysValid) {
  const compiler::PccResult pcc = compile_macaque();
  const ProfiledRun run = run_profiled(pcc, TransportKind::kMpi,
                                       /*measure=*/false, /*with_trace=*/true);

  std::istringstream is(run.trace_jsonl);
  std::string line;
  int profile_lines = 0;
  while (std::getline(is, line)) {
    EXPECT_NO_THROW(obs::jsonv::JsonParser(line).parse()) << line;
    if (line.find("\"type\":\"profile\"") != std::string::npos) {
      ++profile_lines;
    }
  }
  EXPECT_EQ(profile_lines, 1);
}

// --- Offline analyzer (analyze_trace / compass_prof) -----------------------

TEST(AnalyzeTrace, RoundTripReproducesRunReportExactly) {
  const compiler::PccResult pcc = compile_macaque();
  const arch::Tick ticks = 25;
  const ProfiledRun run = run_profiled(pcc, TransportKind::kMpi,
                                       /*measure=*/false, /*with_trace=*/true,
                                       ticks);

  std::istringstream is(run.trace_jsonl);
  const obs::TraceProfile tp = obs::analyze_trace(is);

  // Acceptance criterion: running the analyzer over the emitted JSONL
  // reproduces the run's per-phase virtual-time totals exactly (the %.17g
  // serialization round-trips doubles bit-for-bit, and the analyzer sums in
  // file = tick order).
  EXPECT_EQ(tp.ticks, ticks);
  EXPECT_EQ(tp.ranks, 3);
  EXPECT_EQ(tp.totals.synapse, run.report.virtual_time.synapse);
  EXPECT_EQ(tp.totals.neuron, run.report.virtual_time.neuron);
  EXPECT_EQ(tp.totals.network, run.report.virtual_time.network);

  // Functional totals from tick records.
  EXPECT_EQ(tp.fired, run.report.fired_spikes);
  EXPECT_EQ(tp.routed, run.report.routed_spikes);
  EXPECT_EQ(tp.local, run.report.local_spikes);
  EXPECT_EQ(tp.remote, run.report.remote_spikes);
  EXPECT_EQ(tp.messages, run.report.messages);
  EXPECT_EQ(tp.bytes, run.report.wire_bytes);

  for (const double f : tp.imbalance) EXPECT_GE(f, 1.0);

  // The embedded end-of-run profile record round-trips the online profile:
  // same totals, same comm matrix, overlap in range.
  ASSERT_TRUE(tp.has_profile);
  const obs::ProfileSummary& online = *run.report.profile;
  EXPECT_EQ(tp.profile.ticks, online.ticks);
  EXPECT_EQ(tp.profile.totals.synapse, online.totals.synapse);
  EXPECT_EQ(tp.profile.totals.neuron, online.totals.neuron);
  EXPECT_EQ(tp.profile.totals.network, online.totals.network);
  EXPECT_TRUE(tp.matrix == run.matrix);
  EXPECT_EQ(tp.matrix.total().messages, run.report.messages);
  EXPECT_EQ(tp.matrix.total().bytes, run.report.wire_bytes);
  EXPECT_GE(tp.profile.overlap_efficiency(), 0.0);
  EXPECT_LE(tp.profile.overlap_efficiency(), 1.0);
  for (std::size_t r = 0; r < tp.profile.critical.size(); ++r) {
    EXPECT_EQ(tp.profile.critical[r].synapse, online.critical[r].synapse);
    EXPECT_EQ(tp.profile.critical[r].neuron, online.critical[r].neuron);
    EXPECT_EQ(tp.profile.critical[r].network, online.critical[r].network);
  }
}

TEST(AnalyzeTrace, SpanDerivedRankTimesMatchOnlineCollector) {
  // With host measurement off, every per-rank figure in the trace is a
  // modelled double serialized at full precision, so the analyzer's
  // span-derived per-rank phase seconds equal the online collector's — the
  // two implement the same accounting independently.
  const compiler::PccResult pcc = compile_macaque();
  const ProfiledRun run = run_profiled(pcc, TransportKind::kMpi,
                                       /*measure=*/false, /*with_trace=*/true);

  std::istringstream is(run.trace_jsonl);
  const obs::TraceProfile tp = obs::analyze_trace(is);
  const obs::ProfileSummary& online = *run.report.profile;

  ASSERT_EQ(tp.rank_phase_s.size(), online.rank_phase_s.size());
  for (std::size_t r = 0; r < tp.rank_phase_s.size(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(tp.rank_phase_s[r].synapse, online.rank_phase_s[r].synapse);
    EXPECT_EQ(tp.rank_phase_s[r].neuron, online.rank_phase_s[r].neuron);
    EXPECT_EQ(tp.rank_phase_s[r].network, online.rank_phase_s[r].network);
  }
  // Synapse / neuron attribution is exact offline too (the span argmax is
  // the makespan argmax for those phases).
  for (std::size_t r = 0; r < tp.critical.size(); ++r) {
    EXPECT_EQ(tp.critical[r].synapse, online.critical[r].synapse);
    EXPECT_EQ(tp.critical[r].neuron, online.critical[r].neuron);
  }
}

TEST(AnalyzeTrace, TraceWithoutProfileRecordStillAnalyzes) {
  const compiler::PccResult pcc = compile_macaque();
  arch::Model model = pcc.model;
  comm::MpiTransport transport(3);
  runtime::Config cfg;
  cfg.measure = false;
  runtime::Compass sim(model, pcc.partition, transport, cfg);
  std::ostringstream os;
  obs::JsonlTraceWriter writer(os, obs::JsonlOptions{.include_measured = false});
  sim.add_trace_sink(&writer);
  const runtime::RunReport rep = sim.run(10);

  std::istringstream is(os.str());
  const obs::TraceProfile tp = obs::analyze_trace(is);
  EXPECT_FALSE(tp.has_profile);
  EXPECT_EQ(tp.ticks, 10u);
  EXPECT_EQ(tp.totals.synapse, rep.virtual_time.synapse);
  EXPECT_EQ(tp.totals.neuron, rep.virtual_time.neuron);
  EXPECT_EQ(tp.totals.network, rep.virtual_time.network);
}

TEST(AnalyzeTrace, MalformedLinesThrowWithLineNumber) {
  std::istringstream garbage("{\"type\":\"tick\",\"tick\":0}\nnot json\n");
  try {
    obs::analyze_trace(garbage);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(AnalyzeTrace, UnknownRecordTypesAreSkipped) {
  std::istringstream is(
      "{\"type\":\"future_record\",\"x\":1}\n"
      "{\"type\":\"tick\",\"tick\":0,\"synapse_s\":1.5,\"neuron_s\":2.5,"
      "\"network_s\":3.5,\"fired\":7}\n");
  const obs::TraceProfile tp = obs::analyze_trace(is);
  EXPECT_EQ(tp.ticks, 1u);
  EXPECT_DOUBLE_EQ(tp.totals.synapse, 1.5);
  EXPECT_DOUBLE_EQ(tp.totals.neuron, 2.5);
  EXPECT_DOUBLE_EQ(tp.totals.network, 3.5);
  EXPECT_EQ(tp.fired, 7u);
}

// --- Report writers --------------------------------------------------------

TEST(TraceReport, HumanReportNamesEveryPhaseAndTheMatrix) {
  const compiler::PccResult pcc = compile_macaque();
  const ProfiledRun run = run_profiled(pcc, TransportKind::kMpi,
                                       /*measure=*/false, /*with_trace=*/true);
  std::istringstream is(run.trace_jsonl);
  const obs::TraceProfile tp = obs::analyze_trace(is);

  std::ostringstream os;
  obs::write_trace_report(os, tp, /*top_k=*/2);
  const std::string report = os.str();
  EXPECT_NE(report.find("synapse"), std::string::npos);
  EXPECT_NE(report.find("neuron"), std::string::npos);
  EXPECT_NE(report.find("network"), std::string::npos);
  EXPECT_NE(report.find("imbalance"), std::string::npos);
  EXPECT_NE(report.find("comm matrix"), std::string::npos);
}

TEST(TraceReport, JsonReportIsValidJson) {
  const compiler::PccResult pcc = compile_macaque();
  const ProfiledRun run = run_profiled(pcc, TransportKind::kMpi,
                                       /*measure=*/false, /*with_trace=*/true);
  std::istringstream is(run.trace_jsonl);
  const obs::TraceProfile tp = obs::analyze_trace(is);

  std::ostringstream os;
  obs::write_trace_report_json(os, tp);
  EXPECT_NO_THROW(obs::jsonv::JsonParser(os.str()).parse()) << os.str();
  EXPECT_NE(os.str().find("\"profile\""), std::string::npos);
}

}  // namespace
}  // namespace compass
