// Tests for the OpenMP parallel-execution mode (the default): functional
// results must be identical to serial execution (per-rank state is disjoint
// and spike delivery is order-independent) at any team width, and the fire
// observers (spike hook, analytics engine, spike tracer) must see the serial
// stream without running inside the team.
#include <gtest/gtest.h>

#ifdef COMPASS_HAVE_OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "comm/mpi_transport.h"
#include "comm/pgas_transport.h"
#include "compiler/pcc.h"
#include "macaque_fixture.h"
#include "obs/analytics.h"
#include "obs/spiketrace.h"
#include "obs/trace.h"
#include "runtime/compass.h"

namespace compass::runtime {
namespace {

using testing::compile_macaque;

RunReport run_mode(const compiler::PccResult& pcc, bool parallel,
                   arch::Model* final_model = nullptr) {
  arch::Model model = pcc.model;
  comm::MpiTransport transport(pcc.partition.ranks(), comm::CommCostModel{});
  Config cfg;
  cfg.parallel_execution = parallel;
  Compass sim(model, pcc.partition, transport, cfg);
  const RunReport rep = sim.run(60);
  if (final_model != nullptr) *final_model = model;
  return rep;
}

TEST(ParallelExecution, FunctionalResultsMatchSerial) {
  const compiler::PccResult pcc =
      compile_macaque({.cores = 96, .seed = 42, .ranks = 4});
  arch::Model serial_model, parallel_model;
  const RunReport serial = run_mode(pcc, false, &serial_model);
  const RunReport parallel = run_mode(pcc, true, &parallel_model);

  EXPECT_EQ(serial.fired_spikes, parallel.fired_spikes);
  EXPECT_EQ(serial.routed_spikes, parallel.routed_spikes);
  EXPECT_EQ(serial.local_spikes, parallel.local_spikes);
  EXPECT_EQ(serial.remote_spikes, parallel.remote_spikes);
  EXPECT_EQ(serial.synaptic_events, parallel.synaptic_events);
  EXPECT_EQ(serial.messages, parallel.messages);
  // The entire final machine state — membranes, delay buffers, PRNGs —
  // must be bit-identical.
  EXPECT_TRUE(serial_model == parallel_model);
}

using FireEvent = std::tuple<arch::Tick, arch::CoreId, unsigned>;

struct HookedRun {
  RunReport report;
  std::vector<FireEvent> fired;
  bool hook_in_parallel = false;
};

HookedRun run_hooked(const compiler::PccResult& pcc, bool parallel) {
  arch::Model model = pcc.model;
  comm::MpiTransport transport(pcc.partition.ranks(), comm::CommCostModel{});
  Config cfg;
  cfg.parallel_execution = parallel;
  Compass sim(model, pcc.partition, transport, cfg);
  HookedRun run;
  sim.set_spike_hook([&run](arch::Tick t, arch::CoreId c, unsigned j) {
    run.fired.emplace_back(t, c, j);
#ifdef COMPASS_HAVE_OPENMP
    run.hook_in_parallel = run.hook_in_parallel || omp_in_parallel() != 0;
#endif
  });
  run.report = sim.run(40);
  return run;
}

TEST(ParallelExecution, StagedHookMatchesSerialAtEveryWidth) {
  // A spike hook keeps the team: the compute loop stages fires per rank
  // and step() replays them on the driver thread, so the stream is the
  // serial one element for element at any team width.
  const compiler::PccResult pcc =
      compile_macaque({.cores = 80, .seed = 42, .ranks = 3});
  const HookedRun serial = run_hooked(pcc, false);
  ASSERT_GT(serial.fired.size(), 0u);
#ifdef COMPASS_HAVE_OPENMP
  const int saved = omp_get_max_threads();
#endif
  for (const int width : {1, 2, 4}) {
    SCOPED_TRACE("OMP threads = " + std::to_string(width));
#ifdef COMPASS_HAVE_OPENMP
    omp_set_num_threads(width);
#endif
    const HookedRun team = run_hooked(pcc, true);
    EXPECT_TRUE(team.fired == serial.fired);
    EXPECT_EQ(team.fired.size(), team.report.fired_spikes);
    EXPECT_FALSE(team.hook_in_parallel)
        << "a spike hook ran inside an OpenMP team";
  }
#ifdef COMPASS_HAVE_OPENMP
  omp_set_num_threads(saved);
#endif
}

struct FireObservers {
  bool hook = false;
  bool analytics = false;
  bool tracer = false;
};

struct ObservedRun {
  std::vector<FireEvent> fired;  // the hook's stream
  std::string analytics;         // every analytics JSONL line
  std::vector<obs::SpikeSpan> spans;
};

ObservedRun run_observed(const compiler::PccResult& pcc, bool pgas,
                         bool parallel, FireObservers attach) {
  arch::Model model = pcc.model;
  std::unique_ptr<comm::Transport> transport;
  if (pgas) {
    transport = std::make_unique<comm::PgasTransport>(pcc.partition.ranks(),
                                                      comm::CommCostModel{});
  } else {
    transport = std::make_unique<comm::MpiTransport>(pcc.partition.ranks(),
                                                     comm::CommCostModel{});
  }
  Config cfg;
  cfg.measure = false;
  cfg.parallel_execution = parallel;
  Compass sim(model, pcc.partition, *transport, cfg);

  ObservedRun run;
  if (attach.hook) {
    sim.set_spike_hook([&run](arch::Tick t, arch::CoreId c, unsigned j) {
      run.fired.emplace_back(t, c, j);
    });
  }
  obs::AnalyticsEngine engine(
      pcc.partition.ranks(), static_cast<std::uint32_t>(model.num_cores()), {},
      obs::AnalyticsOptions{.window_ticks = 16, .sample_every = 4});
  obs::TraceBuffer windows;
  engine.add_sink(&windows);
  if (attach.analytics) sim.set_analytics(&engine);
  obs::SpikeTracer tracer(pcc.partition.ranks(),
                          obs::SpikeTraceOptions{.sample_every = 4});
  obs::TraceBuffer spans;
  tracer.add_sink(&spans);
  if (attach.tracer) sim.set_spike_tracer(&tracer);

  sim.run(40);
  for (const auto& rec : windows.analytics()) run.analytics += rec.json + "\n";
  run.spans = spans.spike_spans();
  return run;
}

TEST(ParallelExecution, FireObserversTogetherMatchTheirSoloSerialRuns) {
  // The three fire observers read one fire stage. Attached together on a
  // team, each must see exactly what it sees attached alone to a serial run.
  const compiler::PccResult pcc =
      compile_macaque({.cores = 80, .seed = 42, .ranks = 3});
#ifdef COMPASS_HAVE_OPENMP
  const int saved = omp_get_max_threads();
#endif
  for (const bool pgas : {false, true}) {
    SCOPED_TRACE(pgas ? "pgas" : "mpi");
    const ObservedRun hook = run_observed(pcc, pgas, false, {.hook = true});
    const ObservedRun analytics =
        run_observed(pcc, pgas, false, {.analytics = true});
    const ObservedRun tracer = run_observed(pcc, pgas, false, {.tracer = true});
    ASSERT_FALSE(hook.fired.empty());
    ASSERT_FALSE(analytics.analytics.empty());
    ASSERT_FALSE(tracer.spans.empty());
    for (const int width : {1, 2, 4}) {
      SCOPED_TRACE("OMP threads = " + std::to_string(width));
#ifdef COMPASS_HAVE_OPENMP
      omp_set_num_threads(width);
#endif
      const ObservedRun all =
          run_observed(pcc, pgas, true, {true, true, true});
      EXPECT_TRUE(all.fired == hook.fired);
      EXPECT_EQ(all.analytics, analytics.analytics);
      EXPECT_TRUE(all.spans == tracer.spans);
    }
  }
#ifdef COMPASS_HAVE_OPENMP
  omp_set_num_threads(saved);
#endif
}

// The default Config runs the ranks on an OpenMP team; its results must not
// depend on the team's width, on either transport.
RunReport run_default(const compiler::PccResult& pcc, bool pgas,
                      arch::Model& final_model) {
  final_model = pcc.model;
  std::unique_ptr<comm::Transport> transport;
  if (pgas) {
    transport = std::make_unique<comm::PgasTransport>(pcc.partition.ranks(),
                                                      comm::CommCostModel{});
  } else {
    transport = std::make_unique<comm::MpiTransport>(pcc.partition.ranks(),
                                                     comm::CommCostModel{});
  }
  Compass sim(final_model, pcc.partition, *transport, Config{});
  return sim.run(60);
}

TEST(ParallelExecution, DefaultConfigIsWidthIndependent) {
  ASSERT_TRUE(Config{}.parallel_execution);
#ifdef COMPASS_HAVE_OPENMP
  const compiler::PccResult pcc =
      compile_macaque({.cores = 96, .seed = 42, .ranks = 5});
  const int saved = omp_get_max_threads();
  for (const bool pgas : {false, true}) {
    SCOPED_TRACE(pgas ? "pgas" : "mpi");
    arch::Model narrow_model, wide_model;
    omp_set_num_threads(1);
    const RunReport narrow = run_default(pcc, pgas, narrow_model);
    omp_set_num_threads(4);
    const RunReport wide = run_default(pcc, pgas, wide_model);
    EXPECT_GT(narrow.fired_spikes, 0u);
    EXPECT_EQ(narrow.ticks, wide.ticks);
    EXPECT_EQ(narrow.fired_spikes, wide.fired_spikes);
    EXPECT_EQ(narrow.routed_spikes, wide.routed_spikes);
    EXPECT_EQ(narrow.local_spikes, wide.local_spikes);
    EXPECT_EQ(narrow.remote_spikes, wide.remote_spikes);
    EXPECT_EQ(narrow.synaptic_events, wide.synaptic_events);
    EXPECT_EQ(narrow.messages, wide.messages);
    EXPECT_EQ(narrow.wire_bytes, wide.wire_bytes);
    EXPECT_TRUE(narrow_model == wide_model);
  }
  omp_set_num_threads(saved);
#else
  GTEST_SKIP() << "built without OpenMP; width sweep not applicable";
#endif
}

TEST(ParallelExecution, CountersSurviveManySmallTicks) {
  const compiler::PccResult pcc =
      compile_macaque({.cores = 77, .seed = 42, .ranks = 2});
  arch::Model model = pcc.model;
  comm::MpiTransport transport(2, comm::CommCostModel{});
  Config cfg;
  cfg.parallel_execution = true;
  Compass sim(model, pcc.partition, transport, cfg);
  std::uint64_t stepped = 0;
  for (int i = 0; i < 50; ++i) stepped += sim.step();
  EXPECT_EQ(stepped, sim.report().fired_spikes);
  EXPECT_EQ(sim.report().routed_spikes,
            sim.report().local_spikes + sim.report().remote_spikes);
}

/// One send(src, dst, spikes) as the transport saw it.
struct SendRecord {
  int src = -1;
  int dst = -1;
  std::vector<arch::WireSpike> spikes;
  friend bool operator==(const SendRecord&, const SendRecord&) = default;
};
using SendLog = std::vector<std::vector<SendRecord>>;  // [tick][call]

/// Decorator that forwards every call to a wrapped transport and logs each
/// send, in call order, under the tick begin_tick() opened.
class RecordingTransport final : public comm::Transport {
 public:
  explicit RecordingTransport(comm::Transport& inner)
      : comm::Transport(inner.ranks(), inner.cost_model(),
                        inner.spike_wire_bytes()),
        inner_(inner) {}

  const char* name() const override { return inner_.name(); }
  bool one_sided() const override { return inner_.one_sided(); }
  void begin_tick() override {
    log.emplace_back();
    inner_.begin_tick();
  }
  void send(int src, int dst,
            std::span<const arch::WireSpike> spikes) override {
    log.back().push_back({src, dst, {spikes.begin(), spikes.end()}});
    inner_.send(src, dst, spikes);
  }
  void exchange() override { inner_.exchange(); }
  std::span<const comm::InMessage> received(int rank) const override {
    return inner_.received(rank);
  }
  const comm::TickCommStats& tick_stats() const override {
    return inner_.tick_stats();
  }
  const comm::RankCommStats& rank_stats(int rank) const override {
    return inner_.rank_stats(rank);
  }
  double send_time(int rank) const override { return inner_.send_time(rank); }
  double sync_time(int rank) const override { return inner_.sync_time(rank); }
  double recv_time(int rank) const override { return inner_.recv_time(rank); }

  SendLog log;

 private:
  comm::Transport& inner_;
};

enum class SendPath { kMpiAggregated, kPgasOneSided, kMpiPerSpike };

SendLog record_sends(const compiler::PccResult& pcc, SendPath path,
                     bool parallel) {
  arch::Model model = pcc.model;
  std::unique_ptr<comm::Transport> inner;
  if (path == SendPath::kPgasOneSided) {
    inner = std::make_unique<comm::PgasTransport>(pcc.partition.ranks(),
                                                  comm::CommCostModel{});
  } else {
    inner = std::make_unique<comm::MpiTransport>(pcc.partition.ranks(),
                                                 comm::CommCostModel{});
  }
  RecordingTransport transport(*inner);
  Config cfg;
  cfg.parallel_execution = parallel;
  cfg.aggregate_sends = path != SendPath::kMpiPerSpike;
  Compass sim(model, pcc.partition, transport, cfg);
  sim.run(30);
  return std::move(transport.log);
}

/// Each tick's sends merged per (src, dst) in ascending order, payloads
/// concatenated in call order: the messages the aggregated path must post.
SendLog merged(SendLog log) {
  for (std::vector<SendRecord>& tick : log) {
    std::stable_sort(tick.begin(), tick.end(),
                     [](const SendRecord& a, const SendRecord& b) {
                       return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
                     });
    std::vector<SendRecord> out;
    for (SendRecord& r : tick) {
      if (!out.empty() && out.back().src == r.src && out.back().dst == r.dst) {
        out.back().spikes.insert(out.back().spikes.end(), r.spikes.begin(),
                                 r.spikes.end());
      } else {
        out.push_back(std::move(r));
      }
    }
    tick = std::move(out);
  }
  return log;
}

std::size_t count_sends(const SendLog& log) {
  std::size_t n = 0;
  for (const std::vector<SendRecord>& tick : log) n += tick.size();
  return n;
}

TEST(ParallelExecution, SendSequenceMatchesSerialOnEveryPath) {
  // Several threads per rank, so one aggregated message concatenates
  // several thread buffers. Every path's send sequence — call order and
  // payloads — must not depend on whether, or how widely, the ranks run
  // on a team.
  const compiler::PccResult pcc =
      compile_macaque({.cores = 96, .seed = 42, .ranks = 4, .threads = 4});
  std::vector<SendLog> serial;
  for (const SendPath path : {SendPath::kMpiAggregated,
                              SendPath::kPgasOneSided,
                              SendPath::kMpiPerSpike}) {
    SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)));
    serial.push_back(record_sends(pcc, path, false));
    ASSERT_GT(count_sends(serial.back()), 0u);
#ifdef COMPASS_HAVE_OPENMP
    const int saved = omp_get_max_threads();
    for (const int width : {1, 2, 4}) {
      SCOPED_TRACE("OMP threads = " + std::to_string(width));
      omp_set_num_threads(width);
      EXPECT_TRUE(record_sends(pcc, path, true) == serial.back());
    }
    omp_set_num_threads(saved);
#else
    EXPECT_TRUE(record_sends(pcc, path, true) == serial.back());
#endif
  }
  // The paths are one functional run, so they carry the same spikes: the
  // aggregated path posts one message per (src, dst) pair, ascending, whose
  // payload is the one-sided puts (one per thread buffer) or the per-spike
  // sends of that pair in thread order.
  const SendLog& aggregated = serial[0];
  EXPECT_TRUE(merged(aggregated) == aggregated);
  EXPECT_TRUE(merged(serial[1]) == aggregated);
  EXPECT_TRUE(merged(serial[2]) == aggregated);
  EXPECT_GT(count_sends(serial[1]), count_sends(aggregated))
      << "no message concatenates two thread buffers";
}

// Checks every per-rank phase time a measured tick reports through its
// spans: the synapse bracket, the neuron + aggregation brackets with the
// modelled send, and the two delivery brackets with the modelled sync and
// receive. Each must be finite and non-negative, and the compute brackets
// every rank takes each tick must be positive.
class PhaseTimeCheck final : public obs::TraceSink {
 public:
  void on_span(const obs::SpanRecord& span) override {
    ++spans;
    const auto ok = [](double s) { return std::isfinite(s) && s >= 0.0; };
    if (!ok(span.compute_s) || !ok(span.comm_s)) ++bad;
    if (span.phase != obs::Phase::kNetwork && !(span.compute_s > 0.0)) {
      ++empty_compute;
    }
  }
  void on_tick(const obs::TickRecord& tick) override {
    if (!std::isfinite(tick.synapse_s + tick.neuron_s + tick.network_s)) {
      ++bad;
    }
  }
  std::uint64_t spans = 0;
  std::uint64_t bad = 0;
  std::uint64_t empty_compute = 0;
};

struct MeasuredRun {
  RunReport report;
  arch::Model model;
  PhaseTimeCheck check;
};

MeasuredRun run_measured(const compiler::PccResult& pcc, bool pgas,
                         bool parallel) {
  MeasuredRun run;
  run.model = pcc.model;
  std::unique_ptr<comm::Transport> transport;
  if (pgas) {
    transport = std::make_unique<comm::PgasTransport>(pcc.partition.ranks(),
                                                      comm::CommCostModel{});
  } else {
    transport = std::make_unique<comm::MpiTransport>(pcc.partition.ranks(),
                                                     comm::CommCostModel{});
  }
  Config cfg;
  cfg.measure = true;
  cfg.parallel_execution = parallel;
  Compass sim(run.model, pcc.partition, *transport, cfg);
  sim.add_trace_sink(&run.check);
  run.report = sim.run(30);
  return run;
}

TEST(ParallelExecution, MeasuredPhaseTimesAreFiniteAtEveryWidth) {
  // Three ranks, so at width 4 one team thread gets no rank and its share
  // of each rank loop is empty.
  const compiler::PccResult pcc =
      compile_macaque({.cores = 80, .seed = 42, .ranks = 3});
  const std::uint64_t spans_per_run = 30u * 3u * 3u;  // ticks x ranks x phases
  for (const bool pgas : {false, true}) {
    SCOPED_TRACE(pgas ? "pgas" : "mpi");
    const MeasuredRun serial = run_measured(pcc, pgas, false);
    ASSERT_GT(serial.report.fired_spikes, 0u);
    EXPECT_EQ(serial.check.spans, spans_per_run);
    EXPECT_EQ(serial.check.bad, 0u);
    EXPECT_EQ(serial.check.empty_compute, 0u);
#ifdef COMPASS_HAVE_OPENMP
    const int saved = omp_get_max_threads();
#endif
    for (const int width : {1, 2, 4}) {
      SCOPED_TRACE("OMP threads = " + std::to_string(width));
#ifdef COMPASS_HAVE_OPENMP
      omp_set_num_threads(width);
#endif
      const MeasuredRun team = run_measured(pcc, pgas, true);
      EXPECT_EQ(team.check.spans, spans_per_run);
      EXPECT_EQ(team.check.bad, 0u);
      EXPECT_EQ(team.check.empty_compute, 0u);
      const perf::PhaseBreakdown& v = team.report.virtual_time;
      EXPECT_TRUE(std::isfinite(v.total()) && v.synapse > 0.0 &&
                  v.neuron > 0.0 && v.network > 0.0);
      EXPECT_EQ(team.report.fired_spikes, serial.report.fired_spikes);
      EXPECT_EQ(team.report.routed_spikes, serial.report.routed_spikes);
      EXPECT_EQ(team.report.local_spikes, serial.report.local_spikes);
      EXPECT_EQ(team.report.remote_spikes, serial.report.remote_spikes);
      EXPECT_EQ(team.report.synaptic_events, serial.report.synaptic_events);
      EXPECT_EQ(team.report.messages, serial.report.messages);
      EXPECT_EQ(team.report.wire_bytes, serial.report.wire_bytes);
      EXPECT_TRUE(team.model == serial.model);
    }
#ifdef COMPASS_HAVE_OPENMP
    omp_set_num_threads(saved);
#endif
  }
}

}  // namespace
}  // namespace compass::runtime
