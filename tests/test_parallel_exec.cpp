// Tests for the OpenMP parallel-execution mode (the default): functional
// results must be identical to serial execution (per-rank state is disjoint
// and spike delivery is order-independent) at any team width, and a spike
// hook must see the serial stream without running inside the team.
#include <gtest/gtest.h>

#ifdef COMPASS_HAVE_OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "cocomac/macaque.h"
#include "comm/mpi_transport.h"
#include "comm/pgas_transport.h"
#include "compiler/pcc.h"
#include "runtime/compass.h"

namespace compass::runtime {
namespace {

compiler::PccResult build(std::uint64_t cores = 96, int ranks = 4,
                          int threads_per_rank = 2) {
  cocomac::MacaqueSpecOptions mopt;
  mopt.total_cores = cores;
  compiler::PccOptions popt;
  popt.ranks = ranks;
  popt.threads_per_rank = threads_per_rank;
  return compiler::compile(cocomac::build_macaque_spec(mopt), popt);
}

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
  const compiler::PccResult pcc = build();
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
  const compiler::PccResult pcc = build(80, 3);
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
  const compiler::PccResult pcc = build(96, 5);
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
  const compiler::PccResult pcc = build(77, 2);
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
  const compiler::PccResult pcc = build(96, 4, 4);
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

}  // namespace
}  // namespace compass::runtime
