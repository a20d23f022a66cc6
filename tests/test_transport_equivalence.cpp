// Transport equivalence suite: for a fixed seeded model, the MPI (two-sided,
// aggregated messages + Reduce-Scatter) and PGAS (one-sided puts + barrier)
// transports must be *functionally indistinguishable* — byte-identical spike
// delivery, identical fired/routed/local/remote counts, and identical
// membrane trajectories tick by tick. Only virtual times and message counts
// may differ (PGAS sends one put per (thread, destination) instead of one
// aggregated message per destination, and pays different modelled costs).
//
// This pins down the core claim the simulator's figure 7 rests on: the two
// communication models race on *cost*, not on simulation semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "cocomac/macaque.h"
#include "comm/mpi_transport.h"
#include "comm/pgas_transport.h"
#include "compiler/pcc.h"
#include "macaque_fixture.h"
#include "runtime/compass.h"

namespace compass {
namespace {

using testing::compile_macaque;

constexpr arch::Tick kTicks = 40;

using SpikeEvent = std::tuple<arch::Tick, arch::CoreId, unsigned>;

struct RunResult {
  runtime::RunReport report;
  std::vector<SpikeEvent> spikes;
  std::vector<std::uint64_t> per_tick_messages;
};

/// Run `ticks` ticks, asserting after every tick that the evolving machine
/// state matches `reference` (when given) — that is the membrane-trajectory
/// equivalence: arch::Model equality covers every membrane potential, delay
/// buffer, and per-core PRNG state.
RunResult run_with(comm::Transport& transport, arch::Model model,
                   const runtime::Partition& partition,
                   const std::vector<arch::Model>* reference,
                   std::vector<arch::Model>* capture) {
  runtime::Compass sim(model, partition, transport);
  RunResult out;
  sim.set_spike_hook([&out](arch::Tick t, arch::CoreId c, unsigned j) {
    out.spikes.emplace_back(t, c, j);
  });
  for (arch::Tick t = 0; t < kTicks; ++t) {
    sim.step();
    out.per_tick_messages.push_back(transport.tick_stats().messages);
    if (capture != nullptr) capture->push_back(model);
    if (reference != nullptr && !(model == (*reference)[t])) {
      ADD_FAILURE() << "state diverged from the reference transport at tick "
                    << t;
      break;
    }
  }
  // run(0) executes no further ticks; it just folds the ledger totals into
  // the returned report (stepping manually leaves report().virtual_time
  // unsynced).
  out.report = sim.run(0);
  return out;
}

TEST(TransportEquivalence, MpiAndPgasAreFunctionallyIdentical) {
  const compiler::PccResult pcc = compile_macaque();

  comm::MpiTransport mpi(3, comm::CommCostModel{});
  std::vector<arch::Model> mpi_states;
  mpi_states.reserve(kTicks);
  const RunResult mpi_run =
      run_with(mpi, pcc.model, pcc.partition, nullptr, &mpi_states);

  comm::PgasTransport pgas(3, comm::CommCostModel{});
  const RunResult pgas_run =
      run_with(pgas, pcc.model, pcc.partition, &mpi_states, nullptr);

  // Functional counters are exactly equal.
  EXPECT_EQ(mpi_run.report.fired_spikes, pgas_run.report.fired_spikes);
  EXPECT_EQ(mpi_run.report.routed_spikes, pgas_run.report.routed_spikes);
  EXPECT_EQ(mpi_run.report.local_spikes, pgas_run.report.local_spikes);
  EXPECT_EQ(mpi_run.report.remote_spikes, pgas_run.report.remote_spikes);
  EXPECT_EQ(mpi_run.report.synaptic_events, pgas_run.report.synaptic_events);

  // Spike delivery is byte-identical: same events in the same order (ranks
  // execute in a fixed order under a spike hook).
  ASSERT_EQ(mpi_run.spikes.size(), pgas_run.spikes.size());
  EXPECT_TRUE(mpi_run.spikes == pgas_run.spikes);

  // Sanity: the runs actually exercised remote traffic.
  EXPECT_GT(mpi_run.report.remote_spikes, 0u);
  EXPECT_GT(mpi_run.report.messages, 0u);
}

TEST(TransportEquivalence, OnlyCostAndMessageCountsMayDiffer) {
  const compiler::PccResult pcc = compile_macaque();

  comm::MpiTransport mpi(3, comm::CommCostModel{});
  const RunResult mpi_run =
      run_with(mpi, pcc.model, pcc.partition, nullptr, nullptr);
  comm::PgasTransport pgas(3, comm::CommCostModel{});
  const RunResult pgas_run =
      run_with(pgas, pcc.model, pcc.partition, nullptr, nullptr);

  // PGAS puts one message per (thread, destination) with no aggregation, so
  // with threads_per_rank == 2 it sends at least as many messages as MPI.
  EXPECT_GE(pgas_run.report.messages, mpi_run.report.messages);
  // Wire bytes ride on spike counts, which are equal.
  EXPECT_EQ(mpi_run.report.wire_bytes, pgas_run.report.wire_bytes);
  // Virtual times are allowed to (and here do) differ: the cost models are
  // different machines.
  EXPECT_NE(mpi_run.report.virtual_time.network,
            pgas_run.report.virtual_time.network);
}

TEST(TransportEquivalence, HoldsOnASecondSeedAndShape) {
  cocomac::MacaqueSpecOptions mopt;
  mopt.total_cores = 96;
  mopt.seed = 7;
  compiler::PccOptions popt;
  popt.ranks = 4;
  popt.threads_per_rank = 1;
  const compiler::PccResult pcc =
      compiler::compile(cocomac::build_macaque_spec(mopt), popt);

  comm::MpiTransport mpi(4, comm::CommCostModel{});
  std::vector<arch::Model> mpi_states;
  const RunResult mpi_run =
      run_with(mpi, pcc.model, pcc.partition, nullptr, &mpi_states);
  comm::PgasTransport pgas(4, comm::CommCostModel{});
  const RunResult pgas_run =
      run_with(pgas, pcc.model, pcc.partition, &mpi_states, nullptr);

  EXPECT_EQ(mpi_run.report.fired_spikes, pgas_run.report.fired_spikes);
  EXPECT_TRUE(mpi_run.spikes == pgas_run.spikes);
  // With one thread per rank, PGAS puts and MPI aggregated messages coincide
  // one-to-one per (source, destination) pair each tick.
  EXPECT_EQ(mpi_run.per_tick_messages, pgas_run.per_tick_messages);
}

}  // namespace
}  // namespace compass
