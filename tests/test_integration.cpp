// End-to-end integration tests: CoCoMac spec -> PCC -> Compass simulation,
// transport equivalence on the full pipeline, and checkpoint/restart.
#include <gtest/gtest.h>

#include <sstream>
#include <tuple>
#include <vector>

#include "cocomac/macaque.h"
#include "comm/mpi_transport.h"
#include "compiler/pcc.h"
#include "obs/trace.h"
#include "runtime/compass.h"

namespace compass {
namespace {

using arch::CoreId;
using arch::Tick;
using TraceEvent = std::tuple<Tick, CoreId, unsigned>;

compiler::PccResult compile_macaque(std::uint64_t cores, int ranks,
                                    double rate_hz = 8.0) {
  cocomac::MacaqueSpecOptions mopt;
  mopt.total_cores = cores;
  mopt.rate_hz = rate_hz;
  const compiler::Spec spec = cocomac::build_macaque_spec(mopt);
  compiler::PccOptions popt;
  popt.ranks = ranks;
  return compiler::compile(spec, popt);
}

TEST(MacaquePipeline, CompilesAndValidates) {
  const compiler::PccResult r = compile_macaque(128, 4);
  EXPECT_EQ(r.model.validate(), "");
  EXPECT_EQ(r.regions.size(), 77u);
  EXPECT_EQ(r.model.num_cores(), 128u);
  EXPECT_GT(r.stats.white_connections, 0u);
  EXPECT_GT(r.stats.gray_connections, 0u);
}

TEST(MacaquePipeline, FiringRateLandsNearTarget) {
  compiler::PccResult r = compile_macaque(96, 1, /*rate_hz=*/8.0);
  comm::MpiTransport transport(1);
  runtime::Compass sim(r.model, r.partition, transport);
  const runtime::RunReport rep = sim.run(500);
  const double rate = rep.mean_rate_hz(96 * 256);
  // The balanced-network drive targets 8 Hz; recurrent dynamics move it,
  // but it must stay in a physiological band (the paper reports 8.1 Hz).
  EXPECT_GT(rate, 3.0);
  EXPECT_LT(rate, 25.0);
}

TEST(MacaquePipeline, WhiteMatterSplitIsMajorityRemoteFriendly) {
  // With 60/40 (cortical) and 80/20 (subcortical) long-range/local splits,
  // white matter should dominate gray matter in connection counts.
  const compiler::PccResult r = compile_macaque(128, 4);
  EXPECT_GT(r.stats.white_connections, r.stats.gray_connections);
  const double total = static_cast<double>(r.stats.white_connections +
                                           r.stats.gray_connections);
  const double white_frac =
      static_cast<double>(r.stats.white_connections) / total;
  EXPECT_GT(white_frac, 0.5);
  EXPECT_LT(white_frac, 0.85);
}

TEST(MacaquePipeline, RemoteTrafficFlowsBetweenRegions) {
  compiler::PccResult r = compile_macaque(96, 4);
  comm::MpiTransport transport(4);
  runtime::Compass sim(r.model, r.partition, transport);
  const runtime::RunReport rep = sim.run(100);
  EXPECT_GT(rep.fired_spikes, 0u);
  EXPECT_GT(rep.remote_spikes, 0u);
  EXPECT_GT(rep.messages, 0u);
  EXPECT_EQ(rep.routed_spikes, rep.local_spikes + rep.remote_spikes);
}

TEST(MacaquePipeline, TransportEquivalenceOnFullModel) {
  const compiler::PccResult base = compile_macaque(96, 4);

  auto run_with = [&](comm::TransportKind kind) {
    arch::Model model = base.model;  // fresh copy
    const auto transport = comm::make_transport(kind, 4);
    runtime::Compass sim(model, base.partition, *transport);
    std::vector<TraceEvent> trace;
    sim.set_spike_hook(
        [&](Tick t, CoreId c, unsigned j) { trace.emplace_back(t, c, j); });
    sim.run(60);
    return trace;
  };

  const auto mpi_trace = run_with(comm::TransportKind::kMpi);
  const auto pgas_trace = run_with(comm::TransportKind::kPgas);
  EXPECT_FALSE(mpi_trace.empty());
  EXPECT_EQ(mpi_trace, pgas_trace);
}

TEST(MacaquePipeline, RankCountInvariance) {
  const compiler::PccResult one = compile_macaque(96, 1);
  const compiler::PccResult four = compile_macaque(96, 4);
  // PCC gray-matter wiring is rank-aware, so compare the same compiled
  // model under different *runtime* partitions of matching shape instead:
  // run the 4-rank model on 1 rank and on 4 ranks.
  auto run_with_ranks = [&](int ranks) {
    arch::Model model = four.model;
    const runtime::Partition part =
        runtime::Partition::uniform(model.num_cores(), ranks, 2);
    comm::MpiTransport transport(ranks);
    runtime::Compass sim(model, part, transport);
    std::vector<TraceEvent> trace;
    sim.set_spike_hook(
        [&](Tick t, CoreId c, unsigned j) { trace.emplace_back(t, c, j); });
    sim.run(50);
    return trace;
  };
  EXPECT_EQ(run_with_ranks(1), run_with_ranks(4));
  // And the 1-rank compile is itself a valid model.
  EXPECT_EQ(one.model.validate(), "");
}

TEST(MacaquePipeline, CheckpointRestartContinuesIdentically) {
  compiler::PccResult r = compile_macaque(80, 2);

  // Reference: run 40 ticks straight through.
  arch::Model ref_model = r.model;
  comm::MpiTransport t1(2);
  runtime::Compass ref(ref_model, r.partition, t1);
  std::vector<TraceEvent> ref_trace;
  ref.set_spike_hook(
      [&](Tick t, CoreId c, unsigned j) { ref_trace.emplace_back(t, c, j); });
  ref.run(40);

  // Checkpointed: run 20, save, load, run 20 more.
  arch::Model half_model = r.model;
  comm::MpiTransport t2(2);
  runtime::Compass first(half_model, r.partition, t2);
  std::vector<TraceEvent> trace;
  first.set_spike_hook(
      [&](Tick t, CoreId c, unsigned j) { trace.emplace_back(t, c, j); });
  first.run(20);

  std::stringstream checkpoint;
  half_model.save(checkpoint);
  arch::Model resumed = arch::Model::load(checkpoint);
  comm::MpiTransport t3(2);
  runtime::Compass second(resumed, r.partition, t3);
  second.set_start_tick(20);  // resume at the checkpointed absolute tick
  second.set_spike_hook(
      [&](Tick t, CoreId c, unsigned j) { trace.emplace_back(t, c, j); });
  second.run(20);

  EXPECT_EQ(trace, ref_trace);
}

TEST(MacaquePipeline, InventoryScalesWithCores) {
  const compiler::PccResult small = compile_macaque(77, 1);
  const compiler::PccResult large = compile_macaque(154, 1);
  const arch::ModelInventory a = small.model.inventory();
  const arch::ModelInventory b = large.model.inventory();
  EXPECT_EQ(a.neurons, 77u * 256u);
  EXPECT_EQ(b.neurons, 154u * 256u);
  EXPECT_EQ(a.connected_neurons, a.neurons);  // realizability: all wired
  EXPECT_EQ(b.connected_neurons, b.neurons);
  EXPECT_GT(b.synapses, a.synapses);
}

TEST(MacaquePipeline, TickSeriesShowsSustainedActivity) {
  compiler::PccResult r = compile_macaque(96, 2);
  comm::MpiTransport transport(2);
  obs::TraceBuffer trace;
  runtime::Compass sim(r.model, r.partition, transport);
  sim.add_trace_sink(&trace);
  sim.run(200);
  const std::vector<obs::TickRecord>& s = trace.ticks();
  ASSERT_EQ(s.size(), 200u);
  // Activity must not die out or explode: the last 100 ticks keep firing
  // and stay below saturation.
  std::uint64_t tail = 0;
  for (std::size_t i = 100; i < 200; ++i) tail += s[i].fired;
  const double per_tick = static_cast<double>(tail) / 100.0;
  const double neurons = 96.0 * 256.0;
  EXPECT_GT(per_tick, neurons * 0.001);  // > 1 Hz
  EXPECT_LT(per_tick, neurons * 0.25);   // < 250 Hz
}

TEST(RegionKinds, FeedForwardPipelinePropagatesActivity) {
  // source (40 Hz) -> relay -> sink: the relay has no drive of its own, so
  // any relay activity is propagated source activity; the silent sink
  // (rate 0, balanced) only moves when the relay feeds it.
  compiler::Spec spec = compiler::parse_coreobject_string(R"(
network pipeline
seed 77
cores 24
region SRC class generic volume 1 self 0.05 rate 40 kind source
region MID class generic volume 1 self 0.05 rate 0 kind relay
region SINK class generic volume 1 self 0.05 rate 0
edge SRC MID 1
edge MID SINK 1
edge SINK SRC 0.1
)");
  compiler::PccOptions popt;
  popt.ranks = 3;
  compiler::PccResult pcc = compiler::compile(spec, popt);

  comm::MpiTransport transport(3);
  runtime::Compass sim(pcc.model, pcc.partition, transport);
  std::vector<std::uint64_t> region_spikes(3, 0);
  sim.set_spike_hook([&](Tick, CoreId c, unsigned) {
    ++region_spikes[pcc.model.region(c)];
  });
  sim.run(300);

  EXPECT_GT(region_spikes[0], 0u) << "source must fire";
  EXPECT_GT(region_spikes[1], 0u) << "relay must propagate";
  EXPECT_GT(region_spikes[2], 0u) << "sink must receive drive";

  // Control: with the source silenced, the relay (which has no intrinsic
  // drive) and everything downstream stay completely silent — all activity
  // in the pipeline is propagated source activity.
  spec.regions[0].rate_hz = 0.0;
  compiler::PccResult quiet = compiler::compile(spec, popt);
  comm::MpiTransport t2(3);
  runtime::Compass quiet_sim(quiet.model, quiet.partition, t2);
  EXPECT_EQ(quiet_sim.run(300).fired_spikes, 0u);
}

TEST(RegionKinds, SilentSinkWithoutInputStaysSilent) {
  compiler::Spec spec = compiler::parse_coreobject_string(R"(
network quiet
seed 7
cores 8
region A class generic volume 1 self 1.0 rate 0
)");
  compiler::PccResult pcc = compiler::compile(spec);
  comm::MpiTransport transport(1);
  runtime::Compass sim(pcc.model, pcc.partition, transport);
  EXPECT_EQ(sim.run(100).fired_spikes, 0u);
}

}  // namespace
}  // namespace compass
