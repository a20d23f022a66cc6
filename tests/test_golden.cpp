// Golden regression test: a fixed macaque model (seed 2012, 77 cores, 3
// ranks x 2 threads) must reproduce these exact event counts forever. Any
// change to PRNG sequences, wiring order, neuron dynamics, routing, or the
// CoCoMac generator shows up here first.
//
// If a change is *intentional* (e.g. a deliberate model revision), regenerate
// the constants with the recipe in this file's comments and update them in
// the same commit as the change — never loosen the comparisons.
#include <gtest/gtest.h>

#include <vector>

#include "comm/mpi_transport.h"
#include "compiler/pcc.h"
#include "macaque_fixture.h"
#include "obs/trace.h"
#include "runtime/compass.h"

namespace compass {
namespace {

using testing::compile_macaque;

// Regeneration recipe: build compile_macaque()'s default model, run 30 ticks
// with tick-series recording, and print inventory/report fields.
constexpr std::uint64_t kGoldenSynapses = 1263795;
constexpr std::uint64_t kGoldenWhite = 9498;
constexpr std::uint64_t kGoldenGray = 10214;
constexpr std::uint64_t kGoldenFired = 5907;
constexpr std::uint64_t kGoldenLocal = 3941;
constexpr std::uint64_t kGoldenRemote = 1966;
constexpr std::uint64_t kGoldenMessages = 175;
constexpr std::uint64_t kGoldenSynapticEvents = 301669;
constexpr std::uint64_t kGoldenSeries[30] = {
    11,  26,  58,  87,  109, 169, 168, 205, 201, 220,
    196, 266, 240, 262, 247, 242, 227, 226, 228, 246,
    251, 262, 237, 220, 217, 236, 212, 199, 232, 207};

TEST(Golden, ModelConstructionIsFrozen) {
  const compiler::PccResult pcc = compile_macaque();
  EXPECT_EQ(pcc.model.inventory().synapses, kGoldenSynapses);
  EXPECT_EQ(pcc.stats.white_connections, kGoldenWhite);
  EXPECT_EQ(pcc.stats.gray_connections, kGoldenGray);
}

TEST(Golden, SimulationTraceIsFrozen) {
  compiler::PccResult pcc = compile_macaque();
  comm::MpiTransport transport(3);
  obs::TraceBuffer trace;
  runtime::Compass sim(pcc.model, pcc.partition, transport);
  sim.add_trace_sink(&trace);
  const runtime::RunReport rep = sim.run(30);

  EXPECT_EQ(rep.fired_spikes, kGoldenFired);
  EXPECT_EQ(rep.routed_spikes, kGoldenFired);
  EXPECT_EQ(rep.local_spikes, kGoldenLocal);
  EXPECT_EQ(rep.remote_spikes, kGoldenRemote);
  EXPECT_EQ(rep.messages, kGoldenMessages);
  EXPECT_EQ(rep.synaptic_events, kGoldenSynapticEvents);

  const std::vector<obs::TickRecord>& ticks = trace.ticks();
  ASSERT_EQ(ticks.size(), 30u);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(ticks[i].fired, kGoldenSeries[i]) << "tick " << i;
  }
}

}  // namespace
}  // namespace compass
