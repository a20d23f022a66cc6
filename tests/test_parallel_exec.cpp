// Tests for the OpenMP parallel-execution mode (the default): functional
// results must be identical to serial execution (per-rank state is disjoint
// and spike delivery is order-independent) at any team width, and hooks
// must force serial execution.
#include <gtest/gtest.h>

#ifdef COMPASS_HAVE_OPENMP
#include <omp.h>
#endif

#include <memory>
#include <vector>

#include "cocomac/macaque.h"
#include "comm/mpi_transport.h"
#include "comm/pgas_transport.h"
#include "compiler/pcc.h"
#include "runtime/compass.h"

namespace compass::runtime {
namespace {

compiler::PccResult build(std::uint64_t cores = 96, int ranks = 4) {
  cocomac::MacaqueSpecOptions mopt;
  mopt.total_cores = cores;
  compiler::PccOptions popt;
  popt.ranks = ranks;
  popt.threads_per_rank = 2;
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

TEST(ParallelExecution, HookForcesSerialAndStaysCorrect) {
  const compiler::PccResult pcc = build(80, 3);
  arch::Model model = pcc.model;
  comm::MpiTransport transport(3, comm::CommCostModel{});
  Config cfg;
  cfg.parallel_execution = true;  // hook below overrides this
  Compass sim(model, pcc.partition, transport, cfg);
  std::uint64_t hooked = 0;
  bool hook_in_parallel = false;
  sim.set_spike_hook([&](arch::Tick, arch::CoreId, unsigned) {
    ++hooked;
#ifdef COMPASS_HAVE_OPENMP
    hook_in_parallel = hook_in_parallel || omp_in_parallel() != 0;
#endif
  });
  const RunReport rep = sim.run(40);
  EXPECT_EQ(hooked, rep.fired_spikes);
  EXPECT_GT(hooked, 0u);
  EXPECT_FALSE(hook_in_parallel) << "a spike hook ran inside an OpenMP team";
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

}  // namespace
}  // namespace compass::runtime
