// Unit tests for the LogGP-style communication cost model.
#include "comm/cost_model.h"

#include <gtest/gtest.h>

namespace compass::comm {
namespace {

TEST(CostModel, SendCostGrowsLinearlyInBytes) {
  CommCostModel m;
  const double small = m.mpi_send_cost(100);
  const double large = m.mpi_send_cost(100100);
  EXPECT_NEAR(large - small, 100000.0 / m.params().mpi_bytes_per_s, 1e-12);
}

TEST(CostModel, ZeroByteMessageStillPaysOverhead) {
  CommCostModel m;
  EXPECT_DOUBLE_EQ(m.mpi_send_cost(0), m.params().mpi_msg_overhead_s);
  EXPECT_DOUBLE_EQ(m.pgas_put_cost(0), m.params().pgas_put_overhead_s);
}

TEST(CostModel, PgasPutIsCheaperThanMpiSend) {
  // The one-sided latency advantage (Nishtala et al.) that section VII
  // exploits must hold for every message size under the default constants.
  CommCostModel m;
  for (std::size_t bytes : {0u, 100u, 10000u, 1000000u}) {
    EXPECT_LT(m.pgas_put_cost(bytes), m.mpi_send_cost(bytes)) << bytes;
  }
}

TEST(CostModel, ReduceScatterScalesWithCommunicator) {
  CommCostModel m;
  EXPECT_DOUBLE_EQ(m.reduce_scatter_cost(1), 0.0);
  const double p16 = m.reduce_scatter_cost(16);
  const double p256 = m.reduce_scatter_cost(256);
  const double p4096 = m.reduce_scatter_cost(4096);
  EXPECT_LT(p16, p256);
  EXPECT_LT(p256, p4096);
  // The linear beta term dominates eventually — the paper's observation
  // that Reduce-Scatter time "increases with increasing MPI communicator
  // size" and caps weak scaling.
  EXPECT_GT(p4096 - p256, (p256 - p16) * 2);
}

TEST(CostModel, BarrierIsLogDepth) {
  CommCostModel m;
  EXPECT_DOUBLE_EQ(m.barrier_cost(1), 0.0);
  EXPECT_NEAR(m.barrier_cost(2), m.params().barrier_alpha_s, 1e-15);
  EXPECT_NEAR(m.barrier_cost(1024), 10 * m.params().barrier_alpha_s, 1e-12);
  // Non-power-of-two rounds up.
  EXPECT_NEAR(m.barrier_cost(1025), 11 * m.params().barrier_alpha_s, 1e-12);
}

TEST(CostModel, BarrierBeatsReduceScatterAtScale) {
  // Section VII-A: a single low-latency global barrier replaces "a
  // collective Reduce-Scatter operation that scales linearly with
  // communicator size".
  CommCostModel m;
  for (int ranks : {4, 64, 1024, 16384}) {
    EXPECT_LT(m.barrier_cost(ranks), m.reduce_scatter_cost(ranks)) << ranks;
  }
}

TEST(CostModel, CustomParamsAreHonoured) {
  CommCostParams p;
  p.mpi_msg_overhead_s = 1.0;
  p.mpi_bytes_per_s = 10.0;
  CommCostModel m(p);
  EXPECT_DOUBLE_EQ(m.mpi_send_cost(20), 1.0 + 2.0);
}

}  // namespace
}  // namespace compass::comm
