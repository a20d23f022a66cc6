// Tests for the 5-D torus topology model and its hop-latency integration
// with the transports.
#include "comm/torus.h"

#include <gtest/gtest.h>

#include <vector>

#include "comm/mpi_transport.h"
#include "comm/pgas_transport.h"

namespace compass::comm {
namespace {

TEST(Torus, ExplicitDimsAndNodeCount) {
  const TorusTopology t({4, 3, 2, 1, 1});
  EXPECT_EQ(t.nodes(), 24);
}

TEST(Torus, RejectsBadDims) {
  EXPECT_THROW(TorusTopology({0, 1, 1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(TorusTopology::blue_gene_q(0), std::invalid_argument);
}

TEST(Torus, FactorisationCoversNodeCount) {
  for (int nodes : {1, 2, 7, 16, 24, 100, 1024, 1023}) {
    const TorusTopology t = TorusTopology::blue_gene_q(nodes);
    EXPECT_EQ(t.nodes(), nodes) << nodes;
    int product = 1;
    for (int d : t.dims()) product *= d;
    EXPECT_EQ(product, nodes) << nodes;
  }
}

TEST(Torus, FactorisationIsBalanced) {
  const TorusTopology t = TorusTopology::blue_gene_q(1024);
  // 2^10 over 5 dims -> 4x4x4x4x4.
  for (int d : t.dims()) EXPECT_EQ(d, 4);
}

TEST(Torus, FactorisationHandlesAwkwardNodeCounts) {
  // Primes, prime powers, highly composite, and non-smooth counts: the
  // factorisation must always multiply back to the node count, with dims
  // sorted descending (the canonical orientation placement relies on).
  for (int nodes : {1, 13, 97, 1009, 64, 128, 1024, 4096, 60, 360, 2310,
                    30030, 2 * 3 * 5 * 7 * 11, 999}) {
    const TorusTopology t = TorusTopology::blue_gene_q(nodes);
    std::int64_t product = 1;
    for (int d : t.dims()) {
      EXPECT_GE(d, 1) << nodes;
      product *= d;
    }
    EXPECT_EQ(product, nodes) << nodes;
    for (std::size_t d = 0; d + 1 < 5; ++d) {
      EXPECT_GE(t.dims()[d], t.dims()[d + 1]) << "nodes " << nodes;
    }
  }
}

TEST(TorusTransport, ExplicitNodeMapOverridesBlockEmbedding) {
  // 4 ranks on a ring of 4 nodes. The explicit map pins ranks 0 and 1 to
  // antipodal nodes (2 hops); the block embedding (rank r on node r) puts
  // them 1 hop apart; a map sharing one node makes the same send hop-free.
  const TorusTopology topo({4, 1, 1, 1, 1});
  CommCostModel cost;
  MpiTransport mapped(4, cost), blocked(4, cost), shared(4, cost),
      flat(4, cost);
  mapped.set_hop_model(&topo, std::vector<int>{0, 2, 1, 3});
  blocked.set_hop_model(&topo, std::vector<int>{0, 1, 2, 3});
  shared.set_hop_model(&topo, std::vector<int>{0, 0, 2, 2});

  const std::vector<arch::WireSpike> payload = {{1, 0, 0}};
  for (MpiTransport* t : {&mapped, &blocked, &shared, &flat}) {
    t->begin_tick();
    t->send(0, 1, payload);
    t->exchange();
  }
  const double hop = cost.params().hop_latency_s;
  EXPECT_NEAR(mapped.send_time(0) - flat.send_time(0), 2 * hop, 1e-15);
  EXPECT_NEAR(blocked.send_time(0) - flat.send_time(0), 1 * hop, 1e-15);
  EXPECT_NEAR(shared.send_time(0) - flat.send_time(0), 0.0, 1e-15);

  // Validation: the map must cover every rank with an in-range node id.
  MpiTransport bad(4, cost);
  EXPECT_THROW(bad.set_hop_model(&topo, std::vector<int>{}),
               std::invalid_argument);
  EXPECT_THROW(bad.set_hop_model(&topo, std::vector<int>{0, 1}),
               std::invalid_argument);
  EXPECT_THROW(bad.set_hop_model(&topo, std::vector<int>{0, 1, 2, 9}),
               std::invalid_argument);
}

TEST(Torus, CoordinatesRoundTrip) {
  const TorusTopology t({3, 2, 2, 1, 1});
  for (int n = 0; n < t.nodes(); ++n) {
    const auto c = t.coordinates(n);
    int back = 0;
    for (std::size_t d = 0; d < 5; ++d) back = back * t.dims()[d] + c[d];
    EXPECT_EQ(back, n);
    for (std::size_t d = 0; d < 5; ++d) {
      EXPECT_GE(c[d], 0);
      EXPECT_LT(c[d], t.dims()[d]);
    }
  }
}

TEST(Torus, HopsAreAMetric) {
  const TorusTopology t({4, 4, 2, 1, 1});
  for (int a = 0; a < t.nodes(); ++a) {
    EXPECT_EQ(t.hops(a, a), 0);
    for (int b = 0; b < t.nodes(); ++b) {
      EXPECT_EQ(t.hops(a, b), t.hops(b, a));  // symmetry
      if (a != b) {
        EXPECT_GE(t.hops(a, b), 1);
      }
      for (int c = 0; c < t.nodes(); ++c) {
        EXPECT_LE(t.hops(a, c), t.hops(a, b) + t.hops(b, c));  // triangle
      }
    }
  }
}

TEST(Torus, WraparoundShortcut) {
  // On a ring of 8, node 0 -> node 7 is one hop backwards, not seven.
  const TorusTopology t({8, 1, 1, 1, 1});
  EXPECT_EQ(t.hops(0, 7), 1);
  EXPECT_EQ(t.hops(0, 4), 4);  // antipode
  EXPECT_EQ(t.diameter(), 4);
}

TEST(Torus, DiameterIsSumOfHalfDims) {
  const TorusTopology t({6, 4, 3, 2, 1});
  EXPECT_EQ(t.diameter(), 3 + 2 + 1 + 1 + 0);
  int max_hops = 0;
  for (int a = 0; a < t.nodes(); ++a) {
    for (int b = 0; b < t.nodes(); ++b) max_hops = std::max(max_hops, t.hops(a, b));
  }
  EXPECT_EQ(max_hops, t.diameter());
}

TEST(Torus, AverageHopsMatchesBruteForce) {
  const TorusTopology t({4, 3, 2, 1, 1});
  double sum = 0.0;
  int pairs = 0;
  for (int a = 0; a < t.nodes(); ++a) {
    for (int b = 0; b < t.nodes(); ++b) {
      if (a != b) {
        sum += t.hops(a, b);
        ++pairs;
      }
    }
  }
  EXPECT_NEAR(t.average_hops(), sum / pairs, 1e-12);
}

TEST(Torus, SingleNodeHasZeroAverage) {
  const TorusTopology t({1, 1, 1, 1, 1});
  EXPECT_DOUBLE_EQ(t.average_hops(), 0.0);
  EXPECT_EQ(t.diameter(), 0);
}

TEST(TorusTransport, HopLatencyChargedOnSends) {
  const TorusTopology topo({4, 1, 1, 1, 1});
  CommCostModel cost;
  MpiTransport with(4, cost), without(4, cost);
  with.set_hop_model(&topo, std::vector<int>{0, 1, 2, 3});

  const std::vector<arch::WireSpike> payload = {{1, 0, 0}};
  for (Transport* t : {static_cast<Transport*>(&with),
                       static_cast<Transport*>(&without)}) {
    t->begin_tick();
    t->send(0, 2, payload);  // antipode on the ring: 2 hops
    t->exchange();
  }
  const double delta = with.send_time(0) - without.send_time(0);
  EXPECT_NEAR(delta, 2 * cost.params().hop_latency_s, 1e-15);
}

TEST(TorusTransport, NodeLocalTrafficIsHopFree) {
  const TorusTopology topo({2, 1, 1, 1, 1});
  CommCostModel cost;
  PgasTransport t(4, cost);
  t.set_hop_model(&topo, std::vector<int>{0, 0, 1, 1});  // 0,1 on node 0
  t.begin_tick();
  t.send(0, 1, std::vector<arch::WireSpike>{{1, 0, 0}});
  t.exchange();
  EXPECT_NEAR(t.send_time(0), cost.pgas_put_cost(t.spike_wire_bytes()), 1e-15);
}

}  // namespace
}  // namespace compass::comm
