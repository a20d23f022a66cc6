// Placement policies behind a common Placer interface.
//
// Every policy maps a CoreGraph to a Placement (core->rank Partition plus a
// rank->torus-node map) minimising the hop-weighted cut objective of
// placement.h under a load-balance tolerance. The roster:
//
//   uniform          contiguous equal blocks, identity node map (the
//                    runtime's default — the baseline everything beats)
//   random           seeded random permutation split into equal blocks
//                    (the anti-locality baseline)
//   greedy-refine    KL/FM-style pairwise-move refinement of the uniform
//                    partition: repeated best-single-core moves that
//                    strictly decrease the objective while per-rank loads
//                    stay inside load_bounds() at a 5% tolerance. Never
//                    worse than uniform.
//   recursive-bisect recursive Kernighan–Lin bisection with paired swaps
//                    (keeps split sizes exact at every level)
//   sfc-torus        uniform partition + space-filling-curve embedding of
//                    ranks onto the torus: nodes are enumerated along a
//                    boustrophedon (snake) curve where consecutive nodes
//                    are one hop apart, and heavily-communicating logical
//                    nodes are greedily packed close on the curve. Falls
//                    back to the identity map when it does not win.
//
// All policies are deterministic: same graph + options (including seed)
// give the identical Placement.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "comm/torus.h"
#include "place/comm_graph.h"
#include "place/placement.h"

namespace compass::place {

struct PlacerOptions {
  int ranks = 1;
  int threads_per_rank = 1;
  std::uint64_t seed = 0;          // random policy + tie-breaking
  const comm::TorusTopology* topology = nullptr;  // null: hop term is zero
  int ranks_per_node = 1;
};

/// Inclusive per-rank core-count bounds for a balance tolerance: loads in
/// [min_load, max_load] with max_load >= ceil(cores/ranks) (so a feasible
/// assignment always exists) and min_load <= floor(cores/ranks).
struct LoadBounds {
  std::size_t min_load = 0;
  std::size_t max_load = 0;
};
LoadBounds load_bounds(std::size_t cores, int ranks, double tolerance);

class Placer {
 public:
  virtual ~Placer() = default;
  virtual std::string_view name() const = 0;
  /// Compute a placement. Throws PlacementError on impossible options
  /// (ranks <= 0, threads <= 0, empty graph).
  virtual Placement place(const CoreGraph& graph,
                          const PlacerOptions& options) const = 0;
};

/// Factory: "uniform", "random", "greedy-refine", "recursive-bisect",
/// "sfc-torus". Unknown names throw PlacementError listing the roster.
std::unique_ptr<Placer> make_placer(std::string_view policy);

/// All policy names, factory-accepted spelling, stable order.
std::vector<std::string> placer_names();

/// Boustrophedon enumeration of all torus nodes such that consecutive
/// entries are exactly one hop apart (exposed for tests and bench).
std::vector<int> snake_order(const comm::TorusTopology& topology);

/// Constrained re-placement after a rank failure (the recovery supervisor's
/// planner, src/resilience/recovery.h). Every surviving core stays exactly
/// where it is — live cores must not move mid-run — and only the dead rank's
/// orphaned cores are redistributed across the surviving ranks:
///
///   * traffic-aware: survivors are preferred in descending order of their
///     *measured* exchange with the dead rank (CommMatrix spikes, both
///     directions summed) — the rank that talked to the dead cores most
///     inherits them first, turning that former wire traffic into
///     shared-memory delivery;
///   * load-capped: no survivor is filled past ceil(cores / survivors), so
///     the repaired run stays balanced (the cap always admits every orphan);
///   * deterministic: ties break on the lowest rank id and orphans are
///     placed in ascending core order, so the same matrix always yields the
///     same assignment — which the migrate determinism suite relies on.
///
/// `measured` may be null (or sized for a different rank count): the order
/// then degrades to lowest-rank-first, still deterministic. Returns the new
/// rank_of_core vector (the dead rank owns nothing afterwards). Throws
/// PlacementError when dead_rank is out of range or is the only rank.
std::vector<int> replace_dead_rank(const runtime::Partition& partition,
                                   int dead_rank,
                                   const obs::CommMatrix* measured);

}  // namespace compass::place
