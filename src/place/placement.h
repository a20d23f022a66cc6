// Placement result, objective, evaluator, and the on-disk placement file.
//
// A Placement is the full answer the subsystem produces: a core->rank
// Partition plus an explicit rank->torus-node map. The objective every
// policy minimises (documented in DESIGN.md section 10) is
//
//   cost(P, m) = sum over graph edges {u, v} with P(u) != P(v) of
//                w(u, v) * (1 + hops(m(P(u)), m(P(v))))
//
// i.e. hop-weighted cut traffic: every cut edge pays its weight once for
// leaving shared memory, plus once per torus hop its bytes travel. Without a
// topology the hop term is zero and the objective is the plain weighted cut.
// evaluate() scores a placement against the predicted core graph;
// evaluate_comm_matrix() scores a *measured* rank->rank obs::CommMatrix the
// same way, which is how predictions are validated post-run and how
// `compass_prof --what-if` rescores a recorded trace offline.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/torus.h"
#include "obs/profile.h"
#include "place/comm_graph.h"
#include "runtime/partition.h"

namespace compass::place {

/// Typed error for every invalid-placement condition the subsystem detects
/// (unknown policy, malformed placement file, mismatched shapes).
class PlacementError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A complete placement: cores -> ranks -> torus nodes.
struct Placement {
  std::string policy;
  runtime::Partition partition;
  std::vector<int> node_of_rank;     // size ranks(); node ids on `torus_dims`
  std::array<int, 5> torus_dims = {1, 1, 1, 1, 1};
  int ranks_per_node = 1;
  double predicted_objective = 0.0;  // objective() at construction time
};

/// Default rank->node map: the transports' convention when no explicit map
/// is attached (node = rank / ranks_per_node, wrapped over the node count).
std::vector<int> identity_node_map(int ranks, int ranks_per_node, int nodes);

/// Score of one placement under one traffic description.
struct PlacementScore {
  double off_diag_weight = 0.0;  // cut traffic (graph units / bytes)
  double hop_weight = 0.0;       // sum of traffic * hops
  double objective = 0.0;        // off_diag_weight + hop_weight
  double max_load = 0.0;         // heaviest rank (cores)
  double mean_load = 0.0;
  double imbalance() const {
    return mean_load > 0.0 ? max_load / mean_load : 1.0;
  }
};

/// Score `partition` + `node_of_rank` against the predicted core graph.
/// `topology` may be null (hop term zero); `node_of_rank` may be empty
/// (identity map). Weights keep the graph's units.
PlacementScore evaluate(const CoreGraph& graph,
                        const runtime::Partition& partition,
                        std::span<const int> node_of_rank,
                        const comm::TorusTopology* topology);

/// Score a measured rank->rank matrix (wire bytes) under a rank->node map.
/// Diagonal cells never count: rank-local spikes do not touch the wire.
PlacementScore evaluate_comm_matrix(const obs::CommMatrix& matrix,
                                    std::span<const int> node_of_rank,
                                    const comm::TorusTopology* topology);

/// Shorthand: evaluate(...).objective.
double objective(const CoreGraph& graph, const runtime::Partition& partition,
                 std::span<const int> node_of_rank,
                 const comm::TorusTopology* topology);

// --- Placement file (text, versioned) --------------------------------------
// See DESIGN.md section 10 for the grammar. Round-trips exactly: the loaded
// assignment, node map, dims, and policy equal the saved ones.

void save_placement(std::ostream& os, const Placement& placement);

/// Parse a placement file. Malformed structure, a torus node count, rank
/// count or ranks x threads above 2^24, and a file with fewer entries than
/// its header declares throw PlacementError; an invalid core->rank
/// assignment (rank id out of range, empty) throws
/// runtime::PartitionError from Partition::from_rank_assignment — the loader
/// deliberately funnels untrusted input through that validation.
Placement load_placement(std::istream& is);

void save_placement_file(const std::string& path, const Placement& placement);
Placement load_placement_file(const std::string& path);

}  // namespace compass::place
