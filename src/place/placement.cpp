#include "place/placement.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

namespace compass::place {

namespace {

/// Upper bound load_placement() puts on the torus node count, the rank
/// count and ranks x threads before it trusts them: 16M, far above a full
/// Sequoia (98,304 nodes x 16 ranks per node).
constexpr int kMaxPlacementCount = 1 << 24;

int node_for_rank(int rank, std::span<const int> node_of_rank, int nodes) {
  if (!node_of_rank.empty()) return node_of_rank[static_cast<std::size_t>(rank)];
  return nodes > 0 ? rank % nodes : 0;
}

void check_node_map(std::span<const int> node_of_rank, int ranks,
                    const comm::TorusTopology* topology) {
  if (node_of_rank.empty()) return;
  if (static_cast<int>(node_of_rank.size()) != ranks) {
    throw PlacementError("placement: node map size does not match rank count");
  }
  const int nodes = topology ? topology->nodes() : std::numeric_limits<int>::max();
  for (int n : node_of_rank) {
    if (n < 0 || n >= nodes) {
      throw PlacementError("placement: node id outside topology");
    }
  }
}

}  // namespace

std::vector<int> identity_node_map(int ranks, int ranks_per_node, int nodes) {
  if (ranks_per_node < 1) ranks_per_node = 1;
  if (nodes < 1) nodes = 1;
  std::vector<int> map(static_cast<std::size_t>(ranks > 0 ? ranks : 0));
  for (int r = 0; r < ranks; ++r) {
    map[static_cast<std::size_t>(r)] = (r / ranks_per_node) % nodes;
  }
  return map;
}

PlacementScore evaluate(const CoreGraph& graph,
                        const runtime::Partition& partition,
                        std::span<const int> node_of_rank,
                        const comm::TorusTopology* topology) {
  if (graph.num_cores() != partition.num_cores()) {
    throw PlacementError("placement: graph and partition core counts differ");
  }
  check_node_map(node_of_rank, partition.ranks(), topology);

  PlacementScore score;
  const std::size_t num_cores = graph.num_cores();
  const int nodes = topology ? topology->nodes() : 1;
  for (std::size_t c = 0; c < num_cores; ++c) {
    const arch::CoreId u = static_cast<arch::CoreId>(c);
    const int ru = partition.rank_of(u);
    for (const GraphEdge& e : graph.neighbors(u)) {
      if (e.to <= u) continue;  // each undirected edge scored once
      const int rv = partition.rank_of(e.to);
      if (ru == rv) continue;
      score.off_diag_weight += e.weight;
      if (topology) {
        const int nu = node_for_rank(ru, node_of_rank, nodes);
        const int nv = node_for_rank(rv, node_of_rank, nodes);
        score.hop_weight += e.weight * topology->hops(nu, nv);
      }
    }
  }
  score.objective = score.off_diag_weight + score.hop_weight;

  double max_load = 0.0;
  for (int r = 0; r < partition.ranks(); ++r) {
    max_load = std::max(max_load,
                        static_cast<double>(partition.cores_of(r).size()));
  }
  score.max_load = max_load;
  score.mean_load = partition.ranks() > 0
                        ? static_cast<double>(num_cores) / partition.ranks()
                        : 0.0;
  return score;
}

PlacementScore evaluate_comm_matrix(const obs::CommMatrix& matrix,
                                    std::span<const int> node_of_rank,
                                    const comm::TorusTopology* topology) {
  check_node_map(node_of_rank, matrix.ranks(), topology);
  PlacementScore score;
  const int ranks = matrix.ranks();
  const int nodes = topology ? topology->nodes() : 1;
  for (int src = 0; src < ranks; ++src) {
    for (int dst = 0; dst < ranks; ++dst) {
      if (src == dst) continue;  // rank-local spikes never touch the wire
      const double bytes = static_cast<double>(matrix.at(src, dst).bytes);
      if (bytes == 0.0) continue;
      score.off_diag_weight += bytes;
      if (topology) {
        const int ns = node_for_rank(src, node_of_rank, nodes);
        const int nd = node_for_rank(dst, node_of_rank, nodes);
        score.hop_weight += bytes * topology->hops(ns, nd);
      }
    }
  }
  score.objective = score.off_diag_weight + score.hop_weight;
  return score;
}

double objective(const CoreGraph& graph, const runtime::Partition& partition,
                 std::span<const int> node_of_rank,
                 const comm::TorusTopology* topology) {
  return evaluate(graph, partition, node_of_rank, topology).objective;
}

// --- Placement file ---------------------------------------------------------

void save_placement(std::ostream& os, const Placement& placement) {
  const runtime::Partition& p = placement.partition;
  os << "compass-placement v1\n";
  os << "policy " << (placement.policy.empty() ? "unknown" : placement.policy)
     << "\n";
  os << "cores " << p.num_cores() << "\n";
  os << "ranks " << p.ranks() << "\n";
  os << "threads " << p.threads_per_rank() << "\n";
  os << "ranks_per_node " << placement.ranks_per_node << "\n";
  os << "torus";
  for (int d : placement.torus_dims) os << ' ' << d;
  os << "\n";
  os << "objective " << std::setprecision(17) << placement.predicted_objective
     << "\n";
  os << "nodes";
  for (int r = 0; r < p.ranks(); ++r) {
    const std::size_t i = static_cast<std::size_t>(r);
    os << ' '
       << (i < placement.node_of_rank.size() ? placement.node_of_rank[i] : 0);
  }
  os << "\n";
  os << "assign";
  for (std::size_t c = 0; c < p.num_cores(); ++c) {
    os << ' ' << p.rank_of(static_cast<arch::CoreId>(c));
  }
  os << "\n";
}

namespace {

void expect_keyword(std::istream& is, const char* keyword) {
  std::string tok;
  if (!(is >> tok) || tok != keyword) {
    throw PlacementError(std::string("placement file: expected '") + keyword +
                         "', got '" + tok + "'");
  }
}

template <typename T>
T read_value(std::istream& is, const char* what) {
  T v{};
  if (!(is >> v)) {
    throw PlacementError(std::string("placement file: bad value for ") + what);
  }
  return v;
}

}  // namespace

Placement load_placement(std::istream& is) {
  expect_keyword(is, "compass-placement");
  expect_keyword(is, "v1");
  expect_keyword(is, "policy");
  Placement out;
  out.policy = read_value<std::string>(is, "policy");
  expect_keyword(is, "cores");
  const auto cores = read_value<long long>(is, "cores");
  expect_keyword(is, "ranks");
  const int ranks = read_value<int>(is, "ranks");
  expect_keyword(is, "threads");
  const int threads = read_value<int>(is, "threads");
  expect_keyword(is, "ranks_per_node");
  out.ranks_per_node = read_value<int>(is, "ranks_per_node");
  if (cores <= 0) throw PlacementError("placement file: cores must be > 0");
  if (out.ranks_per_node < 1) {
    throw PlacementError("placement file: ranks_per_node must be >= 1");
  }
  expect_keyword(is, "torus");
  long long torus_nodes = 1;
  for (int d = 0; d < 5; ++d) {
    const int dim = read_value<int>(is, "torus dimension");
    if (dim < 1) {
      throw PlacementError("placement file: torus dimension must be >= 1");
    }
    // torus_nodes <= kMaxPlacementCount and dim fits in an int, so the
    // product fits in a long long and is bounded before the next multiply.
    torus_nodes *= dim;
    if (torus_nodes > kMaxPlacementCount) {
      throw PlacementError("placement file: torus has more than " +
                           std::to_string(kMaxPlacementCount) + " nodes");
    }
    out.torus_dims[static_cast<std::size_t>(d)] = dim;
  }
  expect_keyword(is, "objective");
  out.predicted_objective = read_value<double>(is, "objective");
  expect_keyword(is, "nodes");
  if (ranks <= 0 || ranks > kMaxPlacementCount) {
    throw PlacementError("placement file: ranks must be in [1, " +
                         std::to_string(kMaxPlacementCount) + "]");
  }
  if (threads > 0 && static_cast<long long>(ranks) * threads >
                         kMaxPlacementCount) {
    throw PlacementError("placement file: ranks x threads exceeds " +
                         std::to_string(kMaxPlacementCount));
  }
  // Both lists grow as entries are read rather than being sized from the
  // header, so a truncated or lying file fails on its missing entries.
  for (int r = 0; r < ranks; ++r) {
    const int node = read_value<int>(is, "node id");
    if (node < 0 || node >= torus_nodes) {
      throw PlacementError("placement file: node id outside torus");
    }
    out.node_of_rank.push_back(node);
  }
  expect_keyword(is, "assign");
  std::vector<int> rank_of_core;
  for (long long c = 0; c < cores; ++c) {
    rank_of_core.push_back(read_value<int>(is, "core rank"));
  }
  // Rank-id range validation lives in Partition::from_rank_assignment
  // (PartitionError) — the one funnel every untrusted assignment goes
  // through, placement files included.
  out.partition = runtime::Partition::from_rank_assignment(
      std::move(rank_of_core), ranks, threads);
  return out;
}

void save_placement_file(const std::string& path, const Placement& placement) {
  std::ofstream os(path);
  if (!os) throw PlacementError("placement: cannot open for write: " + path);
  save_placement(os, placement);
  if (!os) throw PlacementError("placement: write failed: " + path);
}

Placement load_placement_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw PlacementError("placement: cannot open: " + path);
  return load_placement(is);
}

}  // namespace compass::place
