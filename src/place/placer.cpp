#include "place/placer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/prng.h"

namespace compass::place {

namespace {

constexpr double kGainEps = 1e-9;  // strict-improvement threshold
// greedy-refine keeps per-rank core loads within load_bounds() at this
// tolerance.
constexpr double kBalanceTolerance = 0.05;
// greedy-refine / recursive-bisect sweeps.
constexpr int kMaxRefinePasses = 8;

void validate_options(const CoreGraph& graph, const PlacerOptions& options) {
  if (graph.num_cores() == 0) {
    throw PlacementError("placer: graph has no cores");
  }
  if (options.ranks <= 0) throw PlacementError("placer: ranks must be > 0");
  if (options.threads_per_rank <= 0) {
    throw PlacementError("placer: threads_per_rank must be > 0");
  }
  if (options.ranks_per_node < 1) {
    throw PlacementError("placer: ranks_per_node must be >= 1");
  }
}

std::vector<int> default_node_map(const PlacerOptions& options) {
  return identity_node_map(options.ranks, options.ranks_per_node,
                           options.topology ? options.topology->nodes() : 1);
}

Placement make_result(std::string policy, runtime::Partition partition,
                      std::vector<int> node_of_rank, const CoreGraph& graph,
                      const PlacerOptions& options) {
  Placement p;
  p.policy = std::move(policy);
  p.partition = std::move(partition);
  p.node_of_rank = std::move(node_of_rank);
  p.torus_dims = options.topology ? options.topology->dims()
                                  : std::array<int, 5>{1, 1, 1, 1, 1};
  p.ranks_per_node = options.ranks_per_node;
  p.predicted_objective =
      evaluate(graph, p.partition, p.node_of_rank, options.topology).objective;
  return p;
}

std::vector<int> assignment_of(const runtime::Partition& partition) {
  std::vector<int> a(partition.num_cores());
  for (std::size_t c = 0; c < a.size(); ++c) {
    a[c] = partition.rank_of(static_cast<arch::CoreId>(c));
  }
  return a;
}

double edge_weight(const CoreGraph& graph, arch::CoreId u, arch::CoreId v) {
  const auto ns = graph.neighbors(u);
  const auto it = std::lower_bound(
      ns.begin(), ns.end(), v,
      [](const GraphEdge& e, arch::CoreId core) { return e.to < core; });
  return (it != ns.end() && it->to == v) ? it->weight : 0.0;
}

// --- uniform ----------------------------------------------------------------

class UniformPlacer final : public Placer {
 public:
  std::string_view name() const override { return "uniform"; }
  Placement place(const CoreGraph& graph,
                  const PlacerOptions& options) const override {
    validate_options(graph, options);
    return make_result("uniform",
                       runtime::Partition::uniform(graph.num_cores(),
                                                   options.ranks,
                                                   options.threads_per_rank),
                       default_node_map(options), graph, options);
  }
};

// --- random -----------------------------------------------------------------

class RandomPlacer final : public Placer {
 public:
  std::string_view name() const override { return "random"; }
  Placement place(const CoreGraph& graph,
                  const PlacerOptions& options) const override {
    validate_options(graph, options);
    const std::size_t n = graph.num_cores();
    // Same per-rank block sizes as uniform, but a seeded permutation of
    // cores fills the blocks — identical loads, scrambled locality.
    std::vector<arch::CoreId> perm(n);
    std::iota(perm.begin(), perm.end(), arch::CoreId{0});
    util::CorePrng rng(util::derive_seed(options.seed, 0x706C6163ULL));
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j = rng.uniform_below(static_cast<std::uint32_t>(i));
      std::swap(perm[i - 1], perm[j]);
    }
    const runtime::Partition uniform = runtime::Partition::uniform(
        n, options.ranks, options.threads_per_rank);
    std::vector<int> assign(n);
    for (std::size_t i = 0; i < n; ++i) {
      assign[perm[i]] = uniform.rank_of(static_cast<arch::CoreId>(i));
    }
    return make_result("random",
                       runtime::Partition::from_rank_assignment(
                           std::move(assign), options.ranks,
                           options.threads_per_rank),
                       default_node_map(options), graph, options);
  }
};

// --- greedy-refine ----------------------------------------------------------

class GreedyRefinePlacer final : public Placer {
 public:
  std::string_view name() const override { return "greedy-refine"; }
  Placement place(const CoreGraph& graph,
                  const PlacerOptions& options) const override {
    validate_options(graph, options);
    const std::size_t n = graph.num_cores();
    const comm::TorusTopology* topo = options.topology;
    const std::vector<int> node = default_node_map(options);

    std::vector<int> assign = assignment_of(runtime::Partition::uniform(
        n, options.ranks, options.threads_per_rank));
    std::vector<std::size_t> load(static_cast<std::size_t>(options.ranks), 0);
    for (int r : assign) ++load[static_cast<std::size_t>(r)];
    const LoadBounds bounds =
        load_bounds(n, options.ranks, kBalanceTolerance);

    // Cost of core `u` sitting on rank `s`, given its per-neighbour-rank
    // weights `nw`: every edge to a different rank pays weight * (1 + hops).
    const auto cost_at = [&](int s,
                             const std::vector<std::pair<int, double>>& nw) {
      double cost = 0.0;
      for (const auto& [t, w] : nw) {
        if (t == s) continue;
        const double hop =
            topo ? static_cast<double>(topo->hops(
                       node[static_cast<std::size_t>(s)],
                       node[static_cast<std::size_t>(t)]))
                 : 0.0;
        cost += w * (1.0 + hop);
      }
      return cost;
    };

    std::vector<std::pair<int, double>> nw;  // rank -> adjacent weight
    for (int pass = 0; pass < kMaxRefinePasses; ++pass) {
      std::size_t moved = 0;
      for (std::size_t c = 0; c < n; ++c) {
        const arch::CoreId u = static_cast<arch::CoreId>(c);
        const int ru = assign[c];
        nw.clear();
        for (const GraphEdge& e : graph.neighbors(u)) {
          const int rv = assign[e.to];
          bool found = false;
          for (auto& [t, w] : nw) {
            if (t == rv) {
              w += e.weight;
              found = true;
              break;
            }
          }
          if (!found) nw.emplace_back(rv, e.weight);
        }
        if (nw.empty()) continue;
        if (load[static_cast<std::size_t>(ru)] <= bounds.min_load) continue;
        const double here = cost_at(ru, nw);
        int best_rank = ru;
        double best_delta = -kGainEps;
        for (const auto& [s, unused] : nw) {
          if (s == ru) continue;
          if (load[static_cast<std::size_t>(s)] + 1 > bounds.max_load) continue;
          const double delta = cost_at(s, nw) - here;
          if (delta < best_delta) {
            best_delta = delta;
            best_rank = s;
          }
        }
        if (best_rank != ru) {
          --load[static_cast<std::size_t>(ru)];
          ++load[static_cast<std::size_t>(best_rank)];
          assign[c] = best_rank;
          ++moved;
        }
      }
      if (moved == 0) break;
    }

    return make_result("greedy-refine",
                       runtime::Partition::from_rank_assignment(
                           std::move(assign), options.ranks,
                           options.threads_per_rank),
                       node, graph, options);
  }
};

// --- recursive-bisect -------------------------------------------------------

class RecursiveBisectPlacer final : public Placer {
 public:
  std::string_view name() const override { return "recursive-bisect"; }
  Placement place(const CoreGraph& graph,
                  const PlacerOptions& options) const override {
    validate_options(graph, options);
    const std::size_t n = graph.num_cores();
    // Per-rank target sizes == uniform's sizes, so the final loads are
    // exactly as balanced as the baseline whatever the recursion does.
    const runtime::Partition uniform = runtime::Partition::uniform(
        n, options.ranks, options.threads_per_rank);
    std::vector<std::size_t> target(static_cast<std::size_t>(options.ranks));
    for (int r = 0; r < options.ranks; ++r) {
      target[static_cast<std::size_t>(r)] = uniform.cores_of(r).size();
    }

    std::vector<int> assign(n, 0);
    std::vector<arch::CoreId> cores(n);
    std::iota(cores.begin(), cores.end(), arch::CoreId{0});
    State state{graph, target, assign,
                std::vector<int>(n, -1), 0,
                std::vector<char>(n, 0), std::vector<double>(n, 0.0)};
    bisect(state, cores, 0, options.ranks);

    return make_result("recursive-bisect",
                       runtime::Partition::from_rank_assignment(
                           std::move(assign), options.ranks,
                           options.threads_per_rank),
                       default_node_map(options), graph, options);
  }

 private:
  struct State {
    const CoreGraph& graph;
    const std::vector<std::size_t>& target;
    std::vector<int>& assign;
    std::vector<int> stamp;   // membership epoch per core
    int epoch;
    std::vector<char> side;   // 0 = left, 1 = right (valid when stamped)
    std::vector<double> dval; // KL D-value: external - internal weight
  };

  static void bisect(State& st, std::vector<arch::CoreId>& cores, int lo,
                     int hi) {
    if (hi - lo == 1) {
      for (arch::CoreId c : cores) st.assign[c] = lo;
      return;
    }
    const int mid = lo + (hi - lo) / 2;
    std::size_t left_target = 0;
    for (int r = lo; r < mid; ++r) {
      left_target += st.target[static_cast<std::size_t>(r)];
    }

    const int epoch = ++st.epoch;
    for (std::size_t i = 0; i < cores.size(); ++i) {
      st.stamp[cores[i]] = epoch;
      st.side[cores[i]] = i < left_target ? 0 : 1;
    }
    refine_bisection(st, cores, epoch);

    std::vector<arch::CoreId> left, right;
    left.reserve(left_target);
    right.reserve(cores.size() - left_target);
    for (arch::CoreId c : cores) {
      (st.side[c] == 0 ? left : right).push_back(c);
    }
    cores.clear();
    cores.shrink_to_fit();
    bisect(st, left, lo, mid);
    bisect(st, right, mid, hi);
  }

  /// Kernighan–Lin-style refinement with paired swaps: repeatedly swap the
  /// highest-D left core with the highest-D right core while the pair gain
  /// D(a) + D(b) - 2 w(a, b) is positive. Sizes never change; the cut
  /// strictly decreases, so the loop terminates.
  static void refine_bisection(State& st, const std::vector<arch::CoreId>& cores,
                               int epoch) {
    const auto in_subset = [&](arch::CoreId c) {
      return st.stamp[c] == epoch;
    };
    for (arch::CoreId c : cores) {
      double d = 0.0;
      for (const GraphEdge& e : st.graph.neighbors(c)) {
        if (!in_subset(e.to)) continue;
        d += st.side[e.to] != st.side[c] ? e.weight : -e.weight;
      }
      st.dval[c] = d;
    }
    const std::size_t max_swaps =
        cores.size() * static_cast<std::size_t>(kMaxRefinePasses);
    for (std::size_t iter = 0; iter < max_swaps; ++iter) {
      arch::CoreId best_l = 0, best_r = 0;
      double dl = -1e300, dr = -1e300;
      bool has_l = false, has_r = false;
      for (arch::CoreId c : cores) {
        if (st.side[c] == 0) {
          if (!has_l || st.dval[c] > dl) { dl = st.dval[c]; best_l = c; has_l = true; }
        } else {
          if (!has_r || st.dval[c] > dr) { dr = st.dval[c]; best_r = c; has_r = true; }
        }
      }
      if (!has_l || !has_r) break;
      const double gain =
          dl + dr - 2.0 * edge_weight(st.graph, best_l, best_r);
      if (gain <= kGainEps) break;
      st.side[best_l] = 1;
      st.side[best_r] = 0;
      for (const arch::CoreId moved : {best_l, best_r}) {
        for (const GraphEdge& e : st.graph.neighbors(moved)) {
          if (!in_subset(e.to) || e.to == best_l || e.to == best_r) continue;
          // The edge flipped internal<->external from e.to's perspective.
          st.dval[e.to] += st.side[e.to] != st.side[moved] ? 2.0 * e.weight
                                                          : -2.0 * e.weight;
        }
      }
      for (const arch::CoreId moved : {best_l, best_r}) {
        double d = 0.0;
        for (const GraphEdge& e : st.graph.neighbors(moved)) {
          if (!in_subset(e.to)) continue;
          d += st.side[e.to] != st.side[moved] ? e.weight : -e.weight;
        }
        st.dval[moved] = d;
      }
    }
  }
};

// --- sfc-torus --------------------------------------------------------------

class SfcTorusPlacer final : public Placer {
 public:
  std::string_view name() const override { return "sfc-torus"; }
  Placement place(const CoreGraph& graph,
                  const PlacerOptions& options) const override {
    validate_options(graph, options);
    const std::size_t n = graph.num_cores();
    runtime::Partition partition = runtime::Partition::uniform(
        n, options.ranks, options.threads_per_rank);
    const comm::TorusTopology* topo = options.topology;
    std::vector<int> identity = default_node_map(options);
    if (topo == nullptr || topo->nodes() <= 1) {
      return make_result("sfc-torus", std::move(partition),
                         std::move(identity), graph, options);
    }

    // Rank-pair traffic under the (uniform) partition.
    const int ranks = options.ranks;
    std::vector<double> rank_w(
        static_cast<std::size_t>(ranks) * static_cast<std::size_t>(ranks),
        0.0);
    for (std::size_t c = 0; c < n; ++c) {
      const arch::CoreId u = static_cast<arch::CoreId>(c);
      const int ru = partition.rank_of(u);
      for (const GraphEdge& e : graph.neighbors(u)) {
        if (e.to <= u) continue;
        const int rv = partition.rank_of(e.to);
        if (ru == rv) continue;
        rank_w[static_cast<std::size_t>(ru) * ranks + rv] += e.weight;
        rank_w[static_cast<std::size_t>(rv) * ranks + ru] += e.weight;
      }
    }

    // Fold ranks into logical nodes of ranks_per_node consecutive ranks
    // (the unit the torus actually places).
    const int rpn = options.ranks_per_node;
    const int lnodes = (ranks + rpn - 1) / rpn;
    std::vector<double> w(
        static_cast<std::size_t>(lnodes) * static_cast<std::size_t>(lnodes),
        0.0);
    for (int a = 0; a < ranks; ++a) {
      for (int b = 0; b < ranks; ++b) {
        w[static_cast<std::size_t>(a / rpn) * lnodes + b / rpn] +=
            rank_w[static_cast<std::size_t>(a) * ranks + b];
      }
    }

    // Greedy embedding along the snake curve: consecutive curve slots are
    // one hop apart, so placing mutually-heavy logical nodes in consecutive
    // slots keeps their traffic short-range.
    const std::vector<int> curve = snake_order(*topo);
    const auto slot_node = [&](std::size_t slot) {
      return curve[slot % curve.size()];
    };
    std::vector<int> slot_of(static_cast<std::size_t>(lnodes), -1);
    std::vector<char> placed(static_cast<std::size_t>(lnodes), 0);
    // Seed the curve with the heaviest-traffic logical node.
    int first = 0;
    double first_w = -1.0;
    for (int l = 0; l < lnodes; ++l) {
      double tw = 0.0;
      for (int m = 0; m < lnodes; ++m) {
        tw += w[static_cast<std::size_t>(l) * lnodes + m];
      }
      if (tw > first_w) {
        first_w = tw;
        first = l;
      }
    }
    slot_of[static_cast<std::size_t>(first)] = 0;
    placed[static_cast<std::size_t>(first)] = 1;
    for (int s = 1; s < lnodes; ++s) {
      const int next_node = slot_node(static_cast<std::size_t>(s));
      int best = -1;
      double best_attraction = -1.0;
      for (int cand = 0; cand < lnodes; ++cand) {
        if (placed[static_cast<std::size_t>(cand)]) continue;
        double attraction = 0.0;
        for (int m = 0; m < lnodes; ++m) {
          if (!placed[static_cast<std::size_t>(m)]) continue;
          const double traffic =
              w[static_cast<std::size_t>(cand) * lnodes + m];
          if (traffic == 0.0) continue;
          const int other =
              slot_node(static_cast<std::size_t>(slot_of[static_cast<std::size_t>(m)]));
          attraction += traffic / (1.0 + topo->hops(next_node, other));
        }
        if (attraction > best_attraction) {
          best_attraction = attraction;
          best = cand;
        }
      }
      slot_of[static_cast<std::size_t>(best)] = s;
      placed[static_cast<std::size_t>(best)] = 1;
    }

    std::vector<int> sfc_map(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      sfc_map[static_cast<std::size_t>(r)] = slot_node(
          static_cast<std::size_t>(slot_of[static_cast<std::size_t>(r / rpn)]));
    }

    // Keep whichever embedding scores better; the curve never loses to the
    // default map by construction of this guard.
    const double sfc_obj = objective(graph, partition, sfc_map, topo);
    const double id_obj = objective(graph, partition, identity, topo);
    return make_result("sfc-torus", std::move(partition),
                       sfc_obj < id_obj ? std::move(sfc_map)
                                        : std::move(identity),
                       graph, options);
  }
};

}  // namespace

LoadBounds load_bounds(std::size_t cores, int ranks, double tolerance) {
  if (ranks <= 0) throw PlacementError("load_bounds: ranks must be > 0");
  if (tolerance < 0.0) tolerance = 0.0;
  const double mean = static_cast<double>(cores) / ranks;
  LoadBounds b;
  b.max_load = static_cast<std::size_t>(
      std::max(std::ceil(mean), std::ceil(mean * (1.0 + tolerance))));
  b.min_load = static_cast<std::size_t>(
      std::min(std::floor(mean), std::floor(mean * (1.0 - tolerance))));
  return b;
}

std::vector<int> snake_order(const comm::TorusTopology& topology) {
  const std::array<int, 5>& dims = topology.dims();
  const int n = topology.nodes();
  std::array<long long, 5> stride{};
  stride[4] = 1;
  for (int i = 3; i >= 0; --i) {
    stride[static_cast<std::size_t>(i)] =
        stride[static_cast<std::size_t>(i + 1)] *
        dims[static_cast<std::size_t>(i + 1)];
  }
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    long long rem = k;
    int parity = 0;
    long long id = 0;
    for (int i = 0; i < 5; ++i) {
      const int q = static_cast<int>(rem / stride[static_cast<std::size_t>(i)]);
      rem %= stride[static_cast<std::size_t>(i)];
      // Reverse this dimension's sweep on every other pass. A pass count is
      // the mixed-radix number formed by the more significant raw digits —
      // its *value* parity, not its digit sum (they differ when an
      // intermediate radix is even, e.g. a 2x2x... torus).
      const int digit =
          parity == 0 ? q : dims[static_cast<std::size_t>(i)] - 1 - q;
      parity = (parity * dims[static_cast<std::size_t>(i)] + q) % 2;
      id = id * dims[static_cast<std::size_t>(i)] + digit;
    }
    order[static_cast<std::size_t>(k)] = static_cast<int>(id);
  }
  return order;
}

std::unique_ptr<Placer> make_placer(std::string_view policy) {
  if (policy == "uniform") return std::make_unique<UniformPlacer>();
  if (policy == "random") return std::make_unique<RandomPlacer>();
  if (policy == "greedy-refine") return std::make_unique<GreedyRefinePlacer>();
  if (policy == "recursive-bisect") {
    return std::make_unique<RecursiveBisectPlacer>();
  }
  if (policy == "sfc-torus") return std::make_unique<SfcTorusPlacer>();
  throw PlacementError("unknown placement policy '" + std::string(policy) +
                       "' (expected uniform, random, greedy-refine, "
                       "recursive-bisect, or sfc-torus)");
}

std::vector<std::string> placer_names() {
  return {"uniform", "random", "greedy-refine", "recursive-bisect",
          "sfc-torus"};
}

std::vector<int> replace_dead_rank(const runtime::Partition& partition,
                                   int dead_rank,
                                   const obs::CommMatrix* measured) {
  const int ranks = partition.ranks();
  if (dead_rank < 0 || dead_rank >= ranks) {
    throw PlacementError("replace_dead_rank: rank " +
                         std::to_string(dead_rank) + " outside [0, " +
                         std::to_string(ranks) + ")");
  }
  if (ranks < 2) {
    throw PlacementError(
        "replace_dead_rank: the dead rank is the only rank — nothing can "
        "inherit its cores");
  }

  const std::size_t cores = partition.num_cores();
  std::vector<int> rank_of(cores);
  for (std::size_t c = 0; c < cores; ++c) {
    rank_of[c] = partition.rank_of(static_cast<arch::CoreId>(c));
  }
  const std::span<const arch::CoreId> orphans = partition.cores_of(dead_rank);
  if (orphans.empty()) return rank_of;

  // Survivors, most-affine first. Affinity is the measured spike exchange
  // with the dead rank in both directions; without a usable matrix every
  // affinity is zero and the lowest-rank tiebreak alone orders them.
  struct Survivor {
    int rank;
    std::uint64_t affinity;
    std::size_t load;
  };
  std::vector<Survivor> survivors;
  survivors.reserve(static_cast<std::size_t>(ranks - 1));
  const bool usable =
      measured != nullptr && measured->ranks() == ranks;
  for (int r = 0; r < ranks; ++r) {
    if (r == dead_rank) continue;
    const std::uint64_t affinity =
        usable ? measured->at(dead_rank, r).spikes +
                     measured->at(r, dead_rank).spikes
               : 0;
    survivors.push_back({r, affinity, partition.cores_of(r).size()});
  }
  std::stable_sort(survivors.begin(), survivors.end(),
                   [](const Survivor& a, const Survivor& b) {
                     if (a.affinity != b.affinity) {
                       return a.affinity > b.affinity;
                     }
                     return a.rank < b.rank;
                   });

  // Load cap = ceil(cores / survivors): while orphans remain unplaced the
  // survivors' total load is below the core count, so at least one survivor
  // sits under the cap — every orphan always finds a home.
  const std::size_t cap =
      (cores + survivors.size() - 1) / survivors.size();
  for (const arch::CoreId orphan : orphans) {
    for (Survivor& s : survivors) {
      if (s.load < cap) {
        rank_of[orphan] = s.rank;
        ++s.load;
        break;
      }
    }
  }
  return rank_of;
}

}  // namespace compass::place
