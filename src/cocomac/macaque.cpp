#include "cocomac/macaque.h"

#include <cmath>
#include <vector>

#include "util/prng.h"

namespace compass::cocomac {

using compiler::RegionClass;

namespace {

constexpr std::uint64_t kVolumeSalt = 0x564F4C00ULL;  // "VOL"

// Self (gray-matter) fractions: 60/40 long-range/local for cortex, 80/20 for
// thalamus and basal ganglia.
constexpr double kCorticalSelf = 0.4;
constexpr double kSubcorticalSelf = 0.2;

// Reporting regions whose Paxinos volume is withheld (section V-A).
constexpr unsigned kUnknownCortical = 5;
constexpr unsigned kUnknownThalamic = 8;

double lognormal(util::CorePrng& prng, double mu, double sigma) {
  const double u1 = std::max(prng.uniform_double(), 1e-12);
  const double u2 = prng.uniform_double();
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return std::exp(mu + sigma * z);
}

}  // namespace

compiler::Spec build_macaque_spec(const ReducedGraph& graph,
                                  const MacaqueSpecOptions& options) {
  compiler::Spec spec;
  spec.name = "cocomac-macaque";
  spec.seed = options.seed;
  spec.total_cores = options.total_cores;

  // Reporting regions become the simulated network; slot -> spec index map
  // for edges.
  std::vector<int> spec_index(graph.num_regions(), -1);
  util::CorePrng vol_prng(util::derive_seed(options.seed ^ kVolumeSalt, 1));

  unsigned cortical_seen = 0, thalamic_seen = 0;
  unsigned cortical_total = 0, thalamic_total = 0;
  for (std::size_t i = 0; i < graph.num_regions(); ++i) {
    if (!graph.reports[i]) continue;
    if (graph.classes[i] == RegionClass::kCortical) ++cortical_total;
    if (graph.classes[i] == RegionClass::kThalamic) ++thalamic_total;
  }

  for (std::size_t i = 0; i < graph.num_regions(); ++i) {
    if (!graph.reports[i]) continue;
    compiler::RegionDecl r;
    r.name = graph.names[i];
    r.cls = graph.classes[i];
    r.self_fraction =
        r.cls == RegionClass::kCortical ? kCorticalSelf : kSubcorticalSelf;
    r.rate_hz = options.rate_hz;

    // Cortical regions are larger on average than subcortical nuclei.
    const double mu = r.cls == RegionClass::kCortical ? std::log(120.0)
                      : r.cls == RegionClass::kThalamic ? std::log(25.0)
                                                        : std::log(40.0);
    const double volume = lognormal(vol_prng, mu, 0.8);

    // Withhold the volumes of the *last* N cortical/thalamic reporting
    // regions (deterministic, mirrors the 5 + 8 missing Paxinos entries).
    bool withhold = false;
    if (r.cls == RegionClass::kCortical) {
      ++cortical_seen;
      withhold = cortical_seen > cortical_total - kUnknownCortical;
    } else if (r.cls == RegionClass::kThalamic) {
      ++thalamic_seen;
      withhold = thalamic_seen > thalamic_total - kUnknownThalamic;
    }
    if (!withhold) r.volume = volume;

    spec_index[i] = static_cast<int>(spec.regions.size());
    spec.regions.push_back(std::move(r));
  }

  // Canonical strong pathways get a higher weight than the generic study
  // edges, mirroring the focused high-bandwidth projections (e.g. the
  // retino-geniculo-cortical LGN->V1 pathway of figure 3's worked example).
  auto canonical_weight = [](const std::string& src, const std::string& dst) {
    static const std::pair<const char*, const char*> strong[] = {
        {"LGN", "V1"}, {"V1", "V2"}, {"V2", "V4"}, {"V4", "TEO"}, {"V1", "MT"},
    };
    for (const auto& [a, b] : strong) {
      if (src == a && dst == b) return 4.0;
    }
    return 1.0;
  };
  for (std::size_t s = 0; s < graph.num_regions(); ++s) {
    if (spec_index[s] < 0) continue;
    for (std::size_t t = 0; t < graph.num_regions(); ++t) {
      if (spec_index[t] < 0 || s == t) continue;
      if (graph.adjacency(s, t)) {
        spec.edges.push_back({graph.names[s], graph.names[t],
                              canonical_weight(graph.names[s], graph.names[t])});
      }
    }
  }
  return spec;
}

compiler::Spec build_macaque_spec(const MacaqueSpecOptions& options) {
  const RawGraph raw = build_synthetic_cocomac();
  const ReducedGraph reduced = reduce(raw);
  return build_macaque_spec(reduced, options);
}

}  // namespace compass::cocomac
