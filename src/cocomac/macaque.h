// Macaque test-network builder: turns the reduced CoCoMac graph into the
// CoreObject spec PCC compiles (paper section V).
//
// Volumes substitute the Paxinos atlas with a seeded lognormal draw; 5
// cortical and 8 thalamic regions are deliberately left `unknown` and
// imputed with their class median downstream, exactly mirroring section V-A
// ("Volume information was not available for 5 cortical and 8 thalamic
// regions and so was approximated using the median size of the other
// cortical or thalamic regions").
//
// Gray/white splits follow section V-C: "approximately a 60/40 ratio for
// cortical regions, and in an 80/20 ratio for non-cortical regions" of long
// range to local connectivity — i.e. self fractions of 0.4 and 0.2.
#pragma once

#include <cstdint>

#include "cocomac/graph.h"
#include "compiler/coreobject.h"

namespace compass::cocomac {

struct MacaqueSpecOptions {
  std::uint64_t total_cores = 4096;
  std::uint64_t seed = 42;   // model + volume seed
  double rate_hz = 8.0;      // target mean firing rate (paper: 8.1 Hz)
};

/// Build the 77-region macaque CoreObject spec from a reduced graph.
compiler::Spec build_macaque_spec(const ReducedGraph& graph,
                                  const MacaqueSpecOptions& options = {});

/// Convenience: generate the synthetic CoCoMac database (default graph
/// seed), reduce it, and build the spec in one call.
compiler::Spec build_macaque_spec(const MacaqueSpecOptions& options = {});

}  // namespace compass::cocomac
