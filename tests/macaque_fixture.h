// The CoCoMac macaque model most suites run: a PCC compile of the
// seed-2012, 77-core spec onto 3 ranks x 2 threads unless the caller asks
// for another shape. The lockdown suites freeze their expectations against
// that default, so changing it changes what they pin.
#pragma once

#include <cstdint>

#include "cocomac/macaque.h"
#include "compiler/pcc.h"
#include "obs/metrics.h"

namespace compass::testing {

struct MacaqueFixture {
  std::uint64_t cores = 77;
  std::uint64_t seed = 2012;
  int ranks = 3;
  int threads = 2;
  obs::MetricsRegistry* metrics = nullptr;  // PCC publishes pcc.* here
};

inline compiler::PccResult compile_macaque(const MacaqueFixture& f = {}) {
  cocomac::MacaqueSpecOptions mopt;
  mopt.total_cores = f.cores;
  mopt.seed = f.seed;
  compiler::PccOptions popt;
  popt.ranks = f.ranks;
  popt.threads_per_rank = f.threads;
  return compiler::compile(cocomac::build_macaque_spec(mopt), popt,
                           f.metrics);
}

}  // namespace compass::testing
