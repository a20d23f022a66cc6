// The benchmark's workloads. Each builds its inputs from the input seed,
// measures for at least `seconds`, and fills a Record.
#pragma once

#include <cstdint>
#include <string>

#include "record.h"

namespace perfbench {

struct HarnessOptions {
  std::string workload;
  std::uint64_t input_seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
};

/// cocomac_256 and dense_pgas.
void run_sim_workload(const HarnessOptions& opt, Record& rec, Spans& spans);

/// serve_loop.
void run_serve_loop(const HarnessOptions& opt, Record& rec, Spans& spans);

}  // namespace perfbench
