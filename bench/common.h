// Shared harness for the figure benchmarks.
//
// Every bench binary prints (a) a provenance header naming the paper figure
// it regenerates, (b) a human-readable table, and (c) the same table as CSV
// (between BEGIN/END CSV markers) for plotting. Model sizes scale with the
// COMPASS_BENCH_SCALE environment variable (default 1.0) so the same
// binaries drive both quick CI runs and larger reproductions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/model.h"
#include "cocomac/macaque.h"
#include "comm/mpi_transport.h"
#include "comm/pgas_transport.h"
#include "compiler/pcc.h"
#include "runtime/compass.h"
#include "util/flags.h"
#include "util/table.h"

namespace compass::bench {

/// COMPASS_BENCH_SCALE (default 1.0): multiplies model sizes.
double bench_scale();

/// Parse a bench's argv: the shared observability flags
/// (runtime::ObsOptions::flags(): --trace-out, --chrome-out, --metrics-out,
/// --profile-out, --spike-trace-out, --spike-sample, --wallprof-out,
/// --analytics-out, --analytics-window) plus the bench's own `extra` rows.
/// Strict: an unknown flag, a bad value or a stray positional argument
/// prints usage and exits 1, and so does an output file that cannot be
/// opened — a typo must not silently run the bench without its outputs.
/// Call once, before the first run_model(). The outputs are shared by every
/// run_model() call: JSONL streams append across runs, the profile holds
/// the last run, and the Chrome trace and metrics snapshot are written at
/// process exit.
void init_obs(int argc, char** argv, std::vector<util::Flag> extra = {});

/// Scaled count: max(minimum, round(base * bench_scale())).
std::uint64_t scaled(std::uint64_t base, std::uint64_t minimum = 1);

/// Print the provenance header every bench starts with.
void print_header(const std::string& bench_name, const std::string& figure,
                  const std::string& paper_claim);

/// Print table + CSV block.
void print_results(const util::Table& table, const std::string& title);

/// Compile the CoCoMac macaque model at a given size/rank count.
compiler::PccResult compile_macaque(std::uint64_t total_cores, int ranks,
                                    int threads_per_rank = 1,
                                    double rate_hz = 8.0);

enum class TransportKind { kMpi, kPgas };

std::unique_ptr<comm::Transport> make_transport(TransportKind kind, int ranks);

/// Run `ticks` ticks of `model` (copied) under the given machine shape and
/// transport; returns the report. With `profile` true (or whenever a
/// --profile-out destination is configured) a ProfileCollector is attached,
/// so the returned report carries RunReport::profile — the imbalance /
/// critical-rank / overlap summary the scaling benches tabulate.
runtime::RunReport run_model(const arch::Model& model,
                             const runtime::Partition& partition,
                             TransportKind kind, arch::Tick ticks,
                             runtime::Config config = {},
                             bool profile = false);

/// Synthetic real-time workload of section VII-B: every core's neurons are
/// Poisson sources at `rate_hz`; 75% of neurons target a core on the same
/// *node* (ranks_per_node consecutive ranks), 25% target a remote node.
arch::Model build_realtime_workload(std::uint64_t cores, int ranks,
                                    int ranks_per_node, double rate_hz,
                                    double node_local_fraction = 0.75,
                                    std::uint64_t seed = 2012);

}  // namespace compass::bench
