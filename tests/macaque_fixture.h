// The shared scaffold of the suites that hold the simulator to its central
// contract: a run is bit-identical on either transport and at any OpenMP
// width.
//
//   * compile_macaque — the CoCoMac macaque model most suites run: a PCC
//     compile of the seed-2012, 77-core spec onto 3 ranks x 2 threads
//     unless the caller asks for another shape. The lockdown suites freeze
//     their expectations against that default, so changing it changes what
//     they pin.
//   * kTransports — both transports, for comm::make_transport.
//   * OmpWidth — the OpenMP team width a sweep runs at, restored on every
//     exit.
//   * expect_reports_equal — every functional RunReport counter compared.
#pragma once

#include <gtest/gtest.h>

#ifdef COMPASS_HAVE_OPENMP
#include <omp.h>
#endif

#include <cstdint>

#include "cocomac/macaque.h"
#include "comm/transport.h"
#include "compiler/pcc.h"
#include "obs/metrics.h"
#include "runtime/compass.h"

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

/// The two transports a contract sweep runs on.
inline constexpr comm::TransportKind kTransports[] = {
    comm::TransportKind::kMpi, comm::TransportKind::kPgas};

/// Runs the OpenMP team at `width` threads while the guard lives and puts
/// the previous width back when it goes, a failed ASSERT_ included. A no-op
/// in a build without OpenMP.
class OmpWidth {
 public:
  explicit OmpWidth(int width) : saved_(set(width)) {}
  ~OmpWidth() { set(saved_); }
  OmpWidth(const OmpWidth&) = delete;
  OmpWidth& operator=(const OmpWidth&) = delete;

 private:
  /// Sets the width and returns the one it replaced.
  static int set(int width) {
#ifdef COMPASS_HAVE_OPENMP
    const int previous = omp_get_max_threads();
    omp_set_num_threads(width);
    return previous;
#else
    return width;
#endif
  }

  int saved_;
};

/// Expects `a` and `b` to agree on every functional RunReport counter: the
/// ticks, the spike and synaptic-event counts, messages and wire bytes, and
/// the fault and recovery totals. With `virtual_time` set the modelled
/// phase times must agree too; they are deterministic only in runs made
/// with Config::measure = false.
inline void expect_reports_equal(const runtime::RunReport& a,
                                 const runtime::RunReport& b,
                                 bool virtual_time = false) {
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.fired_spikes, b.fired_spikes);
  EXPECT_EQ(a.routed_spikes, b.routed_spikes);
  EXPECT_EQ(a.local_spikes, b.local_spikes);
  EXPECT_EQ(a.remote_spikes, b.remote_spikes);
  EXPECT_EQ(a.synaptic_events, b.synaptic_events);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.messages_retried, b.messages_retried);
  EXPECT_EQ(a.spikes_lost, b.spikes_lost);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.recovery_ticks_lost, b.recovery_ticks_lost);
  if (virtual_time) {
    EXPECT_DOUBLE_EQ(a.virtual_time.synapse, b.virtual_time.synapse);
    EXPECT_DOUBLE_EQ(a.virtual_time.neuron, b.virtual_time.neuron);
    EXPECT_DOUBLE_EQ(a.virtual_time.network, b.virtual_time.network);
  }
}

}  // namespace compass::testing
