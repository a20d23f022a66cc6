// Virtual-time accounting for the emulated parallel machine.
//
// The paper's scaling figures plot wall-clock time per simulation phase on a
// real Blue Gene. Here, ranks execute one after another on a single host
// CPU; their compute phases are *measured*, communication costs are
// *modelled* (src/comm/cost_model.h), and this ledger composes the per-rank
// values into the per-tick makespan a bulk-synchronous parallel machine
// would achieve:
//
//   tick = max_r(synapse_r)                                 (Synapse phase)
//        + max_r(neuron_r + aggregate_r + send_r)           (Neuron phase,
//          incl. per-destination aggregation + message injection)
//        + max(max_r(sync_r), max_r(local_deliver_r))       (Network phase:
//          Reduce-Scatter / barrier OVERLAPPED with local delivery — the
//          paper's key Network-phase optimisation)
//        + max_r(recv_r + remote_deliver_r)                 (message receive
//          critical section + remote spike delivery)
//
// All phase boundaries are global synchronisation points, matching the
// semi-synchronous execution of Listing 1 (OpenMP barriers within a rank,
// collective completion across ranks).
#pragma once

#include <cstdint>
#include <vector>

namespace compass::perf {

/// One rank's contributions to one tick, in seconds. Measured fields come
/// from host timers (never reproducible run-to-run); modelled fields come
/// from the communication cost model (deterministic for a fixed model).
/// The observability layer (src/obs/) relies on this separation to emit
/// trace records whose modelled half is stable.
struct RankTickTimes {
  double synapse = 0.0;         // measured crossbar propagation
  double neuron = 0.0;          // measured integrate-leak-fire
  double aggregate = 0.0;       // measured per-destination send aggregation
  double send = 0.0;            // modelled message injection
  double local_deliver = 0.0;   // measured local spike delivery / threads
  double sync = 0.0;            // modelled Reduce-Scatter or barrier
  double recv = 0.0;            // modelled probe/recv critical section
  double remote_deliver = 0.0;  // measured remote spike delivery / threads
};

/// Composed per-tick (or per-run) phase breakdown for the whole machine.
struct PhaseBreakdown {
  double synapse = 0.0;
  double neuron = 0.0;  // includes send/aggregation, as in Listing 1
  double network = 0.0;
  double total() const { return synapse + neuron + network; }

  PhaseBreakdown& operator+=(const PhaseBreakdown& o) {
    synapse += o.synapse;
    neuron += o.neuron;
    network += o.network;
    return *this;
  }
};

/// Which rank set each slice of one tick's makespan, plus the network-phase
/// legs the overlap diagnostics need. Filled by compose_tick() when a
/// profiler asks for attribution (src/obs/profile.h).
///
/// Attribution rules (ties go to the lowest rank):
///   * synapse_rank / neuron_rank — the argmax rank of the slice, exactly
///     the rank whose barrier-to-barrier time the machine waited for.
///   * network_rank — the network slice is a sum of two terms,
///     max(max_sync, max_local) and max(recv + remote_deliver); the critical
///     rank is the one attaining the larger term (the biggest single
///     contribution to the slice). Without overlap the three leg maxima
///     compete directly.
///   * hidden_s — how much of the collective was hidden by local delivery
///     this tick: min(max_sync, max_local) under overlap, 0 without it.
struct TickAttribution {
  int synapse_rank = 0;
  int neuron_rank = 0;
  int network_rank = 0;
  double sync_s = 0.0;    // max_r(sync_r)
  double local_s = 0.0;   // max_r(local_deliver_r)
  double recv_s = 0.0;    // max_r(recv_r + remote_deliver_r)
  double hidden_s = 0.0;  // collective time hidden by local delivery
};

/// Compose one tick's rank times into the machine makespan. With
/// `overlap_collective` false (ablation A2), the Reduce-Scatter no longer
/// hides local delivery: network = sync + local + recv. When `attribution`
/// is non-null it is filled with the critical-rank/overlap breakdown.
PhaseBreakdown compose_tick(const std::vector<RankTickTimes>& ranks,
                            bool overlap_collective = true,
                            TickAttribution* attribution = nullptr);

/// Accumulates composed breakdowns over a run and tracks how much real
/// (host) wall-clock the emulation itself consumed.
class RunLedger {
 public:
  explicit RunLedger(int ranks, bool overlap_collective = true)
      : scratch_(static_cast<std::size_t>(ranks)),
        overlap_(overlap_collective) {}

  /// Per-tick scratch area the runtime fills in; commit_tick() composes and
  /// resets it, returning the tick's composed breakdown (what the trace
  /// layer records per tick — summing the returned values reproduces
  /// totals() exactly). A non-null `attribution` receives the tick's
  /// critical-rank/overlap breakdown (profiling).
  std::vector<RankTickTimes>& tick_scratch() { return scratch_; }
  PhaseBreakdown commit_tick(TickAttribution* attribution = nullptr);

  const PhaseBreakdown& totals() const { return totals_; }
  std::uint64_t ticks() const { return ticks_; }

  /// Checkpoint/restart: overwrite the accumulated totals and tick count
  /// with values captured by a prior run, so a resumed simulation composes
  /// its virtual time on top of the pre-checkpoint history.
  void restore(const PhaseBreakdown& totals, std::uint64_t ticks) {
    totals_ = totals;
    ticks_ = ticks;
  }

 private:
  std::vector<RankTickTimes> scratch_;
  PhaseBreakdown totals_{};
  std::uint64_t ticks_ = 0;
  bool overlap_ = true;
};

}  // namespace compass::perf
