// Transport interface: the Network-phase communication substrate.
//
// Compass's main loop (paper Listing 1) is written against this interface.
// Two implementations mirror the paper's two communication models:
//   * MpiTransport  — two-sided messaging: per-destination aggregation into
//     transit buffers with message envelopes, a Reduce-Scatter step so each
//     rank learns its incoming message count, and a serialised probe/recv
//     critical section on the receiver (section III).
//   * PgasTransport — one-sided messaging: senders put spikes directly into
//     pre-allocated, globally addressed landing buffers on the target rank,
//     then a single global barrier ends the tick (section VII).
//
// Both move real spike data between real per-rank structures; the physical
// wire is replaced by in-process copies plus a calibrated cost model whose
// per-rank virtual times the runtime folds into the scaling figures.
// make_transport() is the one place that picks between the two: the CLI's
// --transport, the benches and the transport x width contract tests all
// go through it.
//
// A transport only moves spikes and accounts for them. runtime::Compass is
// the one place observability attaches: it reads tick_stats()/tick_faults()
// into the metrics registry, times exchange() for the wall profiler, and
// forwards only the two per-message hooks, the comm matrix and the flight
// recorder, to the transport.
//
// Threading contract: transports are driven by the virtual-machine loop on
// one OS thread; calls are not synchronised. The *receiver-side* critical
// section of real MPI is represented in the cost model (mpi_recv_cost), not
// with actual locks.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "arch/spike.h"
#include "comm/cost_model.h"
#include "comm/torus.h"
#include "obs/flightrec.h"
#include "obs/profile.h"

namespace compass::comm {

/// Functional communication counters for one tick — these are the exact,
/// deterministic quantities figure 4(b) plots (message count, spike count,
/// and derived GB/tick).
struct TickCommStats {
  std::uint64_t messages = 0;       // point-to-point messages (or puts)
  std::uint64_t remote_spikes = 0;  // spikes that crossed rank boundaries
  std::uint64_t wire_bytes = 0;     // at the configured bytes-per-spike

  void reset() { *this = TickCommStats{}; }
};

/// One rank's functional communication counters for one tick, split by
/// direction — what the per-(tick, rank, phase) trace records report.
struct RankCommStats {
  std::uint64_t msgs_sent = 0;
  std::uint64_t spikes_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t spikes_recv = 0;
  std::uint64_t bytes_recv = 0;

  void reset() { *this = RankCommStats{}; }
};

/// An incoming aggregated message as seen by a receiving rank.
struct InMessage {
  int src = -1;
  std::span<const arch::WireSpike> spikes;
};

/// Per-tick fault-injection counters. Plain transports never produce these;
/// a fault-injecting decorator (src/resilience/fault.h) exposes them through
/// Transport::tick_faults() so the runtime can fold them into reports,
/// metrics, and trace records without depending on the resilience layer.
struct TickFaultStats {
  std::uint64_t injected = 0;       // faulted send attempts of any kind
  std::uint64_t dropped_msgs = 0;   // messages lost on the wire
  std::uint64_t dup_msgs = 0;       // messages delivered twice
  std::uint64_t corrupt_msgs = 0;   // bit-corrupted (detected + discarded)
  std::uint64_t stalled_msgs = 0;   // messages charged extra link latency
  std::uint64_t retries = 0;        // resend attempts under the retry policy
  std::uint64_t lost_spikes = 0;    // spike payloads that never arrived

  void reset() { *this = TickFaultStats{}; }
};

class Transport {
 public:
  Transport(int ranks, CommCostModel model, unsigned spike_wire_bytes);
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual const char* name() const = 0;

  /// True for one-sided transports: the runtime then skips the master-thread
  /// per-destination aggregation step, sending each thread's buffer directly
  /// ("without incurring ... the overhead of buffering those spikes for
  /// sending", section VII-A).
  virtual bool one_sided() const = 0;

  /// Start a tick: clears transit state and per-tick statistics/times.
  virtual void begin_tick();

  /// Rank `src` transmits an aggregated buffer of spikes to rank `dst`.
  /// `src != dst`; local spikes never touch the transport.
  virtual void send(int src, int dst, std::span<const arch::WireSpike> spikes) = 0;

  /// Complete the tick's communication (Reduce-Scatter or barrier); after
  /// this, received() is valid for every rank.
  virtual void exchange() = 0;

  /// Messages delivered to `rank` this tick. Spans remain valid until the
  /// next begin_tick().
  virtual std::span<const InMessage> received(int rank) const = 0;

  // --- Accounting ----------------------------------------------------------
  // The per-tick accessors are virtual so a decorator (the fault-injecting
  // transport) can present its wrapped transport's accounting, augmented with
  // its own modelled fault costs, through the same interface the runtime
  // already consumes.
  int ranks() const { return ranks_; }
  const CommCostModel& cost_model() const { return cost_; }
  virtual const TickCommStats& tick_stats() const { return stats_; }
  virtual const RankCommStats& rank_stats(int rank) const {
    return rank_stats_[static_cast<std::size_t>(rank)];
  }
  unsigned spike_wire_bytes() const { return spike_wire_bytes_; }

  /// Per-tick fault-injection counters, or nullptr for transports that never
  /// inject faults (all the plain ones). Valid until the next begin_tick().
  virtual const TickFaultStats* tick_faults() const { return nullptr; }

  /// Attach a per-(src, dst) communication matrix (src/obs/profile.h): every
  /// message/put is then recorded against its source and destination rank.
  /// The runtime attaches it when profiling; detached costs one pointer test
  /// per send. Virtual so a decorator can forward to its wrapped transport
  /// (the decorated transport is the one whose sends actually happen).
  virtual void set_comm_matrix(obs::CommMatrix* matrix) {
    comm_matrix_ = matrix;
  }

  /// Attach a flight recorder (src/obs/flightrec.h): every message/put is
  /// then recorded as a send event in the source rank's ring and a recv
  /// event in the destination's. Detached costs one pointer test per send.
  /// Virtual for the same decorator-forwarding reason as set_comm_matrix.
  virtual void set_flight_recorder(obs::FlightRecorder* flight) {
    flight_ = flight;
  }

  /// Attach a torus topology with a rank -> torus-node map (a placement's
  /// node_of_rank): point-to-point send src -> dst is then charged
  /// hops(map[src], map[dst]) x hop_latency on top of the flat overheads
  /// (section I use case (c): benchmarking communication topologies). The
  /// map must have one entry per rank, each a valid node of `topology`
  /// (std::invalid_argument otherwise). The topology must outlive the
  /// transport; pass nullptr to detach.
  void set_hop_model(const TorusTopology* topology,
                     std::vector<int> node_of_rank);

  /// Torus hops charged for one message src -> dst under the attached hop
  /// model (0 without a topology or for node-local traffic). The integer
  /// half of hop_latency(); what the spike tracer's wire spans report.
  int hops_between(int src, int dst) const {
    if (topology_ == nullptr) return 0;
    const int a = node_of_rank_[static_cast<std::size_t>(src)];
    const int b = node_of_rank_[static_cast<std::size_t>(dst)];
    return a == b ? 0 : topology_->hops(a, b);
  }

  /// Dense ranks x ranks hops_between matrix, row-major — the form
  /// obs::SpikeTracer::set_hop_model consumes. Empty without a topology.
  std::vector<int> hop_matrix() const;

  /// Modelled seconds rank spent sending this tick (overheads + byte time).
  virtual double send_time(int rank) const { return send_s_[rank]; }
  /// Modelled synchronisation cost (Reduce-Scatter / barrier) per rank.
  virtual double sync_time(int rank) const { return sync_s_[rank]; }
  /// Modelled receive cost (probe/recv critical section + byte time).
  virtual double recv_time(int rank) const { return recv_s_[rank]; }

 protected:
  std::size_t wire_size(std::size_t spikes) const {
    return spikes * spike_wire_bytes_;
  }

  /// Shared sender-side accounting for one message/put of `spikes` spikes.
  void note_send(int src, int dst, std::size_t spikes, std::size_t bytes) {
    ++stats_.messages;
    stats_.remote_spikes += spikes;
    stats_.wire_bytes += bytes;
    RankCommStats& rs = rank_stats_[static_cast<std::size_t>(src)];
    ++rs.msgs_sent;
    rs.spikes_sent += spikes;
    rs.bytes_sent += bytes;
    if (comm_matrix_ != nullptr) comm_matrix_->record(src, dst, spikes, bytes);
    if (flight_ != nullptr) {
      flight_->record(src, obs::FlightEventKind::kSend, name(), dst, spikes,
                      bytes);
    }
  }

  /// Shared receiver-side accounting for one delivered message.
  void note_recv(int dst, std::size_t spikes, std::size_t bytes) {
    RankCommStats& rs = rank_stats_[static_cast<std::size_t>(dst)];
    ++rs.msgs_recv;
    rs.spikes_recv += spikes;
    rs.bytes_recv += bytes;
    if (flight_ != nullptr) {
      flight_->record(dst, obs::FlightEventKind::kRecv, name(), -1, spikes,
                      bytes);
    }
  }

  /// Hop-dependent latency for one message src -> dst (0 without topology
  /// or for node-local traffic).
  double hop_latency(int src, int dst) const {
    return static_cast<double>(hops_between(src, dst)) *
           cost_.params().hop_latency_s;
  }

  int ranks_;
  CommCostModel cost_;
  unsigned spike_wire_bytes_;
  TickCommStats stats_;
  std::vector<RankCommStats> rank_stats_;
  std::vector<double> send_s_, sync_s_, recv_s_;
  obs::FlightRecorder* flight_ = nullptr;

 private:
  const TorusTopology* topology_ = nullptr;
  std::vector<int> node_of_rank_;  // one torus node per rank
  obs::CommMatrix* comm_matrix_ = nullptr;
};

/// The paper's two communication models: two-sided messaging with a
/// Reduce-Scatter (MpiTransport) and one-sided puts with a barrier
/// (PgasTransport).
enum class TransportKind : std::uint8_t { kMpi, kPgas };

/// "mpi" | "pgas", the CLI's --transport spelling.
const char* to_string(TransportKind kind);

/// The kind to_string() spells `name`; std::invalid_argument otherwise.
TransportKind parse_transport_kind(std::string_view name);

/// The transport of `kind` over `ranks` ranks, with the default cost model.
std::unique_ptr<Transport> make_transport(
    TransportKind kind, int ranks,
    unsigned spike_wire_bytes = arch::kPaperSpikeWireBytes);

}  // namespace compass::comm
