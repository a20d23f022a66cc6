// Two-sided (MPI-style) transport.
//
// Mirrors the MPI path of the paper's Network phase (Listing 1):
//   1. the sender copies each aggregated per-destination buffer into a
//      transit buffer and posts an envelope (MPI_Isend through the eager
//      protocol — the copy is real, modelling the messaging-unit buffering),
//   2. exchange() performs the Reduce-Scatter equivalent: every rank learns
//      exactly how many messages to expect (here: envelope queues become
//      visible), and the per-rank Reduce-Scatter cost is charged,
//   3. the receiver is charged a probe+recv critical-section cost per
//      message ("each thread receives MPI messages in a critical section due
//      to thread-safety issues in the MPI library").
//
// Transit buffers are pooled and reused across ticks, so steady-state ticks
// allocate nothing.
#pragma once

#include "comm/transport.h"

namespace compass::comm {

class MpiTransport final : public Transport {
 public:
  explicit MpiTransport(int ranks, CommCostModel model = {},
               unsigned spike_wire_bytes = arch::kPaperSpikeWireBytes);

  const char* name() const override { return "MPI"; }
  bool one_sided() const override { return false; }

  void begin_tick() override;
  void send(int src, int dst, std::span<const arch::WireSpike> spikes) override;
  void exchange() override;
  std::span<const InMessage> received(int rank) const override;

  /// Incoming-message count per rank after exchange() — the Reduce-Scatter
  /// result vector (exposed for tests and the fig. 4(b) bench).
  const std::vector<std::uint32_t>& recv_counts() const { return recv_counts_; }

 private:
  struct Envelope {
    int src;
    std::size_t offset;  // into transit_ spike pool
    std::size_t count;
  };

  // Per-destination envelope queues plus one flat pooled spike buffer.
  std::vector<std::vector<Envelope>> inbox_envelopes_;
  std::vector<arch::WireSpike> transit_;
  std::vector<std::vector<InMessage>> inbox_views_;
  std::vector<std::uint32_t> recv_counts_;
  bool exchanged_ = false;
};

}  // namespace compass::comm
