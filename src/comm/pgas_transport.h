// One-sided (PGAS-style) transport.
//
// Mirrors the UPC/GASNet port of section VII: "each Compass process can use
// one-sided message primitives to insert spikes in a globally-addressable
// buffer residing at remote processes, without incurring either the overhead
// of buffering those spikes for sending, or the overhead of tag matching",
// and tick synchronisation is "a single global barrier with very low
// latency ... instead of needing a collective Reduce-Scatter operation that
// scales linearly with communicator size."
//
// Implementation: every (dst, src) rank pair owns a pre-allocated landing
// segment in dst's globally addressed region. send() appends straight into
// that segment — exactly one copy, no envelopes, no matching. exchange()
// charges each rank the log-depth barrier cost. Segments are reused across
// ticks (capacity is retained), so steady-state ticks allocate nothing.
#pragma once

#include "comm/transport.h"

namespace compass::comm {

class PgasTransport final : public Transport {
 public:
  explicit PgasTransport(int ranks, CommCostModel model = {},
                unsigned spike_wire_bytes = arch::kPaperSpikeWireBytes);

  const char* name() const override { return "PGAS"; }
  bool one_sided() const override { return true; }

  void begin_tick() override;
  void send(int src, int dst, std::span<const arch::WireSpike> spikes) override;
  void exchange() override;
  std::span<const InMessage> received(int rank) const override;

 private:
  std::size_t segment_index(int dst, int src) const {
    return static_cast<std::size_t>(dst) * static_cast<std::size_t>(ranks_) +
           static_cast<std::size_t>(src);
  }

  // landing_[dst * ranks + src]: spikes put by src into dst's global region.
  std::vector<std::vector<arch::WireSpike>> landing_;
  std::vector<std::vector<InMessage>> inbox_views_;
  bool exchanged_ = false;
};

}  // namespace compass::comm
