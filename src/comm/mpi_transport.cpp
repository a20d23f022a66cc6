#include "comm/mpi_transport.h"

#include <cassert>

namespace compass::comm {

MpiTransport::MpiTransport(int ranks, CommCostModel model,
                           unsigned spike_wire_bytes)
    : Transport(ranks, model, spike_wire_bytes),
      inbox_envelopes_(static_cast<std::size_t>(ranks)),
      inbox_views_(static_cast<std::size_t>(ranks)),
      recv_counts_(static_cast<std::size_t>(ranks), 0) {}

void MpiTransport::begin_tick() {
  Transport::begin_tick();
  for (auto& q : inbox_envelopes_) q.clear();
  for (auto& v : inbox_views_) v.clear();
  std::fill(recv_counts_.begin(), recv_counts_.end(), 0u);
  transit_.clear();
  exchanged_ = false;
}

void MpiTransport::send(int src, int dst,
                        std::span<const arch::WireSpike> spikes) {
  assert(!exchanged_ && src != dst && dst >= 0 && dst < ranks_);
  if (spikes.empty()) return;

  // Eager-protocol copy into the transit pool (the real data movement the
  // messaging unit would perform).
  const std::size_t offset = transit_.size();
  transit_.insert(transit_.end(), spikes.begin(), spikes.end());
  inbox_envelopes_[dst].push_back(Envelope{src, offset, spikes.size()});

  const std::size_t bytes = wire_size(spikes.size());
  send_s_[src] += cost_.mpi_send_cost(bytes) + hop_latency(src, dst);
  note_send(src, dst, spikes.size(), bytes);
  ++recv_counts_[dst];
}

void MpiTransport::exchange() {
  assert(!exchanged_);
  exchanged_ = true;

  // Reduce-Scatter: every rank participates and pays the collective cost,
  // whether or not it has traffic ("the master thread uses an MPI
  // Reduce-Scatter operation to determine how many incoming messages to
  // expect").
  const double rs = cost_.reduce_scatter_cost(ranks_);
  for (int r = 0; r < ranks_; ++r) sync_s_[r] = rs;

  // Match envelopes into per-rank message views and charge the receive
  // (probe + copy) costs. The probe/recv section is serialised inside each
  // receiving process, so its per-message costs add linearly.
  for (int r = 0; r < ranks_; ++r) {
    auto& views = inbox_views_[r];
    views.reserve(inbox_envelopes_[r].size());
    for (const Envelope& e : inbox_envelopes_[r]) {
      views.push_back(InMessage{
          e.src, std::span<const arch::WireSpike>(transit_.data() + e.offset,
                                                  e.count)});
      recv_s_[r] += cost_.mpi_recv_cost(wire_size(e.count));
      note_recv(r, e.count, wire_size(e.count));
    }
  }
}

std::span<const InMessage> MpiTransport::received(int rank) const {
  assert(exchanged_);
  return inbox_views_[rank];
}

}  // namespace compass::comm
