#include "comm/transport.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "comm/mpi_transport.h"
#include "comm/pgas_transport.h"

namespace compass::comm {

Transport::Transport(int ranks, CommCostModel model, unsigned spike_wire_bytes)
    : ranks_(ranks),
      cost_(model),
      spike_wire_bytes_(spike_wire_bytes),
      rank_stats_(static_cast<std::size_t>(ranks)),
      send_s_(static_cast<std::size_t>(ranks), 0.0),
      sync_s_(static_cast<std::size_t>(ranks), 0.0),
      recv_s_(static_cast<std::size_t>(ranks), 0.0) {
  assert(ranks > 0);
}

void Transport::set_hop_model(const TorusTopology* topology,
                              std::vector<int> node_of_rank) {
  if (topology != nullptr) {
    if (static_cast<int>(node_of_rank.size()) != ranks_) {
      throw std::invalid_argument(
          "Transport: node map must have one entry per rank");
    }
    for (int n : node_of_rank) {
      if (n < 0 || n >= topology->nodes()) {
        throw std::invalid_argument("Transport: node id outside topology");
      }
    }
  }
  topology_ = topology;
  node_of_rank_ =
      topology != nullptr ? std::move(node_of_rank) : std::vector<int>{};
}

std::vector<int> Transport::hop_matrix() const {
  if (topology_ == nullptr) return {};
  std::vector<int> out(static_cast<std::size_t>(ranks_) *
                       static_cast<std::size_t>(ranks_));
  for (int s = 0; s < ranks_; ++s) {
    for (int d = 0; d < ranks_; ++d) {
      out[static_cast<std::size_t>(s) * static_cast<std::size_t>(ranks_) +
          static_cast<std::size_t>(d)] = hops_between(s, d);
    }
  }
  return out;
}

void Transport::begin_tick() {
  stats_.reset();
  for (RankCommStats& rs : rank_stats_) rs.reset();
  std::fill(send_s_.begin(), send_s_.end(), 0.0);
  std::fill(sync_s_.begin(), sync_s_.end(), 0.0);
  std::fill(recv_s_.begin(), recv_s_.end(), 0.0);
}

const char* to_string(TransportKind kind) {
  return kind == TransportKind::kPgas ? "pgas" : "mpi";
}

TransportKind parse_transport_kind(std::string_view name) {
  for (const TransportKind kind : {TransportKind::kMpi, TransportKind::kPgas}) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown transport '" + std::string(name) + "'");
}

std::unique_ptr<Transport> make_transport(TransportKind kind, int ranks,
                                          unsigned spike_wire_bytes) {
  if (kind == TransportKind::kPgas) {
    return std::make_unique<PgasTransport>(ranks, CommCostModel{},
                                           spike_wire_bytes);
  }
  return std::make_unique<MpiTransport>(ranks, CommCostModel{},
                                        spike_wire_bytes);
}

}  // namespace compass::comm
