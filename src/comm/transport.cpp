#include "comm/transport.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

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
  if (topology != nullptr && !node_of_rank.empty()) {
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
  ranks_per_node_ = 1;
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

}  // namespace compass::comm
