#include "perf/ledger.h"

#include <algorithm>

namespace compass::perf {

PhaseBreakdown compose_tick(const std::vector<RankTickTimes>& ranks,
                            bool overlap_collective,
                            TickAttribution* attribution) {
  PhaseBreakdown out;
  double max_synapse = 0.0, max_neuron = 0.0, max_local = 0.0, max_sync = 0.0,
         max_recv = 0.0;
  int arg_synapse = 0, arg_neuron = 0, arg_local = 0, arg_sync = 0,
      arg_recv = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const RankTickTimes& r = ranks[i];
    const int rank = static_cast<int>(i);
    if (r.synapse > max_synapse) {
      max_synapse = r.synapse;
      arg_synapse = rank;
    }
    const double neuron = r.neuron + r.aggregate + r.send;
    if (neuron > max_neuron) {
      max_neuron = neuron;
      arg_neuron = rank;
    }
    if (r.local_deliver > max_local) {
      max_local = r.local_deliver;
      arg_local = rank;
    }
    if (r.sync > max_sync) {
      max_sync = r.sync;
      arg_sync = rank;
    }
    const double recv = r.recv + r.remote_deliver;
    if (recv > max_recv) {
      max_recv = recv;
      arg_recv = rank;
    }
  }
  out.synapse = max_synapse;
  out.neuron = max_neuron;
  // The collective overlaps with local delivery (Listing 1: non-master
  // threads deliver local spikes while the master runs Reduce-Scatter).
  if (overlap_collective) {
    out.network = std::max(max_sync, max_local) + max_recv;
  } else {
    out.network = max_sync + max_local + max_recv;
  }
  if (attribution != nullptr) {
    attribution->synapse_rank = arg_synapse;
    attribution->neuron_rank = arg_neuron;
    attribution->sync_s = max_sync;
    attribution->local_s = max_local;
    attribution->recv_s = max_recv;
    attribution->hidden_s =
        overlap_collective ? std::min(max_sync, max_local) : 0.0;
    // Network critical rank: whoever owns the largest single leg of the
    // slice (see TickAttribution docs for the exact rule).
    const double wait_leg = std::max(max_sync, max_local);
    const int wait_rank = max_sync >= max_local ? arg_sync : arg_local;
    attribution->network_rank = wait_leg >= max_recv ? wait_rank : arg_recv;
  }
  return out;
}

PhaseBreakdown RunLedger::commit_tick(TickAttribution* attribution) {
  const PhaseBreakdown tick = compose_tick(scratch_, overlap_, attribution);
  totals_ += tick;
  ++ticks_;
  for (RankTickTimes& r : scratch_) r = RankTickTimes{};
  return tick;
}

}  // namespace compass::perf
