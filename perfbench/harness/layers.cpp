#include "layers.h"

#include <algorithm>
#include <ostream>
#include <streambuf>
#include <string>

#include "resilience/checkpoint.h"

namespace perfbench {

namespace {

namespace kernels = compass::arch::kernels;
namespace obs = compass::obs;
namespace resilience = compass::resilience;

/// Output buffer that hashes what is written to it and keeps nothing.
class DigestBuf : public std::streambuf {
 public:
  std::uint64_t value() const { return h_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    h_ = fnv1a(s, static_cast<std::size_t>(n), h_);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char ch = traits_type::to_char_type(c);
      h_ = fnv1a(&ch, 1, h_);
    }
    return traits_type::not_eof(c);
  }

 private:
  std::uint64_t h_ = kFnvOffset;
};

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

std::uint64_t model_digest(const compass::arch::Model& model) {
  DigestBuf buf;
  std::ostream os(&buf);
  model.save(os);
  return buf.value();
}

LayerProbe::LayerProbe(compass::runtime::Compass& sim, std::size_t cores)
    : sim_(sim),
      cores_(cores),
      wall_(sim.partition().ranks()),
      report0_(sim.report()),
      virtual0_s_(sim.ledger().totals().total()) {
  sim_.set_wall_profiler(&wall_);
  kernels::set_dispatch_counting(true);
  dispatch0_ = kernels::dispatch_counters();
}

LayerProbe::~LayerProbe() { detach(); }

void LayerProbe::detach() {
  if (!attached_) return;
  sim_.set_wall_profiler(nullptr);
  kernels::set_dispatch_counting(false);
  attached_ = false;
}

double LayerProbe::step() {
  const double t0 = now_s();
  sim_.step();
  const double dt = now_s() - t0;
  step_wall_s_ += dt;
  ++ticks_;
  return dt;
}

void LayerProbe::finish(Record& rec) {
  const kernels::DispatchCounters d = kernels::dispatch_counters();
  detach();
  const obs::WallprofSummary w = wall_.summary();
  const compass::runtime::RunReport& r = sim_.report();
  const double ticks = static_cast<double>(ticks_);
  const double core_ticks = ticks * static_cast<double>(cores_);
  const double synapse = w.phase_wall_s(obs::WallPhase::kSynapse);
  const double neuron = w.phase_wall_s(obs::WallPhase::kNeuron);
  const double send = w.phase_wall_s(obs::WallPhase::kSend);
  const double exchange = w.phase_wall_s(obs::WallPhase::kExchange);
  const double network = w.phase_wall_s(obs::WallPhase::kNetwork);
  const double comm = send + exchange + network;
  const double events =
      static_cast<double>(r.synaptic_events - report0_.synaptic_events);
  const double remote =
      static_cast<double>(r.remote_spikes - report0_.remote_spikes);
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  std::map<std::string, double>& L = rec.layers;
  L["arch.synapse_ns_per_core_tick"] = ratio(synapse * 1e9, core_ticks);
  L["arch.neuron_ns_per_core_tick"] = ratio(neuron * 1e9, core_ticks);
  L["arch.synaptic_events"] = events;
  L["arch.ns_per_synaptic_event"] = ratio(synapse * 1e9, events);
  L["arch.dispatch.synapse_bitparallel"] =
      static_cast<double>(d.synapse_bitparallel -
                          dispatch0_.synapse_bitparallel);
  L["arch.dispatch.synapse_scalar"] =
      static_cast<double>(d.synapse_scalar - dispatch0_.synapse_scalar);
  L["arch.dispatch.neuron_fast"] =
      static_cast<double>(d.neuron_fast - dispatch0_.neuron_fast);
  L["arch.dispatch.neuron_stoch_soa"] =
      static_cast<double>(d.neuron_stoch_soa - dispatch0_.neuron_stoch_soa);
  L["arch.dispatch.neuron_scalar"] =
      static_cast<double>(d.neuron_scalar - dispatch0_.neuron_scalar);
  L["arch.core_bytes"] =
      static_cast<double>(sizeof(compass::arch::NeurosynapticCore));

  // Step wall the profiler's phases do not cover: the runtime's own
  // per-tick bookkeeping, observers and hooks.
  L["runtime.self_ms_per_tick"] =
      ratio((step_wall_s_ - synapse - neuron - comm) * 1e3, ticks);
  double max_rank = 0.0, sum_rank = 0.0;
  for (const auto& slots : w.rank_phase) {
    const double c =
        slots[static_cast<std::size_t>(obs::WallPhase::kSynapse)].wall.total_s +
        slots[static_cast<std::size_t>(obs::WallPhase::kNeuron)].wall.total_s;
    max_rank = std::max(max_rank, c);
    sum_rank += c;
  }
  L["runtime.rank_imbalance"] =
      ratio(max_rank * static_cast<double>(w.rank_phase.size()), sum_rank);
  L["runtime.fired_spikes"] =
      static_cast<double>(r.fired_spikes - report0_.fired_spikes);
  L["runtime.routed_spikes"] =
      static_cast<double>(r.routed_spikes - report0_.routed_spikes);
  L["runtime.remote_spikes"] = remote;

  L["comm.send_ms_per_tick"] = ratio(send * 1e3, ticks);
  L["comm.exchange_ms_per_tick"] = ratio(exchange * 1e3, ticks);
  L["comm.network_ms_per_tick"] = ratio(network * 1e3, ticks);
  L["comm.ns_per_remote_spike"] = ratio(comm * 1e9, remote);
  L["comm.tick_share_pct"] = ratio(comm * 100.0, step_wall_s_);
  L["comm.messages"] = static_cast<double>(r.messages - report0_.messages);
  L["comm.wire_bytes"] =
      static_cast<double>(r.wire_bytes - report0_.wire_bytes);

  const double virtual_ms_per_tick =
      ratio((sim_.ledger().totals().total() - virtual0_s_) * 1e3, ticks);
  L["perf.virtual_ms_per_tick"] = virtual_ms_per_tick;
  // A tick is 1 ms of biological time, so slowdown is the same number.
  L["perf.slowdown"] = virtual_ms_per_tick;

  L["obs.wallprof_overhead_pct"] =
      ratio(wall_.overhead_s() * 100.0, step_wall_s_);
}

double snapshot_round_trip(compass::runtime::Compass& sim,
                           compass::arch::Model& model, Record& rec,
                           Spans* spans, std::int64_t parent,
                           std::int64_t run) {
  const std::uint64_t before = model_digest(model);
  const compass::arch::Tick tick = sim.now();
  const Spans::Scope scope(spans, "bench.snapshot", parent, run);
  const double t0 = now_s();
  std::string bytes;
  {
    resilience::Checkpoint cp;
    {
      const Timed t(rec.samples["resilience.capture_ms"], 1e3, spans,
                    "resilience.capture", scope.id(), run);
      cp = resilience::capture(sim, model);
    }
    const Timed t(rec.samples["resilience.serialize_ms"], 1e3, spans,
                  "resilience.serialize_checkpoint", scope.id(), run);
    bytes = resilience::serialize_checkpoint(cp);
  }
  {
    resilience::Checkpoint cp;
    {
      const Timed t(rec.samples["resilience.parse_ms"], 1e3, spans,
                    "resilience.parse_checkpoint", scope.id(), run);
      cp = resilience::parse_checkpoint(bytes);
    }
    const Timed t(rec.samples["resilience.restore_ms"], 1e3, spans,
                  "resilience.restore", scope.id(), run);
    resilience::restore(cp, sim, model);
  }
  const double ms = (now_s() - t0) * 1e3;
  rec.layers["resilience.checkpoint_mb"] =
      static_cast<double>(bytes.size()) / kMiB;
  ++rec.attempted;
  if (sim.now() != tick || model_digest(model) != before) {
    rec.fail("snapshot round trip changed the simulator state");
  }
  return ms;
}

}  // namespace perfbench
