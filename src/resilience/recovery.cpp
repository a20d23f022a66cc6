#include "resilience/recovery.h"

#include <iostream>
#include <utility>

#include "place/placer.h"
#include "util/stopwatch.h"

namespace compass::resilience {

const char* to_string(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kAbort: return "abort";
    case RecoveryPolicy::kRestartRank: return "restart-rank";
    case RecoveryPolicy::kMigrate: return "migrate";
  }
  return "?";
}

RecoveryPolicy parse_recovery_policy(std::string_view name) {
  if (name == "abort") return RecoveryPolicy::kAbort;
  if (name == "restart-rank") return RecoveryPolicy::kRestartRank;
  if (name == "migrate") return RecoveryPolicy::kMigrate;
  throw RecoveryError("unknown recovery policy '" + std::string(name) +
                      "' (expected abort, restart-rank, or migrate)");
}

RecoverySupervisor::RecoverySupervisor(RecoveryOptions options,
                                       runtime::Compass& sim,
                                       arch::Model& model,
                                       FaultInjectingTransport& transport,
                                       CheckpointManager& checkpoints)
    : options_(std::move(options)),
      sim_(sim),
      model_(model),
      transport_(transport),
      checkpoints_(checkpoints) {}

void RecoverySupervisor::arm() {
  if (options_.policy == RecoveryPolicy::kAbort || armed_) return;
  armed_ = true;
  // A rank can die before the first periodic snapshot lands; a baseline
  // snapshot of the current state makes even a kill at tick 0 survivable.
  if (CheckpointManager::latest_in(checkpoints_.options().dir).empty()) {
    checkpoints_.write_now(sim_, model_);
  }
  sim_.add_tick_callback([this](arch::Tick tick) { on_tick(tick); });
}

void RecoverySupervisor::on_tick(arch::Tick tick) {
  if (recovered_) return;
  const int dead = transport_.dead_rank();
  if (dead < 0) return;
  recover(dead, tick);
}

void RecoverySupervisor::recover(int dead, arch::Tick tick) {
  util::Stopwatch sw;
  recovered_ = true;

  // The snapshot must predate the death: anything written after kill_tick
  // captured the dead rank's unreachable "ghost" state, which a real
  // cluster could never have collected.
  const arch::Tick kill_tick = transport_.plan().kill_tick;
  const std::string path = CheckpointManager::latest_at_or_before(
      checkpoints_.options().dir, kill_tick);
  if (path.empty()) {
    throw RecoveryError(
        "recovery: no checkpoint at or before the failure (tick " +
        std::to_string(kill_tick) + ") in " + checkpoints_.options().dir);
  }
  const Checkpoint cp = load_checkpoint_file(path);  // CheckpointError on rot

  // Reconstruct: overwrite only the dead rank's cores from the snapshot.
  // Surviving cores keep their live (newer) state — this is a repair, not a
  // rollback. The ghost state the dead cores computed since kill_tick is
  // discarded wholesale, which is what keeps migrate deterministic.
  const std::span<const arch::CoreId> orphans =
      sim_.partition().cores_of(dead);
  restore_cores(cp, orphans, model_);

  std::size_t migrated = 0;
  if (options_.policy == RecoveryPolicy::kMigrate) {
    // Re-place the orphans across survivors, preferring the ranks that
    // measurably exchanged the most spikes with the dead one.
    const obs::ProfileCollector* profiler = sim_.profile();
    const obs::CommMatrix* measured =
        profiler != nullptr ? &profiler->comm_matrix() : nullptr;
    std::vector<int> rank_of =
        place::replace_dead_rank(sim_.partition(), dead, measured);
    migrated = orphans.size();
    sim_.migrate_partition(runtime::Partition::from_rank_assignment(
        std::move(rank_of), sim_.partition().ranks(),
        sim_.partition().threads_per_rank()));
    // The rank→node embedding did not change, but the transport's hop model
    // may have been detached or replaced since construction; re-apply it so
    // post-recovery hop charges stay aligned with the placement.
    if (options_.hop_transport != nullptr && options_.topology != nullptr) {
      options_.hop_transport->set_hop_model(options_.topology,
                                            options_.node_of_rank);
    }
  } else {
    // restart-rank: the rank comes back in place with its restored cores
    // (hot-spare respawn); its traffic flows again from the next send.
    transport_.revive();
  }

  RecoveryEvent event;
  event.dead_rank = dead;
  event.detected_tick = tick;
  event.checkpoint_tick = cp.tick;
  event.ticks_lost = tick - cp.tick;
  event.cores_recovered = orphans.size();
  event.cores_migrated = migrated;
  event.policy = options_.policy;
  event.checkpoint_path = path;
  event.wall_s = sw.elapsed_s();
  if (obs::WallProfiler* wall = sim_.wall_profiler()) {
    wall->record_global(obs::WallPhase::kRecovery, event.wall_s);
  }

  obs::RecoveryRecord rec;
  rec.tick = tick;
  rec.dead_rank = dead;
  rec.policy = resilience::to_string(options_.policy);
  rec.checkpoint_tick = cp.tick;
  rec.ticks_lost = event.ticks_lost;
  rec.cores_recovered = event.cores_recovered;
  rec.cores_migrated = event.cores_migrated;
  sim_.note_recovery(rec);

  if (obs::MetricsRegistry* metrics = sim_.metrics()) {
    // Registered lazily so fault-free runs' metric snapshots do not grow
    // zero-valued recovery series.
    metrics->add(metrics->counter("compass.recoveries", "recoveries"));
    metrics->set(metrics->gauge("compass.recovery.ticks_lost", "ticks"),
                 static_cast<double>(sim_.report().recovery_ticks_lost));
  }
  if (obs::FlightRecorder* flight = sim_.flight_recorder()) {
    flight->record(-1, obs::FlightEventKind::kRecovery,
                   resilience::to_string(options_.policy), dead, tick,
                   cp.tick);
  }

  std::cerr << "compass: recovery: rank " << dead << " died; "
            << resilience::to_string(options_.policy) << " from " << path
            << " (tick " << cp.tick << ", " << event.ticks_lost
            << " tick(s) lost on " << event.cores_recovered
            << " core(s)); continuing degraded\n";
  events_.push_back(std::move(event));
}

}  // namespace compass::resilience
