// Periodic checkpoint writer with bounded retention.
//
// Attached to a running Compass via its tick-callback hook, the manager
// writes `checkpoint-<tick>.ckpt` into a directory every N ticks (each file
// crash-consistent via checkpoint.h's temp+fsync+rename protocol), keeps
// only the newest K snapshots, and publishes write volume/latency into the
// metrics registry (`ckpt.snapshots`, `ckpt.bytes`, `ckpt.write_s`).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/wallprof.h"
#include "resilience/checkpoint.h"

namespace compass::resilience {

struct CheckpointOptions {
  std::string dir = "checkpoints";
  /// Snapshot every `every` ticks (0 disables periodic writes; write_now()
  /// still works for explicit snapshots).
  std::uint64_t every = 0;
  /// Newest snapshots retained on disk; older ones are deleted after each
  /// successful write. Values < 1 are treated as 1.
  int keep = 3;
};

class CheckpointManager {
 public:
  /// Cumulative write accounting (also published via metrics when attached).
  struct Stats {
    std::uint64_t snapshots = 0;
    std::uint64_t bytes = 0;
    double write_s = 0.0;
  };

  explicit CheckpointManager(CheckpointOptions options,
                             obs::MetricsRegistry* metrics = nullptr);

  /// Attach a flight recorder: successful writes become ckpt events in the
  /// machine track, and a CheckpointError triggers a post-mortem dump
  /// ("checkpoint-error") before the exception propagates.
  void set_flight_recorder(obs::FlightRecorder* flight) { flight_ = flight; }

  /// Attach the host wall-clock profiler: each snapshot's capture+write+prune
  /// wall time is then recorded as the global kCheckpoint phase.
  void set_wall_profiler(obs::WallProfiler* wall) { wall_ = wall; }

  /// Register the periodic tick callback on `sim`. `sim` and `model` must
  /// outlive the manager; no-op scheduling when options.every == 0.
  void attach(runtime::Compass& sim, arch::Model& model);

  /// Snapshot now, prune to `keep`, and return the written path.
  /// Throws CheckpointError(kIo) when the directory or file is unwritable.
  std::string write_now(const runtime::Compass& sim, const arch::Model& model);

  const Stats& stats() const { return stats_; }
  const CheckpointOptions& options() const { return options_; }

  /// Path of the checkpoint with the highest tick in `dir` ("" when none).
  static std::string latest_in(const std::string& dir);

  /// Path of the newest checkpoint in `dir` taken at or before `max_tick`
  /// ("" when none). The recovery supervisor restores a dead rank from this:
  /// a snapshot written *after* the failure tick cannot contain that rank's
  /// real state, so the newest-before-death snapshot is the usable one.
  static std::string latest_at_or_before(const std::string& dir,
                                         arch::Tick max_tick);

  /// The canonical file name for a snapshot taken at `tick`.
  static std::string file_name(arch::Tick tick);

 private:
  std::string write_unguarded(const runtime::Compass& sim,
                              const arch::Model& model);
  /// Delete snapshots beyond `keep`, then fsync the checkpoint directory so
  /// the retention pass is durable (a crash after unlink must not resurrect
  /// a half-deleted ordering on replay). Throws CheckpointError(kIo) when
  /// the directory cannot be synced; filesystems that refuse directory
  /// fsync (EINVAL/ENOTSUP) are tolerated, matching write_checkpoint_file.
  void prune();

  CheckpointOptions options_;
  std::deque<std::string> written_;  // oldest-first, bounded by options_.keep
  std::string buffer_;  // the encoded snapshot, reused across writes
  Stats stats_;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::Id m_snapshots_ = 0, m_bytes_ = 0, m_write_s_ = 0;
  obs::FlightRecorder* flight_ = nullptr;
  obs::WallProfiler* wall_ = nullptr;
};

}  // namespace compass::resilience
