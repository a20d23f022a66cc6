// Periodic checkpoint writer with bounded retention.
//
// Attached to a running Compass via its tick-callback hook, the manager
// writes `checkpoint-<tick>.ckpt` into a directory every N ticks (each file
// crash-consistent via checkpoint.h's temp+fsync+rename protocol) and keeps
// only the newest K snapshots. It keeps no observability attachments of its
// own: each write reads the simulator's planes, publishing write
// volume/latency into Compass::metrics() (`ckpt.snapshots`, `ckpt.bytes`,
// `ckpt.write_s`, registered at the first write), a ckpt event into
// Compass::flight_recorder(), and the snapshot's wall time into
// Compass::wall_profiler() as the global checkpoint phase.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

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
  /// Cumulative write accounting (also published via the simulator's
  /// metrics registry when one is attached).
  struct Stats {
    std::uint64_t snapshots = 0;
    std::uint64_t bytes = 0;
    double write_s = 0.0;
  };

  explicit CheckpointManager(CheckpointOptions options);

  /// Register the periodic tick callback on `sim`. `sim` and `model` must
  /// outlive the manager; no-op scheduling when options.every == 0.
  void attach(runtime::Compass& sim, arch::Model& model);

  /// Snapshot now, prune to `keep`, and return the written path.
  /// Throws CheckpointError(kIo) when the directory or file is unwritable;
  /// with a flight recorder on `sim`, the failure is recorded and the
  /// window dumped ("checkpoint-error") before the exception propagates.
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
};

}  // namespace compass::resilience
