#include "resilience/checkpoint_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <system_error>

#include "util/stopwatch.h"

namespace compass::resilience {

namespace fs = std::filesystem;

namespace {

constexpr const char* kPrefix = "checkpoint-";
constexpr const char* kSuffix = ".ckpt";

/// Parse the tick out of "checkpoint-<tick>.ckpt"; -1 when not a checkpoint
/// file name.
long long tick_of(const std::string& name) {
  const std::string prefix = kPrefix;
  const std::string suffix = kSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return -1;
  if (name.compare(0, prefix.size(), prefix) != 0) return -1;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return -1;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return -1;
  long long tick = 0;
  for (char ch : digits) {
    if (ch < '0' || ch > '9') return -1;
    tick = tick * 10 + (ch - '0');
    if (tick < 0) return -1;  // overflow
  }
  return tick;
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointOptions options)
    : options_(std::move(options)) {
  if (options_.keep < 1) options_.keep = 1;
}

std::string CheckpointManager::file_name(arch::Tick tick) {
  return kPrefix + std::to_string(tick) + kSuffix;
}

void CheckpointManager::attach(runtime::Compass& sim, arch::Model& model) {
  if (options_.every == 0) return;
  const std::uint64_t every = options_.every;
  runtime::Compass* sim_p = &sim;
  arch::Model* model_p = &model;
  sim.add_tick_callback([this, sim_p, model_p, every](arch::Tick tick) {
    if (tick % every == 0) write_now(*sim_p, *model_p);
  });
}

std::string CheckpointManager::write_now(const runtime::Compass& sim,
                                         const arch::Model& model) {
  try {
    return write_unguarded(sim, model);
  } catch (const CheckpointError&) {
    if (obs::FlightRecorder* flight = sim.flight_recorder()) {
      // Failed persistence is exactly what the black box is for: record the
      // failure, dump the window, then let the error propagate.
      flight->record(-1, obs::FlightEventKind::kCheckpoint, "error", -1,
                     sim.now());
      flight->dump_now("checkpoint-error");
    }
    throw;
  }
}

std::string CheckpointManager::write_unguarded(const runtime::Compass& sim,
                                               const arch::Model& model) {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    throw CheckpointError(CheckpointErrc::kIo,
                          "cannot create checkpoint directory " +
                              options_.dir + ": " + ec.message());
  }
  const std::string path =
      (fs::path(options_.dir) / file_name(sim.now())).string();

  util::Stopwatch sw;
  serialize_live(sim, model, buffer_);
  write_checkpoint_file(buffer_, path);
  const double elapsed = sw.elapsed_s();
  const std::uint64_t bytes = buffer_.size();

  ++stats_.snapshots;
  stats_.bytes += bytes;
  stats_.write_s += elapsed;
  if (obs::MetricsRegistry* metrics = sim.metrics()) {
    metrics->add(metrics->counter("ckpt.snapshots", "snapshots"));
    metrics->add(metrics->counter("ckpt.bytes", "bytes"), bytes);
    metrics->set(metrics->gauge("ckpt.write_s", "s"), stats_.write_s);
  }
  if (obs::FlightRecorder* flight = sim.flight_recorder()) {
    flight->record(-1, obs::FlightEventKind::kCheckpoint, "write", -1,
                   sim.now(), bytes);
  }

  // Re-writing the same tick (e.g. write_now right after a periodic write)
  // must not register twice, or pruning would delete the live file.
  bool known = false;
  for (const std::string& p : written_) known = known || p == path;
  if (!known) written_.push_back(path);
  prune();
  if (obs::WallProfiler* wall = sim.wall_profiler()) {
    // The whole snapshot (capture + write + prune) charged as one
    // kCheckpoint observation; sw covers capture+write, re-read for prune.
    wall->record_global(obs::WallPhase::kCheckpoint, sw.elapsed_s());
  }
  return path;
}

void CheckpointManager::prune() {
  bool removed = false;
  while (written_.size() > static_cast<std::size_t>(options_.keep)) {
    std::error_code ec;
    fs::remove(written_.front(), ec);  // best-effort: missing file is fine
    removed = true;
    written_.pop_front();
  }
  if (!removed) return;
  // Persist the unlinks: without a directory fsync, a crash right after the
  // retention pass can replay deleted entries (or lose the ordering a
  // restore scan depends on) on journal recovery. Unlike the best-effort
  // rename fsync in write_checkpoint_file — where the data is already safe —
  // failing to sync a deletion is a real durability defect, so genuine I/O
  // errors are typed and thrown; only filesystems that cannot fsync a
  // directory at all (EINVAL/ENOTSUP) are excused.
  const int dfd = ::open(options_.dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    throw CheckpointError(CheckpointErrc::kIo,
                          "cannot open checkpoint directory " + options_.dir +
                              " for retention fsync: " + std::strerror(errno));
  }
  if (::fsync(dfd) != 0) {
    const int saved = errno;
    ::close(dfd);
    if (saved != EINVAL && saved != ENOTSUP) {
      throw CheckpointError(CheckpointErrc::kIo,
                            "retention fsync of checkpoint directory " +
                                options_.dir + " failed: " +
                                std::strerror(saved));
    }
    return;
  }
  ::close(dfd);
}

std::string CheckpointManager::latest_in(const std::string& dir) {
  return latest_at_or_before(dir, std::numeric_limits<arch::Tick>::max());
}

std::string CheckpointManager::latest_at_or_before(const std::string& dir,
                                                   arch::Tick max_tick) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return {};
  long long best_tick = -1;
  std::string best;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const long long tick = tick_of(entry.path().filename().string());
    if (tick < 0) continue;
    if (static_cast<std::uint64_t>(tick) > max_tick) continue;
    if (tick > best_tick) {
      best_tick = tick;
      best = entry.path().string();
    }
  }
  return best;
}

}  // namespace compass::resilience
