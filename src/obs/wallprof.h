// Host wall-clock observability plane.
//
// Everything else under src/obs/ accounts *virtual* time — the modelled
// parallel machine on the 1-tick = 1-ms timeline. This module watches
// Compass-the-program instead: where the host's wall clock goes per rank and
// phase, how fast ticks are retiring, how much memory the process holds, and
// what the instrumentation itself costs. It is the measurement rig for the
// "fast as the hardware allows" arc (ROADMAP items 1-4).
//
// Design constraints (same contract as metrics.h / profile.h):
//   * Off by default, near-zero cost when detached: every instrumented site
//     is one pointer test, and the monotonic-clock reads themselves are
//     guarded behind it (util::monotonic_seconds()).
//   * Deterministic functional output is untouched: wall records ride their
//     own sink (set_sink), never a trace sink, so golden traces, determinism
//     suites, and checkpoints stay byte-identical with the profiler on.
//   * Race-free under the parallel rank loop: record(rank, ...) writes only
//     that rank's slots (disjoint, like Compass's per-rank counters); the
//     shared self-overhead op counter is a relaxed atomic.
//
// Virtual-vs-wall semantics: the per-rank *virtual* phase seconds (fed from
// the ledger scratch via add_virtual) are what the modelled machine would
// spend; the *wall* seconds are what this host actually spent emulating the
// same region. Their ratio is the emulation slowdown per phase — the number
// compass_prof --wall reports. They are different axes, not an error bar.
//
// Rank-seconds vs tick wall: per-rank wall brackets summed over ranks are
// *rank-seconds*. When the rank loops run on an OpenMP team those brackets
// overlap, so rank-seconds exceed the wall the tick took. The driver thread
// therefore also records each parallel loop's own wall once per tick
// (record_tick_loops); phase_tick_wall_s splits that wall among the loop's
// phases in proportion to their rank-seconds, which keeps the shares of
// tick wall at or below 100% at any team width.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include <atomic>

#include "arch/kernels.h"
#include "obs/metrics.h"

namespace compass::obs {

// --- Phases -----------------------------------------------------------------

/// Host-time attribution buckets. The first kRankWallPhases are recorded per
/// rank inside the tick loop; the rest are global events recorded by their
/// owning subsystem (transport exchange, checkpoint writer, recovery
/// supervisor, PCC compile).
enum class WallPhase : std::uint8_t {
  kSynapse = 0,   // per-rank: synapse-phase host time
  kNeuron,        // per-rank: neuron phase + send-side aggregation
  kSend,          // per-rank: transport send/put injection
  kExchange,      // global: Reduce-Scatter / barrier completion
  kNetwork,       // per-rank: local + remote spike delivery
  kCheckpoint,    // global: snapshot capture + write + prune
  kRecovery,      // global: rank-failure recovery action
  kPccCompile,    // global: PCC model compilation
};

inline constexpr int kWallPhaseCount = 8;
/// Phases with per-rank wall slots (kSynapse..kNetwork). kExchange is driven
/// from the serial transport call, so its wall time is global, but its
/// *virtual* cost (the modelled sync charge) is still per rank.
inline constexpr int kRankWallPhases = 5;

const char* wall_phase_name(WallPhase phase);

// --- Aggregation ------------------------------------------------------------

/// Min/mean/max plus a power-of-two microsecond histogram for one phase.
/// Bucketing matches metrics.h: an observation of u microseconds lands in
/// bucket bit_width(u) (0 for sub-microsecond), so bucket b>0 covers
/// [2^(b-1), 2^b) us.
struct WallPhaseStats {
  static constexpr int kBuckets = 32;  // 2^31 us ~ 36 minutes, ample

  std::uint64_t count = 0;
  double total_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  std::array<std::uint64_t, kBuckets> buckets{};

  void observe(double seconds);
  double mean_s() const {
    return count ? total_s / static_cast<double>(count) : 0.0;
  }
  void merge(const WallPhaseStats& other);
};

/// Moving window over (tick, cumulative wall seconds) samples; the live
/// tick-rate estimate the heartbeat and --progress report. Pure data — fed
/// explicitly so tests can drive it with synthetic clocks.
class TickRateWindow {
 public:
  explicit TickRateWindow(std::size_t capacity = 64);

  void add(std::uint64_t tick, double wall_s);
  /// Ticks per second across the window (0 until two samples span it).
  double ticks_per_second() const;
  void clear();
  std::size_t size() const { return size_; }

 private:
  struct Sample {
    std::uint64_t tick = 0;
    double wall_s = 0.0;
  };
  std::vector<Sample> ring_;
  std::size_t head_ = 0;  // index of the oldest sample
  std::size_t size_ = 0;
};

// --- Host resources ---------------------------------------------------------

/// Resident-set sizes from /proc/self/status (zeros on platforms without
/// it — the schema stays stable, the values degrade).
struct HostResources {
  std::uint64_t rss_bytes = 0;       // VmRSS
  std::uint64_t peak_rss_bytes = 0;  // VmHWM
};

HostResources sample_host_resources();

// --- The profiler -----------------------------------------------------------

struct WallprofOptions {
  /// Emit a {"type":"wallheartbeat"} record every N completed ticks (0 = no
  /// heartbeat records; the end-of-run summary is always written).
  std::uint64_t heartbeat_every_ticks = 0;
};

/// One rank's wall + virtual accumulation for the per-rank phases.
struct WallRankPhase {
  WallPhaseStats wall;
  double virtual_s = 0.0;
};

/// End-of-run snapshot; what the {"type":"wallprof"} record serialises.
struct WallprofSummary {
  int ranks = 0;
  std::uint64_t ticks = 0;
  double wall_s = 0.0;             // first begin_tick() to last end_tick()
  double ticks_per_second = 0.0;   // ticks / wall_s (whole run, not window)
  HostResources resources;
  /// How many phase executions took each hot-loop path while the profiler
  /// was attached (a delta of arch::kernels' dispatch counters). Makes the
  /// bit-parallel vs reference wall cost attributable: a synapse wall total
  /// with synapse_scalar dominant means the dispatcher, not the kernel, owns
  /// the time.
  arch::kernels::DispatchCounters kernels;
  double overhead_s = 0.0;         // estimated instrumentation cost
  std::uint64_t timer_ops = 0;     // record()/end_tick() operations
  /// rank_phase[rank][p] for p in [0, kRankWallPhases).
  std::vector<std::array<WallRankPhase, kRankWallPhases>> rank_phase;
  /// Global slots for every phase (exchange/checkpoint/recovery/pcc land
  /// here; per-rank phases stay zero).
  std::array<WallPhaseStats, kWallPhaseCount> global_phase{};
  /// Host wall of the compute (synapse + neuron) and network rank loops,
  /// timed once per tick on the driver thread, and the widest OpenMP team
  /// that ran them, capped by the rank count (1 = serial; 0 = a capture
  /// that predates the fields).
  double compute_loop_s = 0.0;
  double network_loop_s = 0.0;
  int team_threads = 0;

  /// Wall seconds attributed to `phase` across ranks + global slots. For
  /// the per-rank phases these are rank-seconds (see the header comment).
  double phase_wall_s(WallPhase phase) const;
  /// Seconds of tick wall (wall_s) spent in `phase`: a rank loop's wall
  /// split among its phases by rank-seconds; send and exchange, which run
  /// serially on the driver thread, as measured. The tick phases sum to at
  /// most wall_s. Negative for phases that run outside the tick loop
  /// (checkpoint, recovery, pcc_compile).
  double phase_tick_wall_s(WallPhase phase) const;
  /// Virtual seconds attributed to `phase`, summed across ranks.
  double phase_virtual_s(WallPhase phase) const;
};

/// One {"type":"wallprof","schema":"compass.wallprof.v1"} JSONL line.
void write_wallprof_summary_json(std::ostream& os,
                                 const WallprofSummary& summary);

class WallProfiler {
 public:
  explicit WallProfiler(int ranks, WallprofOptions options = {});

  int ranks() const { return ranks_; }

  /// JSONL sink for heartbeat records and the end-of-run summary. Separate
  /// from every trace sink by design; pass nullptr to detach. The stream
  /// must outlive the profiler.
  void set_sink(std::ostream* os) { sink_ = os; }

  /// Publish live gauges (compass_ticks_per_second, compass_rss_bytes, and
  /// per-phase compass_wall_phase_seconds_<phase> at summary time) into
  /// `metrics`. Pass nullptr to detach.
  void set_metrics(MetricsRegistry* metrics);

  // --- Hot-path hooks ------------------------------------------------------

  /// Record `seconds` of host wall time against (rank, phase). Safe from the
  /// parallel rank loop: rank slots are disjoint. `phase` must be one of the
  /// per-rank phases.
  void record(int rank, WallPhase phase, double seconds);

  /// Record a global (not per-rank) wall measurement — exchange, checkpoint,
  /// recovery, PCC compile. Driver thread only.
  void record_global(WallPhase phase, double seconds);

  /// Accumulate modelled virtual seconds against (rank, phase) for the
  /// divergence report. Safe from the parallel rank loop.
  void add_virtual(int rank, WallPhase phase, double seconds);

  /// Driver thread, once per tick: the wall of the compute and network rank
  /// loops and the threads that could take a rank (1 when serial).
  void record_tick_loops(double compute_s, double network_s, int team);

  /// Driver thread, once per tick before the phase loops. The first call
  /// pins the run's wall epoch. Returns the monotonic time it read.
  double begin_tick();

  /// Driver thread, once per tick after the phase loops: advances the tick
  /// count, the rate window, the RSS cadence, and (when due) emits one
  /// heartbeat record to the sink.
  void end_tick(std::uint64_t tick);

  /// Overwrite the kernel-dispatch delta reported by summary().
  void note_kernel_counts(const arch::kernels::DispatchCounters& counts) {
    kernels_ = counts;
  }

  // --- Reading -------------------------------------------------------------

  std::uint64_t ticks() const { return ticks_; }
  double wall_total_s() const { return wall_total_s_; }
  /// Moving-window tick rate (0 until the window has two samples).
  double ticks_per_second() const { return window_.ticks_per_second(); }
  HostResources resources() const { return last_resources_; }
  /// Estimated seconds the instrumentation itself consumed: timer ops times
  /// a per-op cost calibrated at construction (clock read + stat update).
  /// An estimate — the overhead-bound test measures the real thing.
  double overhead_s() const;
  std::uint64_t timer_ops() const {
    return ops_.load(std::memory_order_relaxed);
  }

  WallprofSummary summary() const;

  /// Emit the {"type":"wallprof"} summary record to the sink (no-op without
  /// one) and push the per-phase gauges into the metrics registry when
  /// attached. Call after the run.
  void write_summary();

 private:
  void emit_heartbeat(std::uint64_t tick);

  int ranks_;
  WallprofOptions options_;
  std::ostream* sink_ = nullptr;

  std::vector<std::array<WallRankPhase, kRankWallPhases>> rank_;
  std::array<WallPhaseStats, kWallPhaseCount> global_{};
  arch::kernels::DispatchCounters kernels_;
  double compute_loop_s_ = 0.0;
  double network_loop_s_ = 0.0;
  int team_threads_ = 0;

  std::uint64_t ticks_ = 0;
  double epoch_s_ = 0.0;       // monotonic time of the first begin_tick()
  bool epoch_set_ = false;
  double wall_total_s_ = 0.0;  // epoch -> last end_tick()
  TickRateWindow window_;
  HostResources last_resources_;

  std::atomic<std::uint64_t> ops_{0};
  double op_cost_s_ = 0.0;  // calibrated cost of one record() operation

  MetricsRegistry* metrics_ = nullptr;
  MetricsRegistry::Id m_ticks_per_s_ = 0, m_rss_ = 0;
};

// --- Live progress meter ----------------------------------------------------

/// What one progress line shows; split out so formatting is unit-testable.
struct ProgressSnapshot {
  std::uint64_t tick = 0;
  std::uint64_t total_ticks = 0;  // 0 = unknown (no percent / ETA)
  double ticks_per_second = 0.0;
  double eta_s = 0.0;  // <= 0 = unknown
  std::uint64_t rss_bytes = 0;
};

/// "[compass] tick 120/500 (24.0%)  813.2 ticks/s  ETA 0.5s  RSS 123.4 MB".
std::string format_progress_line(const ProgressSnapshot& snapshot);

/// Single-line live status on a terminal stream: rewrites itself with '\r'
/// at most once per interval, never emits newlines until finish(). Writes to
/// the stream it is given — callers decide the TTY policy (the CLI
/// suppresses it when stderr is not a TTY unless forced) and must not share
/// the stream with a JSONL sink.
class ProgressMeter {
 public:
  explicit ProgressMeter(std::ostream& os, double interval_s = 0.5,
                         std::size_t window = 32);

  static bool stderr_is_tty();

  /// Real-clock update (per tick); throttled to the interval.
  void update(std::uint64_t tick, std::uint64_t total_ticks);

  /// Deterministic core of update(): `wall_now_s` is seconds since an
  /// arbitrary epoch fixed across calls. Tests drive this directly.
  void update_at(std::uint64_t tick, std::uint64_t total_ticks,
                 double wall_now_s);

  /// Erase/terminate the line (newline if anything was shown).
  void finish();

  std::uint64_t lines_emitted() const { return emitted_; }

 private:
  std::ostream& os_;
  double interval_s_;
  double next_due_s_ = 0.0;
  double epoch_s_ = 0.0;  // real-clock epoch for update()
  bool epoch_set_ = false;
  TickRateWindow window_;
  std::uint64_t emitted_ = 0;
  std::size_t last_len_ = 0;
};

// --- Offline analysis (compass_prof --wall) ---------------------------------

/// Parsed wallprof JSONL capture: the summary record plus heartbeat totals.
struct WallReport {
  bool found = false;  // a {"type":"wallprof"} record was present
  WallprofSummary summary;
  std::uint64_t heartbeats = 0;
  double last_heartbeat_ticks_per_s = 0.0;
};

/// Parse a --wallprof-out capture. Throws std::runtime_error on malformed
/// JSON lines; unknown record types are skipped.
WallReport analyze_wallprof(std::istream& is);

/// Human-readable report: run totals, per-phase table (share of tick wall,
/// rank-seconds, virtual seconds), the rank loops' parallel efficiency, the
/// per-rank divergence table, kernel-dispatch mix, overhead estimate.
void write_wall_report(std::ostream& os, const WallReport& report);

/// The same analysis as one JSON object.
void write_wall_report_json(std::ostream& os, const WallReport& report);

}  // namespace compass::obs
