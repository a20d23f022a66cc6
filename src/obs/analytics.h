// Streaming spike analytics: the scientific observables of the spike stream.
//
// Wallprof answers "how fast", profile answers "where do messages go",
// spiketrace answers "which spike paid which latency" — this plane answers
// what a neuroscientist (or a served client) asks of the raster itself:
// per-region and population firing rates, count variance and Fano factor,
// ISI statistics over a deterministically sampled neuron set, a population
// synchrony index, band power of the population-rate signal, and a
// threshold-based Up/Down state detector for slow-wave regimes (ROADMAP
// item 5(b); the observables follow the DPSNN mini-app benchmark outputs
// and the slow-wave/asynchronous regime characterization in PAPERS.md).
//
// Determinism contract (the acceptance criterion): the hot path accumulates
// *integers only* — per-region fire counts of the current tick and the
// sampled neurons' last fire ticks — and every floating-point statistic is
// computed serially at window close from those integers, in one fixed order
// (ticks ascending, regions ascending, bands in enum order). Goertzel
// coefficients are hard-coded 17-digit literals, so no libm transcendental
// enters the pipeline (sqrt and arithmetic are IEEE-exact). Hence every
// emitted byte is bit-identical across MPI/PGAS transports and any OpenMP
// width for a fixed (model, seed, window), and an offline replay of the same
// fired-spike stream (a recorded raster) re-derives every window bit-for-bit
// (compass_prof --analytics).
//
// Sampling for ISI statistics is a pure function of the neuron identity:
//
//   H = SplitMix64(seed XOR pack(core, neuron)).next()
//   sampled(core, neuron)  <=>  H mod sample_every == 0
//
// so both transports, every thread count, and the offline replay track the
// same neuron set.
//
// Every hook runs on one thread: runtime::Compass stages the fired neurons
// of each rank and replays them to on_fire() on its calling thread once the
// (possibly OpenMP-parallel) compute loop has joined.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace compass::obs {

/// Frequency bands of the population-rate signal (1 tick == 1 ms, so the
/// signal is sampled at 1 kHz). Band power is a single Goertzel bin at the
/// band's representative center frequency.
enum class Band : std::uint8_t {
  kDelta = 0,  // 2 Hz
  kTheta = 1,  // 6 Hz
  kAlpha = 2,  // 10 Hz
  kBeta = 3,   // 20 Hz
  kGamma = 4,  // 40 Hz
};
inline constexpr std::size_t kNumBands = 5;

const char* band_name(Band band);

struct AnalyticsOptions {
  /// Statistics window in ticks; a window record is emitted every
  /// `window_ticks` completed ticks (plus one partial window at flush()).
  std::uint64_t window_ticks = 64;
  /// Deterministic 1-in-N neuron sampling for the ISI statistics
  /// (1 = track every neuron; the engine allocates 24 bytes of ISI state
  /// per sampled neuron at construction).
  std::uint64_t sample_every = 16;
  /// Sampler seed; runs with equal (seed, model) track identical neurons.
  std::uint64_t seed = 0xCA1C;
  /// Up/Down detector threshold as a fraction of the window's *peak*
  /// per-tick population count: a tick is Up when its count >= frac * peak.
  double updown_frac = 0.5;
};

/// Per-region window statistics (counts are integers accumulated on the hot
/// path; the doubles are derived at window close).
struct RegionWindowStats {
  std::uint64_t spikes = 0;  // fired spikes in the window
  double rate_hz = 0.0;      // mean per-neuron rate (1 tick == 1 ms)
  double mean = 0.0;         // mean per-tick count
  double var = 0.0;          // unbiased variance of the per-tick count
  double fano = 0.0;         // var / mean (0 when mean == 0)
};

/// One closed analytics window, the struct behind the serialized record.
/// The canonical byte representation is the JSONL line the engine hands to
/// its sinks (obs::AnalyticsRecord::json) — every surface (--analytics-out,
/// the serve plane's kAnalytics frames, compass_prof --analytics) carries
/// that exact line, so byte identity never depends on a re-serializer.
struct AnalyticsWindow {
  std::uint64_t window = 0;      // 0-based window index
  std::uint64_t first_tick = 0;  // first tick included
  std::uint64_t ticks = 0;       // ticks included (== window_ticks, except
                                 // a partial flush() window)
  std::uint64_t spikes = 0;      // fired spikes across all regions
  RegionWindowStats pop;         // population aggregate
  double synchrony = 0.0;        // Var_t(mean signal) / mean_r(Var_t(c_r))
  double band_power[kNumBands] = {0, 0, 0, 0, 0};
  // Up/Down state detector over the window's per-tick population counts.
  double updown_threshold = 0.0;   // frac * peak count, in counts/tick
  std::uint64_t up_ticks = 0;
  std::uint64_t down_ticks = 0;
  std::uint64_t transitions = 0;   // state flips between adjacent ticks
  // ISI statistics over the sampled neuron set (intervals *closing* in this
  // window; an interval spanning a window boundary belongs to the window
  // where its second spike fired).
  std::uint64_t isi_neurons = 0;    // sampled neurons contributing >= 1 ISI
  std::uint64_t isi_intervals = 0;  // intervals closed this window
  double isi_mean = 0.0;            // mean interval, ticks
  double isi_cv = 0.0;              // sqrt(var) / mean (population variance)
  std::vector<std::uint64_t> isi_hist;  // isi_hist[b]: intervals with
                                        // bit_width(isi) == b (metrics.h
                                        // power-of-two bucketing)
  std::vector<RegionWindowStats> regions;
};

/// The streaming engine the runtime drives. Attach TraceSinks (windows
/// arrive as on_analytics records), then runtime::Compass::set_analytics().
/// The engine must outlive the simulator.
class AnalyticsEngine {
 public:
  /// `core_region` maps every core id in [0, num_cores) to its region index
  /// (the CLI builds it from compiler::PccResult::regions). An empty map
  /// puts every core in region 0 (single-region mode — the bench harness,
  /// which has no region table). Throws std::invalid_argument when a
  /// non-empty map's size differs from num_cores. The engine keeps no
  /// per-rank state; `ranks` is only checked to be >= 1.
  AnalyticsEngine(int ranks, std::uint32_t num_cores,
                  std::vector<std::uint32_t> core_region,
                  AnalyticsOptions options = {});

  std::uint32_t num_cores() const { return num_cores_; }
  std::uint32_t num_regions() const { return num_regions_; }
  const AnalyticsOptions& options() const { return options_; }
  const std::vector<std::uint32_t>& core_region() const { return core_region_; }

  void add_sink(TraceSink* sink);

  /// Publish `compass.analytics.*` gauges/counters/histograms, refreshed at
  /// every window close. Pass nullptr to detach.
  void set_metrics(MetricsRegistry* metrics);

  /// The ISI sampling hash (see header comment). Exposed for tests and the
  /// offline replay's documentation of the formula.
  static std::uint64_t sample_hash(std::uint64_t seed, arch::CoreId core,
                                   unsigned neuron);

  bool sampled(arch::CoreId core, unsigned neuron) const {
    return options_.sample_every <= 1 ||
           sample_hash(options_.seed, core, neuron) % options_.sample_every ==
               0;
  }

  // --- Runtime hooks (called by runtime::Compass) --------------------------

  /// At the top of each step: opens the tick's row of region counts.
  void begin_tick(arch::Tick tick);

  /// Per *fired* neuron of the tick begin_tick() opened (connected or not —
  /// the same stream a raster hook records, which is what makes offline
  /// re-derivation exact). Inline and hash-free — the sampling decision is a
  /// bit test against a bitmap precomputed from sample_hash() at
  /// construction — so the cost per fired spike is an increment and a bit
  /// test; only sampled neurons leave the header.
  void on_fire(arch::CoreId core, unsigned neuron) {
    ++win_region_[row_ + (core_region_.empty() ? 0u : core_region_[core])];
    const std::uint32_t key = (static_cast<std::uint32_t>(core) << 8) |
                              (neuron & (arch::kNeuronsPerCore - 1));
    if ((sampled_bits_[key >> 6] >> (key & 63u)) & 1u) on_sampled_fire(key);
  }

  /// At the end of the step: buffers the tick's population count and closes
  /// the window when it is full.
  void end_tick();

  /// Close a partial window, if any ticks are buffered (end of run).
  void flush();

  // --- Introspection (tests, CLI summaries) --------------------------------
  std::uint64_t windows_emitted() const { return windows_; }
  std::uint64_t total_spikes() const { return total_spikes_; }
  arch::Tick now() const { return tick_; }

  /// The config header line ({"type":"analytics_config",...}) emitted to
  /// sinks before the first window record: everything the offline replay
  /// needs to rebuild an identical engine.
  std::string config_json() const;

 private:
  struct NeuronIsiState {
    std::uint64_t last_fire_tick = 0;
    bool fired_before = false;
    // Window index of the neuron's latest contribution + 1 (0 = never), so
    // isi_neurons is countable without a per-window set.
    std::uint64_t contributed_window = 0;
  };

  void on_sampled_fire(std::uint32_t key);
  void close_window();
  void emit(const AnalyticsWindow& w);
  std::string window_json(const AnalyticsWindow& w) const;

  std::uint32_t num_cores_;
  std::uint32_t num_regions_ = 1;
  std::vector<std::uint32_t> core_region_;   // empty = all cores region 0
  std::vector<std::uint32_t> region_cores_;  // cores per region
  AnalyticsOptions options_;
  std::vector<TraceSink*> sinks_;

  arch::Tick tick_ = 0;
  // sampled(core, neuron) precomputed as one bit per (core << 8) | neuron —
  // num_cores * 256 bits — so the per-spike path never hashes or divides.
  std::vector<std::uint64_t> sampled_bits_;

  // Window accumulation (integers only until close_window()).
  std::uint64_t window_index_ = 0;
  std::uint64_t window_first_tick_ = 0;
  std::uint64_t window_ticks_buffered_ = 0;
  std::vector<std::uint64_t> win_pop_;     // per-tick population counts
  std::vector<std::uint64_t> win_region_;  // per-tick per-region counts,
                                           // row-major [tick][region]
  std::size_t row_ = 0;  // the current tick's row in win_region_
  // sampled_before_[w]: sampled neurons in sampled_bits_ words [0, w), so a
  // sampled key's slot in isi_ is that count plus the set bits below it in
  // its own word.
  std::vector<std::uint32_t> sampled_before_;
  std::vector<NeuronIsiState> isi_;  // one per sampled neuron
  std::uint64_t isi_neurons_ = 0;
  std::uint64_t isi_intervals_ = 0;
  std::uint64_t isi_sum_ = 0;
  std::uint64_t isi_sum_sq_ = 0;
  std::vector<std::uint64_t> isi_hist_;

  std::uint64_t windows_ = 0;
  std::uint64_t total_spikes_ = 0;
  bool header_emitted_ = false;

  MetricsRegistry* metrics_ = nullptr;
  MetricsRegistry::Id m_windows_ = 0, m_spikes_ = 0, m_rate_ = 0, m_fano_ = 0,
                      m_sync_ = 0, m_isi_cv_ = 0, m_up_frac_ = 0,
                      m_h_window_spikes_ = 0;
};

}  // namespace compass::obs
