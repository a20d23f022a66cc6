#include "obs/analytics.h"

#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace compass::obs {

const char* band_name(Band band) {
  switch (band) {
    case Band::kDelta: return "delta";
    case Band::kTheta: return "theta";
    case Band::kAlpha: return "alpha";
    case Band::kBeta: return "beta";
    case Band::kGamma: return "gamma";
  }
  return "?";
}

namespace {

// Goertzel coefficients 2*cos(2*pi*f/1000) at each band's center frequency,
// hard-coded to 17 significant digits so no libm cos() — whose rounding is
// not pinned down by IEEE 754 — can make band power differ across hosts.
// Everything else in the pipeline is +,-,*,/ and sqrt, which are exact.
constexpr double kGoertzelCoeff[kNumBands] = {
    1.9998420884076322,  // delta, 2 Hz
    1.9985789452811784,  // theta, 6 Hz
    1.9960534568565431,  // alpha, 10 Hz
    1.9842294026289558,  // beta, 20 Hz
    1.9371663222572622,  // gamma, 40 Hz
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Welford running mean/variance over a strided integer series, accumulated
/// in index order (the one fixed order everything agrees on). Returns the
/// unbiased sample variance (n - 1 denominator; 0 when n < 2).
struct Welford {
  std::uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;
  void add(double x) {
    ++n;
    const double d = x - mean;
    mean += d / static_cast<double>(n);
    m2 += d * (x - mean);
  }
  double variance() const {
    return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
  }
};

}  // namespace

std::uint64_t AnalyticsEngine::sample_hash(std::uint64_t seed,
                                           arch::CoreId core, unsigned neuron) {
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(core) << 16) | (neuron & 0xFFFFu);
  return splitmix64(seed ^ packed);
}

AnalyticsEngine::AnalyticsEngine(int ranks, std::uint32_t num_cores,
                                 std::vector<std::uint32_t> core_region,
                                 AnalyticsOptions options)
    : num_cores_(num_cores),
      core_region_(std::move(core_region)),
      options_(options) {
  if (ranks < 1) {
    throw std::invalid_argument("AnalyticsEngine: ranks must be >= 1");
  }
  if (options_.window_ticks == 0) {
    throw std::invalid_argument("AnalyticsEngine: window_ticks must be >= 1");
  }
  if (options_.sample_every == 0) options_.sample_every = 1;
  if (!core_region_.empty() && core_region_.size() != num_cores_) {
    throw std::invalid_argument(
        "AnalyticsEngine: core_region size does not match num_cores");
  }
  num_regions_ = 1;
  for (const std::uint32_t g : core_region_) {
    if (g + 1 > num_regions_) num_regions_ = g + 1;
  }
  region_cores_.assign(num_regions_, 0);
  if (core_region_.empty()) {
    region_cores_[0] = num_cores_;
  } else {
    for (const std::uint32_t g : core_region_) ++region_cores_[g];
  }
  const std::size_t slots =
      static_cast<std::size_t>(num_cores_) * arch::kNeuronsPerCore;
  sampled_bits_.assign((slots + 63) / 64, 0);
  for (std::uint32_t core = 0; core < num_cores_; ++core) {
    for (unsigned j = 0; j < arch::kNeuronsPerCore; ++j) {
      if (sampled(core, j)) {
        const std::size_t key =
            (static_cast<std::size_t>(core) << 8) | j;
        sampled_bits_[key >> 6] |= std::uint64_t{1} << (key & 63u);
      }
    }
  }
  sampled_before_.resize(sampled_bits_.size());
  std::uint32_t sampled_count = 0;
  for (std::size_t w = 0; w < sampled_bits_.size(); ++w) {
    sampled_before_[w] = sampled_count;
    sampled_count += static_cast<std::uint32_t>(std::popcount(sampled_bits_[w]));
  }
  isi_.resize(sampled_count);
}

void AnalyticsEngine::add_sink(TraceSink* sink) {
  if (sink != nullptr) sinks_.push_back(sink);
}

void AnalyticsEngine::set_metrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  m_windows_ = metrics_->counter("compass.analytics.windows", "windows",
                                 "Closed streaming-analytics windows.");
  m_spikes_ =
      metrics_->counter("compass.analytics.spikes", "spikes",
                        "Fired spikes accumulated by the analytics plane.");
  m_rate_ = metrics_->gauge(
      "compass.analytics.pop_rate_hz", "Hz",
      "Mean per-neuron population firing rate of the last closed window.");
  m_fano_ = metrics_->gauge(
      "compass.analytics.fano", "",
      "Fano factor (variance/mean of per-tick population spike counts) of "
      "the last closed window.");
  m_sync_ = metrics_->gauge(
      "compass.analytics.synchrony", "",
      "Population synchrony index (variance of the mean region signal over "
      "mean per-region variance) of the last closed window.");
  m_isi_cv_ = metrics_->gauge(
      "compass.analytics.isi_cv", "",
      "Coefficient of variation of sampled-neuron inter-spike intervals in "
      "the last closed window.");
  m_up_frac_ = metrics_->gauge(
      "compass.analytics.up_fraction", "",
      "Fraction of the last closed window's ticks in the Up state.");
  m_h_window_spikes_ =
      metrics_->histogram("compass.analytics.window_spikes", "spikes",
                          "Fired spikes per closed analytics window.");
}

void AnalyticsEngine::begin_tick(arch::Tick tick) {
  tick_ = tick;
  if (window_ticks_buffered_ == 0) window_first_tick_ = tick;
  row_ = win_region_.size();
  win_region_.resize(row_ + num_regions_, 0);
}

void AnalyticsEngine::on_sampled_fire(std::uint32_t key) {
  // Integer adds into per-neuron and window accumulators only, and a neuron
  // fires at most once per tick, so the result does not depend on the order
  // fires arrive in — the doubles only appear at close_window().
  const std::uint64_t below =
      sampled_bits_[key >> 6] & ((std::uint64_t{1} << (key & 63u)) - 1);
  NeuronIsiState& st = isi_[sampled_before_[key >> 6] +
                            static_cast<unsigned>(std::popcount(below))];
  if (st.fired_before) {
    const std::uint64_t isi = tick_ - st.last_fire_tick;
    ++isi_intervals_;
    isi_sum_ += isi;
    isi_sum_sq_ += isi * isi;
    const unsigned bucket = static_cast<unsigned>(std::bit_width(isi));
    if (isi_hist_.size() <= bucket) isi_hist_.resize(bucket + 1, 0);
    ++isi_hist_[bucket];
    if (st.contributed_window != window_index_ + 1) {
      st.contributed_window = window_index_ + 1;
      ++isi_neurons_;
    }
  }
  st.fired_before = true;
  st.last_fire_tick = tick_;
}

void AnalyticsEngine::end_tick() {
  std::uint64_t pop = 0;
  for (std::uint32_t g = 0; g < num_regions_; ++g) pop += win_region_[row_ + g];
  win_pop_.push_back(pop);
  total_spikes_ += pop;
  ++window_ticks_buffered_;
  if (window_ticks_buffered_ >= options_.window_ticks) close_window();
}

void AnalyticsEngine::flush() {
  if (window_ticks_buffered_ > 0) close_window();
}

void AnalyticsEngine::close_window() {
  const std::uint64_t n = window_ticks_buffered_;
  AnalyticsWindow w;
  w.window = window_index_;
  w.first_tick = window_first_tick_;
  w.ticks = n;

  // Per-region stats: Welford over the buffered per-tick counts in tick
  // order, regions ascending. 1 tick == 1 ms, so the per-neuron rate in Hz
  // is mean count * 1000 / neurons.
  w.regions.resize(num_regions_);
  double var_sum = 0.0;  // sum of per-region variances (synchrony denom)
  for (std::uint32_t g = 0; g < num_regions_; ++g) {
    Welford wf;
    std::uint64_t spikes = 0;
    for (std::uint64_t t = 0; t < n; ++t) {
      const std::uint64_t c = win_region_[t * num_regions_ + g];
      spikes += c;
      wf.add(static_cast<double>(c));
    }
    RegionWindowStats& r = w.regions[g];
    r.spikes = spikes;
    r.mean = wf.mean;
    r.var = wf.variance();
    r.fano = r.mean > 0.0 ? r.var / r.mean : 0.0;
    const double neurons = static_cast<double>(region_cores_[g]) *
                           static_cast<double>(arch::kNeuronsPerCore);
    r.rate_hz = neurons > 0.0 ? r.mean * 1000.0 / neurons : 0.0;
    var_sum += r.var;
  }

  // Population stats over the per-tick totals.
  {
    Welford wf;
    std::uint64_t peak = 0;
    for (std::uint64_t t = 0; t < n; ++t) {
      wf.add(static_cast<double>(win_pop_[t]));
      if (win_pop_[t] > peak) peak = win_pop_[t];
      w.spikes += win_pop_[t];
    }
    w.pop.spikes = w.spikes;
    w.pop.mean = wf.mean;
    w.pop.var = wf.variance();
    w.pop.fano = w.pop.mean > 0.0 ? w.pop.var / w.pop.mean : 0.0;
    const double neurons = static_cast<double>(num_cores_) *
                           static_cast<double>(arch::kNeuronsPerCore);
    w.pop.rate_hz = neurons > 0.0 ? w.pop.mean * 1000.0 / neurons : 0.0;

    // Synchrony index (Golomb-style chi^2): variance of the mean region
    // signal over the mean per-region variance. 1 for regions fluctuating
    // in lockstep, -> 0 for independent fluctuations.
    Welford mean_signal;
    for (std::uint64_t t = 0; t < n; ++t) {
      mean_signal.add(static_cast<double>(win_pop_[t]) /
                      static_cast<double>(num_regions_));
    }
    const double denom = var_sum / static_cast<double>(num_regions_);
    w.synchrony = denom > 0.0 ? mean_signal.variance() / denom : 0.0;

    // Up/Down state detector: a tick is Up when its population count
    // reaches updown_frac of the window's peak count.
    w.updown_threshold = options_.updown_frac * static_cast<double>(peak);
    bool prev_up = false;
    for (std::uint64_t t = 0; t < n; ++t) {
      const bool up = peak > 0 && static_cast<double>(win_pop_[t]) >=
                                      w.updown_threshold;
      if (up) {
        ++w.up_ticks;
      } else {
        ++w.down_ticks;
      }
      if (t > 0 && up != prev_up) ++w.transitions;
      prev_up = up;
    }

    // Band power: one Goertzel bin per band over the mean-removed
    // population series, normalized by n^2 (power per sample^2).
    for (std::size_t b = 0; b < kNumBands; ++b) {
      const double coeff = kGoertzelCoeff[b];
      double s1 = 0.0, s2 = 0.0;
      for (std::uint64_t t = 0; t < n; ++t) {
        const double x = static_cast<double>(win_pop_[t]) - w.pop.mean;
        const double s0 = x + coeff * s1 - s2;
        s2 = s1;
        s1 = s0;
      }
      const double power = s1 * s1 + s2 * s2 - coeff * s1 * s2;
      w.band_power[b] = power / (static_cast<double>(n) * static_cast<double>(n));
    }
  }

  // ISI statistics (population moments across all sampled intervals).
  w.isi_neurons = isi_neurons_;
  w.isi_intervals = isi_intervals_;
  if (isi_intervals_ > 0) {
    const double k = static_cast<double>(isi_intervals_);
    w.isi_mean = static_cast<double>(isi_sum_) / k;
    const double var =
        static_cast<double>(isi_sum_sq_) / k - w.isi_mean * w.isi_mean;
    w.isi_cv = w.isi_mean > 0.0 && var > 0.0 ? std::sqrt(var) / w.isi_mean : 0.0;
  }
  w.isi_hist = isi_hist_;

  emit(w);

  if (metrics_ != nullptr) {
    metrics_->add(m_windows_);
    metrics_->add(m_spikes_, w.spikes);
    metrics_->set(m_rate_, w.pop.rate_hz);
    metrics_->set(m_fano_, w.pop.fano);
    metrics_->set(m_sync_, w.synchrony);
    metrics_->set(m_isi_cv_, w.isi_cv);
    metrics_->set(m_up_frac_, n > 0 ? static_cast<double>(w.up_ticks) /
                                          static_cast<double>(n)
                                    : 0.0);
    metrics_->observe(m_h_window_spikes_, w.spikes);
  }

  ++windows_;
  ++window_index_;
  window_ticks_buffered_ = 0;
  win_pop_.clear();
  win_region_.clear();
  isi_neurons_ = 0;
  isi_intervals_ = 0;
  isi_sum_ = 0;
  isi_sum_sq_ = 0;
  isi_hist_.clear();
}

std::string AnalyticsEngine::config_json() const {
  std::ostringstream os;
  os << "{\"type\":\"analytics_config\",\"version\":1,\"window_ticks\":"
     << options_.window_ticks << ",\"sample_every\":" << options_.sample_every
     << ",\"seed\":" << options_.seed << ",\"updown_frac\":";
  write_json_double(os, options_.updown_frac);
  os << ",\"cores\":" << num_cores_ << ",\"regions\":" << num_regions_;
  if (!core_region_.empty()) {
    os << ",\"core_region\":[";
    for (std::size_t i = 0; i < core_region_.size(); ++i) {
      if (i) os << ',';
      os << core_region_[i];
    }
    os << ']';
  }
  os << '}';
  return os.str();
}

std::string AnalyticsEngine::window_json(const AnalyticsWindow& w) const {
  std::ostringstream os;
  os << "{\"type\":\"analytics\",\"window\":" << w.window
     << ",\"first_tick\":" << w.first_tick << ",\"ticks\":" << w.ticks
     << ",\"spikes\":" << w.spikes;
  os << ",\"pop\":{\"rate_hz\":";
  write_json_double(os, w.pop.rate_hz);
  os << ",\"mean\":";
  write_json_double(os, w.pop.mean);
  os << ",\"var\":";
  write_json_double(os, w.pop.var);
  os << ",\"fano\":";
  write_json_double(os, w.pop.fano);
  os << ",\"synchrony\":";
  write_json_double(os, w.synchrony);
  os << '}';
  os << ",\"bands\":{";
  for (std::size_t b = 0; b < kNumBands; ++b) {
    if (b) os << ',';
    os << '"' << band_name(static_cast<Band>(b)) << "\":";
    write_json_double(os, w.band_power[b]);
  }
  os << '}';
  os << ",\"updown\":{\"threshold\":";
  write_json_double(os, w.updown_threshold);
  os << ",\"up_ticks\":" << w.up_ticks << ",\"down_ticks\":" << w.down_ticks
     << ",\"transitions\":" << w.transitions << '}';
  os << ",\"isi\":{\"neurons\":" << w.isi_neurons
     << ",\"intervals\":" << w.isi_intervals << ",\"mean\":";
  write_json_double(os, w.isi_mean);
  os << ",\"cv\":";
  write_json_double(os, w.isi_cv);
  os << ",\"hist\":[";
  for (std::size_t b = 0; b < w.isi_hist.size(); ++b) {
    if (b) os << ',';
    os << w.isi_hist[b];
  }
  os << "]}";
  os << ",\"regions\":[";
  for (std::size_t g = 0; g < w.regions.size(); ++g) {
    const RegionWindowStats& r = w.regions[g];
    if (g) os << ',';
    os << "{\"id\":" << g << ",\"spikes\":" << r.spikes << ",\"rate_hz\":";
    write_json_double(os, r.rate_hz);
    os << ",\"mean\":";
    write_json_double(os, r.mean);
    os << ",\"var\":";
    write_json_double(os, r.var);
    os << ",\"fano\":";
    write_json_double(os, r.fano);
    os << '}';
  }
  os << "]}";
  return os.str();
}

void AnalyticsEngine::emit(const AnalyticsWindow& w) {
  if (sinks_.empty()) return;
  if (!header_emitted_) {
    // Lazily emitted once, before the first window, so every capture is
    // self-describing and the offline replay can rebuild this engine.
    header_emitted_ = true;
    const std::string header = config_json();
    AnalyticsRecord rec;
    rec.window = 0;
    rec.first_tick = 0;
    rec.ticks = 0;  // marks the config header
    rec.json = header.c_str();
    for (TraceSink* sink : sinks_) sink->on_analytics(rec);
  }
  const std::string line = window_json(w);
  AnalyticsRecord rec;
  rec.window = w.window;
  rec.first_tick = w.first_tick;
  rec.ticks = w.ticks;
  rec.json = line.c_str();
  for (TraceSink* sink : sinks_) sink->on_analytics(rec);
}

}  // namespace compass::obs
