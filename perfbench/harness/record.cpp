#include "record.h"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <thread>

#include "host_probe.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

void put_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

void put_list(std::ostream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ',';
    put_number(os, v[i]);
  }
  os << ']';
}

template <typename Map, typename Put>
void put_object(std::ostream& os, const Map& map, Put put) {
  os << '{';
  bool first = true;
  for (const auto& [key, value] : map) {
    if (!first) os << ',';
    first = false;
    compass::obs::write_json_string(os, key);
    os << ':';
    put(value);
  }
  os << '}';
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#endif
#endif
  return false;
}

bool optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

bool openmp() {
#if defined(COMPASS_HAVE_OPENMP)
  return true;
#else
  return false;
#endif
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

Spans::Scope::Scope(Spans* spans, const char* name, std::int64_t parent,
                    std::int64_t run)
    : spans_(spans) {
  if (spans_ == nullptr) return;
  span_.name = name;
  span_.parent = parent;
  span_.run = run;
  span_.id = spans_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.start_s = now_s();
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  span_.end_s = now_s();
  const std::lock_guard<std::mutex> lock(spans_->mu_);
  spans_->done_.push_back(span_);
}

Timed::Timed(std::vector<double>& out, double scale, Spans* spans,
             const char* name, std::int64_t parent, std::int64_t run)
    : out_(out),
      scale_(scale),
      scope_(spans, name, parent, run),
      t0_(now_s()) {}

Timed::~Timed() { out_.push_back((now_s() - t0_) * scale_); }

void Record::fail(const std::string& why, std::uint64_t n) {
  failed += n;
  if (failures.size() < 8) failures.push_back(why);
}

void Record::add(const std::string& name, std::size_t episode, double value,
                 double at) {
  std::vector<std::vector<double>>& s = series[name];
  std::vector<std::vector<double>>& t = series_at[name];
  if (s.size() <= episode) {
    s.resize(episode + 1);
    t.resize(episode + 1);
  }
  s[episode].push_back(value);
  t[episode].push_back(at);
}

void Record::probe() {
  const double ms = host_probe_ms();
  probes.emplace_back(now_s(), ms);
}

void write_record(std::ostream& os, const Record& rec, const Spans& spans) {
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"workload\":";
  compass::obs::write_json_string(os, rec.workload);
  os << ",\"input_seed\":" << rec.input_seed
     << ",\"trace\":" << (rec.trace ? "true" : "false")
     << ",\"attempted\":" << rec.attempted << ",\"failed\":" << rec.failed
     << ",\"failures\":[";
  for (std::size_t i = 0; i < rec.failures.size(); ++i) {
    if (i != 0) os << ',';
    compass::obs::write_json_string(os, rec.failures[i]);
  }
  os << "],\"checks\":[";
  for (std::size_t i = 0; i < rec.checks.size(); ++i) {
    const Check& c = rec.checks[i];
    if (i != 0) os << ',';
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(c.digest));
    os << "{\"key\":";
    compass::obs::write_json_string(os, c.key);
    os << ",\"weight\":" << c.weight << ",\"digest\":\"" << digest
       << "\",\"counts\":";
    put_object(os, c.counts, [&](std::uint64_t v) { os << v; });
    os << '}';
  }
  os << "],\"samples\":";
  put_object(os, rec.samples,
             [&](const std::vector<double>& v) { put_list(os, v); });
  const auto put_episodes = [&](const std::vector<std::vector<double>>& eps) {
    os << '[';
    for (std::size_t e = 0; e < eps.size(); ++e) {
      if (e != 0) os << ',';
      put_list(os, eps[e]);
    }
    os << ']';
  };
  os << ",\"series\":";
  put_object(os, rec.series, put_episodes);
  os << ",\"series_at\":";
  put_object(os, rec.series_at, put_episodes);
  os << ",\"probes\":[";
  for (std::size_t i = 0; i < rec.probes.size(); ++i) {
    if (i != 0) os << ',';
    os << '[';
    put_number(os, rec.probes[i].first);
    os << ',';
    put_number(os, rec.probes[i].second);
    os << ']';
  }
  os << ']';
  os << ",\"values\":";
  put_object(os, rec.values, [&](double v) { put_number(os, v); });
  os << ",\"layers\":";
  put_object(os, rec.layers, [&](double v) { put_number(os, v); });
  os << ",\"env\":{\"build_type\":";
  compass::obs::write_json_string(os, PERFBENCH_BUILD_TYPE);
  os << ",\"cxx_flags\":";
  compass::obs::write_json_string(os, PERFBENCH_CXX_FLAGS);
  os << ",\"optimized\":" << (optimized() ? "true" : "false")
     << ",\"sanitized\":" << (sanitized() ? "true" : "false")
     << ",\"openmp\":" << (openmp() ? "true" : "false")
     << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
     << "},\"spans\":[";
  const std::vector<Span>& done = spans.done();
  for (std::size_t i = 0; i < done.size(); ++i) {
    const Span& s = done[i];
    if (i != 0) os << ',';
    os << '[';
    compass::obs::write_json_string(os, s.name);
    os << ',';
    put_number(os, s.start_s);
    os << ',';
    put_number(os, s.end_s);
    os << ',' << s.id << ',' << s.parent << ',' << s.run << ']';
  }
  os << "]}\n";
}

}  // namespace perfbench
