// What one harness process measures and hands back to run.py: raw samples,
// per-episode series, per-layer values, the functional checks run.py
// compares with reference.json, and (traced runs) the in-memory span log.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
double now_s();

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit over `len` bytes, continued from `h`. The benchmark's own
/// digest, independent of the library's checksums.
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = kFnvOffset);

/// One finished span: a call from the benchmark into a layer, named
/// "<layer>.<call>". `parent` is -1 for a root span; `run` groups the spans
/// of one operation stream (an episode, or one client's cycles).
struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t id = -1;
  std::int64_t parent = -1;
  std::int64_t run = -1;
};

/// In-memory span log, written out with the record at the end of the run.
/// Scopes may close on several threads at once.
class Spans {
 public:
  /// Records one span over its lifetime. A null log records nothing and
  /// reads no clock, which is how untraced code paths pass through.
  class Scope {
   public:
    Scope(Spans* spans, const char* name, std::int64_t parent,
          std::int64_t run);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const { return span_.id; }

   private:
    Spans* spans_;
    Span span_;
  };

  /// Finished spans in completion order; read after every thread joined.
  const std::vector<Span>& done() const { return done_; }

 private:
  std::atomic<std::int64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> done_;  // guarded by mu_
};

/// Times one call into a layer: always appends its duration times `scale`
/// to `out`, and records it as a span when `spans` is non-null.
class Timed {
 public:
  Timed(std::vector<double>& out, double scale, Spans* spans, const char* name,
        std::int64_t parent, std::int64_t run);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  std::int64_t id() const { return scope_.id(); }

 private:
  std::vector<double>& out_;
  double scale_;
  Spans::Scope scope_;
  double t0_;
};

/// A functional outcome run.py compares with the stored reference for
/// (workload, input seed, key). A mismatch fails `weight` operations.
struct Check {
  std::string key;
  std::uint64_t weight = 1;
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t digest = 0;
};

/// Everything one harness process reports.
struct Record {
  std::string workload;
  std::uint64_t input_seed = 0;
  bool trace = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;           // failures the harness saw itself
  std::vector<std::string> failures;  // the first few, for the log
  std::vector<Check> checks;
  std::map<std::string, std::vector<double>> samples;
  // End-to-end samples, one list per episode, and beside each the steady
  // clock (s) at its middle, so run.py can scale it by the host probes
  // timed around it.
  std::map<std::string, std::vector<std::vector<double>>> series;
  std::map<std::string, std::vector<std::vector<double>>> series_at;
  // Host probes (host_probe.h): when (steady clock, s) and milliseconds.
  std::vector<std::pair<double, double>> probes;
  std::map<std::string, double> values;  // end-to-end scalars
  std::map<std::string, double> layers;  // per-layer scalars

  void fail(const std::string& why, std::uint64_t n = 1);
  /// Appends `value` to episode `episode`'s samples of `name`, taken at
  /// steady-clock time `at`.
  void add(const std::string& name, std::size_t episode, double value,
           double at);
  /// Times the host probe now and logs it.
  void probe();
};

/// Write `rec`, the build environment and the finished spans as one JSON
/// document.
void write_record(std::ostream& os, const Record& rec, const Spans& spans);

}  // namespace perfbench
