// runtime::RunObservers, the one builder every driver attaches its
// observability planes with: nothing requested attaches nothing, each
// option attaches exactly its own plane (and the run then feeds it), and an
// output that cannot be opened is an error.
#include "runtime/observers.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cocomac/macaque.h"
#include "comm/mpi_transport.h"
#include "compiler/pcc.h"

namespace compass {
namespace {

constexpr int kRanks = 3;

const compiler::PccResult& pcc() {
  static const compiler::PccResult result = [] {
    cocomac::MacaqueSpecOptions mopt;
    mopt.total_cores = 77;
    compiler::PccOptions popt;
    popt.ranks = kRanks;
    return compiler::compile(cocomac::build_macaque_spec(mopt), popt);
  }();
  return result;
}

enum Plane : unsigned {
  kMetrics = 1u << 0,
  kProfile = 1u << 1,
  kTrace = 1u << 2,
  kChrome = 1u << 3,
  kSpikes = 1u << 4,
  kAnalytics = 1u << 5,
  kWall = 1u << 6,
};

unsigned attached(runtime::RunObservers& obs) {
  return (obs.metrics() != nullptr ? kMetrics : 0u) |
         (obs.profiler() != nullptr ? kProfile : 0u) |
         (obs.trace_writer() != nullptr ? kTrace : 0u) |
         (obs.chrome() != nullptr ? kChrome : 0u) |
         (obs.spike_tracer() != nullptr && obs.span_writer() != nullptr
              ? kSpikes
              : 0u) |
         (obs.analytics() != nullptr ? kAnalytics : 0u) |
         (obs.wall_profiler() != nullptr ? kWall : 0u);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

struct Outcome {
  unsigned planes = 0;
  runtime::RunReport report;
};

Outcome run_with(const runtime::ObsOptions& options, bool profile = false) {
  runtime::RunObservers obs(options);
  arch::Model model = pcc().model;
  comm::MpiTransport transport(kRanks, comm::CommCostModel{});
  runtime::Config cfg;
  cfg.measure = false;
  runtime::Compass sim(model, pcc().partition, transport, cfg);
  obs.attach(sim, transport, compiler::core_region_map(pcc()), profile);
  Outcome r;
  r.planes = attached(obs);
  r.report = sim.run(8);
  obs.end_run(r.report);
  obs.finish();
  return r;
}

TEST(RunObservers, NothingRequestedAttachesNothing) {
  const Outcome r = run_with(runtime::ObsOptions{});
  EXPECT_EQ(r.planes, 0u);
  EXPECT_FALSE(r.report.profile.has_value());
  EXPECT_TRUE(r.report.metrics.empty());
}

TEST(RunObservers, EachOptionAttachesExactlyItsPlane) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("compass_observers_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  struct Case {
    const char* name;
    std::function<void(runtime::ObsOptions&, const std::string&)> set;
    unsigned plane;
    const char* record;  // a substring the output file must contain
  };
  const Case cases[] = {
      {"trace", [](auto& o, auto& p) { o.trace_out = p; }, kTrace,
       "\"type\":\"tick\""},
      {"chrome", [](auto& o, auto& p) { o.chrome_out = p; }, kChrome,
       "traceEvents"},
      {"metrics", [](auto& o, auto& p) { o.metrics_out = p; }, kMetrics,
       "run.ticks"},
      {"profile", [](auto& o, auto& p) { o.profile_out = p; }, kProfile,
       "\"comm\""},
      {"spikes", [](auto& o, auto& p) { o.spike_trace_out = p; }, kSpikes,
       "\"type\":\"sspan\""},
      {"analytics", [](auto& o, auto& p) { o.analytics_out = p; }, kAnalytics,
       "\"type\":\"analytics_config\""},
      {"wallprof", [](auto& o, auto& p) { o.wallprof_out = p; }, kWall,
       "\"type\":\"wallprof\""},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = dir + "/" + c.name + ".out";
    runtime::ObsOptions options;
    c.set(options, path);
    options.spike_sample = 1;
    const Outcome r = run_with(options);
    EXPECT_EQ(r.planes, c.plane);
    EXPECT_EQ(r.report.profile.has_value(), c.plane == kProfile);
    EXPECT_EQ(r.report.metrics.empty(), c.plane != kMetrics);
    EXPECT_NE(read_file(path).find(c.record), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

TEST(RunObservers, InMemoryPlanesNeedNoFile) {
  runtime::ObsOptions options;
  options.metrics = true;
  const Outcome metrics = run_with(options);
  EXPECT_EQ(metrics.planes, kMetrics);
  EXPECT_FALSE(metrics.report.metrics.empty());

  const Outcome profile = run_with(runtime::ObsOptions{}, /*profile=*/true);
  EXPECT_EQ(profile.planes, kProfile);
  EXPECT_TRUE(profile.report.profile.has_value());
}

TEST(RunObservers, UnwritableOutputIsAnError) {
  runtime::ObsOptions options;
  options.analytics_out = "/nonexistent-dir/analytics.jsonl";
  try {
    runtime::RunObservers obs(options);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "cannot write /nonexistent-dir/analytics.jsonl");
  }
}

TEST(RunObservers, OutputsOfARunThatNeverStartedAreRemoved) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("compass_observers_unused_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string fresh = (dir / "fresh.jsonl").string();
  const std::string existing = (dir / "existing.json").string();
  { std::ofstream(existing) << "{}"; }
  runtime::ObsOptions options;
  options.trace_out = fresh;
  options.metrics_out = existing;
  {
    runtime::RunObservers obs(options);
    EXPECT_TRUE(fs::exists(fresh));
  }  // destroyed before any attach() or finish()
  EXPECT_FALSE(fs::exists(fresh));
  EXPECT_TRUE(fs::exists(existing)) << "only files it created are removed";

  // An output that cannot be opened takes the ones opened before it along.
  options.analytics_out = "/nonexistent-dir/analytics.jsonl";
  EXPECT_THROW(runtime::RunObservers{options}, std::runtime_error);
  EXPECT_FALSE(fs::exists(fresh));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace compass
