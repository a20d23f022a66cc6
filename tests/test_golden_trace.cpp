// Golden trace regression test: the first 12 ticks of the frozen macaque
// run (seed 2012, 77 cores, 3 ranks x 2 threads, MPI transport, measure off)
// serialize to *exactly* the JSONL committed at tests/data/golden_trace.jsonl.
// Every field is either a functional counter or a modelled (deterministic)
// communication time, so the file is stable across machines, thread counts,
// and repeated runs.
//
// Regenerating after an intentional model/trace-schema change:
//
//   cmake --build build -j
//   COMPASS_REGOLDEN=1 ./build/tests/test_golden_trace
//
// then commit the rewritten tests/data/golden_trace.jsonl together with the
// change that moved it — never loosen the comparison.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cocomac/macaque.h"
#include "comm/mpi_transport.h"
#include "compiler/pcc.h"
#include "obs/jsonv.h"
#include "obs/trace.h"
#include "runtime/compass.h"

#ifndef COMPASS_TEST_DATA_DIR
#error "COMPASS_TEST_DATA_DIR must be defined by the build"
#endif

namespace compass {
namespace {

constexpr arch::Tick kGoldenTicks = 12;

std::string golden_path() {
  return std::string(COMPASS_TEST_DATA_DIR) + "/golden_trace.jsonl";
}

std::string render_trace() {
  cocomac::MacaqueSpecOptions mopt;
  mopt.total_cores = 77;
  mopt.seed = 2012;
  compiler::PccOptions popt;
  popt.ranks = 3;
  popt.threads_per_rank = 2;
  compiler::PccResult pcc =
      compiler::compile(cocomac::build_macaque_spec(mopt), popt);

  comm::MpiTransport transport(3, comm::CommCostModel{});
  runtime::Config cfg;
  cfg.measure = false;  // modelled times only: deterministic everywhere
  runtime::Compass sim(pcc.model, pcc.partition, transport, cfg);

  std::ostringstream os;
  obs::JsonlTraceWriter writer(os, obs::JsonlOptions{.include_measured = false});
  sim.add_trace_sink(&writer);
  sim.run(kGoldenTicks);
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

TEST(GoldenTrace, FirstTicksMatchCommittedJsonl) {
  const std::string actual = render_trace();

  if (std::getenv("COMPASS_REGOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << actual;
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << golden_path()
      << " — regenerate with COMPASS_REGOLDEN=1 (see file header)";
  std::ostringstream expected;
  expected << in.rdbuf();

  const std::vector<std::string> want = split_lines(expected.str());
  const std::vector<std::string> got = split_lines(actual);
  // Spans + one tick record per tick, for every (tick, rank, phase).
  ASSERT_EQ(want.size(), kGoldenTicks * (3u * 3u + 1u));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "trace line " << (i + 1) << " diverged";
  }
}

TEST(GoldenTrace, EveryGoldenLineIsValidJson) {
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path();
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    EXPECT_NO_THROW(obs::jsonv::JsonParser(line).parse())
        << "line " << (n + 1) << ": " << line;
    ++n;
  }
  EXPECT_EQ(n, kGoldenTicks * (3u * 3u + 1u));
}

TEST(GoldenTrace, RenderedTraceCarriesNoHostTimes) {
  const std::string actual = render_trace();
  // With measure=false and include_measured=false nothing host-measured can
  // leak into the golden file.
  EXPECT_EQ(actual.find("compute_s"), std::string::npos);
  EXPECT_NE(actual.find("comm_s"), std::string::npos);
}

}  // namespace
}  // namespace compass
