// Unit tests for the virtual-time ledger: makespan composition, the
// Reduce-Scatter/local-delivery overlap, and slowdown accounting — plus the
// divide-by-zero guards on the derived-rate helpers (RunReport::slowdown(),
// RunReport::mean_rate_hz()), and the
// apportioning of a thread's CPU time over its phase brackets
// (util::cpu_wall_ratio()) that feeds the ledger its measured fields.
#include "perf/ledger.h"

#include <gtest/gtest.h>

#include <array>

#include "runtime/compass.h"
#include "util/stopwatch.h"

namespace compass::perf {
namespace {

TEST(ComposeTick, EmptyIsZero) {
  const PhaseBreakdown b = compose_tick({});
  EXPECT_DOUBLE_EQ(b.total(), 0.0);
}

TEST(ComposeTick, SingleRankPassesThrough) {
  RankTickTimes r;
  r.synapse = 1.0;
  r.neuron = 2.0;
  r.send = 0.5;
  r.local_deliver = 0.25;
  r.sync = 0.1;
  r.recv = 0.3;
  const PhaseBreakdown b = compose_tick({r});
  EXPECT_DOUBLE_EQ(b.synapse, 1.0);
  EXPECT_DOUBLE_EQ(b.neuron, 2.5);                   // neuron + send
  EXPECT_DOUBLE_EQ(b.network, 0.25 + 0.3);           // max(sync, local) + recv
  EXPECT_DOUBLE_EQ(b.total(), 1.0 + 2.5 + 0.55);
}

TEST(ComposeTick, TakesMaxAcrossRanks) {
  RankTickTimes fast, slow;
  fast.synapse = 1.0;
  fast.neuron = 1.0;
  slow.synapse = 3.0;
  slow.neuron = 0.5;
  const PhaseBreakdown b = compose_tick({fast, slow});
  // Phase barriers: each phase waits for its slowest rank independently.
  EXPECT_DOUBLE_EQ(b.synapse, 3.0);
  EXPECT_DOUBLE_EQ(b.neuron, 1.0);
}

TEST(ComposeTick, OverlapHidesTheSmallerOfSyncAndLocal) {
  RankTickTimes r;
  r.sync = 2.0;
  r.local_deliver = 1.5;
  r.recv = 0.5;
  const PhaseBreakdown with = compose_tick({r}, /*overlap_collective=*/true);
  const PhaseBreakdown without = compose_tick({r}, /*overlap_collective=*/false);
  EXPECT_DOUBLE_EQ(with.network, 2.0 + 0.5);
  EXPECT_DOUBLE_EQ(without.network, 2.0 + 1.5 + 0.5);
  EXPECT_LT(with.network, without.network);
}

TEST(ComposeTick, OverlapIsFreeWhenLocalDominates) {
  RankTickTimes r;
  r.sync = 0.5;
  r.local_deliver = 4.0;
  const PhaseBreakdown with = compose_tick({r}, true);
  EXPECT_DOUBLE_EQ(with.network, 4.0);  // the collective fully hides
}

TEST(ComposeTick, AggregationRidesTheNeuronPhase) {
  RankTickTimes r;
  r.neuron = 1.0;
  r.aggregate = 0.25;
  r.send = 0.5;
  const PhaseBreakdown b = compose_tick({r});
  EXPECT_DOUBLE_EQ(b.neuron, 1.75);  // neuron + aggregate + send
}

TEST(ComposeTick, RemoteDeliveryRidesTheReceiveLeg) {
  RankTickTimes r;
  r.recv = 0.5;
  r.remote_deliver = 0.75;
  r.sync = 0.1;
  const PhaseBreakdown b = compose_tick({r});
  EXPECT_DOUBLE_EQ(b.network, 0.1 + 0.5 + 0.75);
}

TEST(PhaseBreakdown, PlusEqualsAccumulates) {
  PhaseBreakdown a{1, 2, 3}, b{10, 20, 30};
  a += b;
  EXPECT_DOUBLE_EQ(a.synapse, 11);
  EXPECT_DOUBLE_EQ(a.neuron, 22);
  EXPECT_DOUBLE_EQ(a.network, 33);
}

TEST(RunLedger, CommitTickReturnsTheTicksBreakdown) {
  RunLedger ledger(2);
  ledger.tick_scratch()[0].synapse = 0.5;
  ledger.tick_scratch()[1].synapse = 1.0;
  ledger.tick_scratch()[0].neuron = 2.0;
  const PhaseBreakdown tick = ledger.commit_tick();
  EXPECT_DOUBLE_EQ(tick.synapse, 1.0);
  EXPECT_DOUBLE_EQ(tick.neuron, 2.0);
  // The returned breakdowns sum to totals() exactly (the trace layer's
  // per-tick records rely on this).
  PhaseBreakdown sum = tick;
  ledger.tick_scratch()[1].synapse = 3.0;
  sum += ledger.commit_tick();
  EXPECT_DOUBLE_EQ(sum.synapse, ledger.totals().synapse);
  EXPECT_DOUBLE_EQ(sum.neuron, ledger.totals().neuron);
  EXPECT_DOUBLE_EQ(sum.network, ledger.totals().network);
}

TEST(RunLedger, AccumulatesOverTicks) {
  RunLedger ledger(2);
  for (int tick = 0; tick < 10; ++tick) {
    ledger.tick_scratch()[0].synapse = 0.5;
    ledger.tick_scratch()[1].synapse = 1.0;
    ledger.commit_tick();
  }
  EXPECT_EQ(ledger.ticks(), 10u);
  EXPECT_DOUBLE_EQ(ledger.totals().synapse, 10.0);  // max(0.5, 1.0) * 10
}

TEST(RunLedger, ScratchResetsBetweenTicks) {
  RunLedger ledger(1);
  ledger.tick_scratch()[0].neuron = 7.0;
  ledger.commit_tick();
  EXPECT_DOUBLE_EQ(ledger.tick_scratch()[0].neuron, 0.0);
  ledger.commit_tick();  // empty tick adds nothing
  EXPECT_DOUBLE_EQ(ledger.totals().neuron, 7.0);
}

TEST(RunLedger, SlowdownVsRealtime) {
  RunLedger ledger(1);
  for (int tick = 0; tick < 4; ++tick) {
    ledger.tick_scratch()[0].neuron = 2e-3;  // 2 ms of work per 1 ms tick
    ledger.commit_tick();
  }
  runtime::RunReport rep;  // filled from the ledger as Compass::step() does
  rep.ticks = ledger.ticks();
  rep.virtual_time = ledger.totals();
  EXPECT_DOUBLE_EQ(rep.slowdown(), 2.0);
}

TEST(RunLedger, SlowdownOfEmptyRunIsZero) {
  RunLedger ledger(4);
  runtime::RunReport rep;
  rep.ticks = ledger.ticks();
  rep.virtual_time = ledger.totals();
  EXPECT_DOUBLE_EQ(rep.slowdown(), 0.0);
}

TEST(RunLedger, HonoursOverlapFlag) {
  RunLedger with(1, true), without(1, false);
  for (RunLedger* l : {&with, &without}) {
    l->tick_scratch()[0].sync = 1.0;
    l->tick_scratch()[0].local_deliver = 1.0;
    l->commit_tick();
  }
  EXPECT_DOUBLE_EQ(with.totals().network, 1.0);
  EXPECT_DOUBLE_EQ(without.totals().network, 2.0);
}

// --- RunReport derived-rate guards ----------------------------------------

TEST(RunReport, SlowdownOfEmptyReportIsZero) {
  runtime::RunReport rep;
  rep.virtual_time.neuron = 1.0;  // time but no ticks: still no division
  EXPECT_DOUBLE_EQ(rep.slowdown(), 0.0);
}

TEST(RunReport, SlowdownVsBiologicalTime) {
  runtime::RunReport rep;
  rep.ticks = 1000;  // 1 biological second
  rep.virtual_time.neuron = 2.0;
  EXPECT_DOUBLE_EQ(rep.slowdown(), 2.0);
}

TEST(RunReport, MeanRateGuardsBothZeroDenominators) {
  runtime::RunReport rep;
  rep.fired_spikes = 42;
  EXPECT_DOUBLE_EQ(rep.mean_rate_hz(100), 0.0);  // ticks == 0
  rep.ticks = 1000;
  EXPECT_DOUBLE_EQ(rep.mean_rate_hz(0), 0.0);  // neurons == 0
  // 42 spikes over 1 biological second across 100 neurons -> 0.42 Hz.
  EXPECT_DOUBLE_EQ(rep.mean_rate_hz(100), 0.42);
}

// --- Apportioning a share's CPU time over its brackets ---------------------
// Synthetic samples: one thread's share of a rank loop is a row of
// monotonic brackets that tile it, plus the share's thread-CPU seconds.

constexpr double kUs = 1e-6;

TEST(CpuWallRatio, NoStealKeepsEveryBracket) {
  const std::array<double, 3> brackets{5 * kUs, 12 * kUs, 3 * kUs};
  const double wall = brackets[0] + brackets[1] + brackets[2];
  const double ratio = util::cpu_wall_ratio(wall, wall);
  EXPECT_DOUBLE_EQ(ratio, 1.0);
  for (const double b : brackets) EXPECT_DOUBLE_EQ(b * ratio, b);
}

TEST(CpuWallRatio, SliceStolenInOneBracketIsExcludedInProportion) {
  // Two ranks of 10 us compute each; the scheduler takes 5 us from the
  // thread inside the second rank's bracket.
  const double stolen = 5 * kUs;
  const std::array<double, 2> brackets{10 * kUs, 10 * kUs + stolen};
  const double wall = brackets[0] + brackets[1];
  const double cpu = wall - stolen;
  const double ratio = util::cpu_wall_ratio(wall, cpu);
  EXPECT_DOUBLE_EQ(ratio, 0.8);
  const double first = brackets[0] * ratio;
  const double second = brackets[1] * ratio;
  EXPECT_DOUBLE_EQ(first + second, cpu);  // the share's CPU, no more
  EXPECT_LT(second, brackets[1]);
  EXPECT_LT(first, brackets[0]);  // spread over the share, not pinned
  EXPECT_GT(second, first);       // longer bracket, larger charge
}

TEST(CpuWallRatio, ThreadWithoutRanksGivesAFiniteNeutralRatio) {
  // A team thread the static schedule gave no rank never brackets anything;
  // its (zero-wall) share must not produce a NaN or infinity.
  EXPECT_DOUBLE_EQ(util::cpu_wall_ratio(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(util::cpu_wall_ratio(0.0, 1 * kUs), 1.0);
  EXPECT_DOUBLE_EQ(util::cpu_wall_ratio(-1 * kUs, 0.0), 1.0);
}

TEST(CpuWallRatio, CpuAboveWallFromGranularityIsClamped) {
  // The two clocks tick apart, so an unpreempted share can read slightly
  // more CPU than wall; that is never extra compute.
  const double wall = 20 * kUs;
  EXPECT_DOUBLE_EQ(util::cpu_wall_ratio(wall, wall + 0.4 * kUs), 1.0);
  EXPECT_DOUBLE_EQ(util::cpu_wall_ratio(wall, 3.0 * wall), 1.0);
  // And the other side of the range: no CPU at all charges nothing.
  EXPECT_DOUBLE_EQ(util::cpu_wall_ratio(wall, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(util::cpu_wall_ratio(wall, -1 * kUs), 0.0);
}

}  // namespace
}  // namespace compass::perf
