// Rank-failure recovery lockdown suite (`ctest -L resilience-recovery`).
//
// Covers the survivable-simulation contract end to end:
//   * policy parsing and the kill-rank/kill-tick pairing rule in FaultPlan;
//   * checkpoint selection (newest at-or-before the failure tick — a
//     snapshot written after the death holds ghost state a real cluster
//     could never have collected);
//   * the orphan re-placement planner (traffic-aware, load-capped,
//     deterministic);
//   * the supervisor itself: a killed rank is survived under both
//     restart-rank and migrate, the run completes every tick, and the
//     recovery is visible in the RunReport, JSONL traces, metrics, and
//     flight recorder;
//   * determinism: same seed + same plan ⇒ byte-identical post-recovery
//     model state across MPI/PGAS transports and OpenMP widths;
//   * abort: arming the supervisor with the abort policy is bit-for-bit a
//     no-op;
//   * chaos soak: randomized plans × degradation policies × recovery modes
//     either complete or fail with a typed error — never UB, never a hang.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "comm/transport.h"
#include "compiler/pcc.h"
#include "macaque_fixture.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "place/placer.h"
#include "resilience/checkpoint.h"
#include "resilience/checkpoint_manager.h"
#include "resilience/fault.h"
#include "resilience/recovery.h"
#include "runtime/compass.h"

namespace compass {
namespace {

using comm::TransportKind;
using testing::compile_macaque;
using testing::expect_reports_equal;

namespace fs = std::filesystem;

using arch::CoreId;
using arch::Tick;
using resilience::CheckpointError;
using resilience::CheckpointManager;
using resilience::CheckpointOptions;
using resilience::FaultPlan;
using resilience::FaultPlanError;
using resilience::RecoveryError;
using resilience::RecoveryPolicy;
using resilience::RecoverySupervisor;
using SpikeEvent = std::tuple<Tick, CoreId, unsigned>;

std::string unique_dir(const char* tag) {
  static int counter = 0;
  fs::path dir = fs::path(::testing::TempDir()) /
                 (std::string("compass_recovery_") + tag + "_" +
                  std::to_string(::getpid()) + "_" + std::to_string(counter++));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Deterministic model bytes (Model::save): the byte-identity currency for
/// the cross-transport / cross-width determinism claims. The full
/// checkpoint is not used for byte comparison because its runtime section
/// carries measured host wall time.
std::string model_bytes(const arch::Model& model) {
  std::ostringstream os(std::ios::binary);
  model.save(os);
  return os.str();
}

/// A full faulty-run fixture: model + fault decorator + simulator + the
/// supervisor wiring the CLI performs, so tests drive exactly the
/// production recovery path.
struct RecoveryRun {
  arch::Model model;
  runtime::Partition partition;
  std::unique_ptr<comm::Transport> inner;
  std::unique_ptr<resilience::FaultInjectingTransport> faulty;
  std::unique_ptr<runtime::Compass> sim;
  std::unique_ptr<CheckpointManager> manager;
  std::unique_ptr<RecoverySupervisor> supervisor;
  std::vector<SpikeEvent> spikes;
  std::ostringstream trace_os;
  std::unique_ptr<obs::JsonlTraceWriter> trace;

  RecoveryRun(const compiler::PccResult& pcc, const FaultPlan& plan,
              RecoveryPolicy policy, const std::string& ckpt_dir,
              std::uint64_t ckpt_every, TransportKind kind = TransportKind::kMpi)
      : model(pcc.model), partition(pcc.partition) {
    inner = comm::make_transport(kind, partition.ranks());
    faulty =
        std::make_unique<resilience::FaultInjectingTransport>(*inner, plan);
    runtime::Config cfg;
    cfg.measure = false;  // modelled times only: runs compare byte-for-byte
    sim = std::make_unique<runtime::Compass>(model, partition, *faulty, cfg);
    sim->set_spike_hook([this](Tick t, CoreId c, unsigned j) {
      spikes.emplace_back(t, c, j);
    });
    trace = std::make_unique<obs::JsonlTraceWriter>(
        trace_os, obs::JsonlOptions{.include_measured = false});
    sim->add_trace_sink(trace.get());

    CheckpointOptions copt;
    copt.dir = ckpt_dir;
    copt.every = ckpt_every;
    copt.keep = 100;  // retention is not under test here
    manager = std::make_unique<CheckpointManager>(copt);
    manager->attach(*sim, model);

    supervisor = std::make_unique<RecoverySupervisor>(policy, *sim, model,
                                                      *faulty, *manager);
  }
};

FaultPlan kill_plan(int rank, std::uint64_t tick) {
  return FaultPlan::parse("kill-rank=" + std::to_string(rank) +
                          ",kill-tick=" + std::to_string(tick));
}

// --- Policy parsing and the plan pairing rule -------------------------------

TEST(RecoveryPolicy, ParsesAndRoundTrips) {
  EXPECT_EQ(resilience::parse_recovery_policy("abort"), RecoveryPolicy::kAbort);
  EXPECT_EQ(resilience::parse_recovery_policy("restart-rank"),
            RecoveryPolicy::kRestartRank);
  EXPECT_EQ(resilience::parse_recovery_policy("migrate"),
            RecoveryPolicy::kMigrate);
  for (RecoveryPolicy p : {RecoveryPolicy::kAbort, RecoveryPolicy::kRestartRank,
                           RecoveryPolicy::kMigrate}) {
    EXPECT_EQ(resilience::parse_recovery_policy(resilience::to_string(p)), p);
  }
  EXPECT_THROW(resilience::parse_recovery_policy("reboot"), RecoveryError);
  EXPECT_THROW(resilience::parse_recovery_policy(""), RecoveryError);
}

TEST(FaultPlanKillPair, KillRankWithoutTickIsRejected) {
  EXPECT_THROW(FaultPlan::parse("kill-rank=1"), FaultPlanError);
  EXPECT_THROW(FaultPlan::parse("drop=0.1,kill-rank=0"), FaultPlanError);
}

TEST(FaultPlanKillPair, KillTickWithoutRankIsRejected) {
  EXPECT_THROW(FaultPlan::parse("kill-tick=10"), FaultPlanError);
  EXPECT_THROW(FaultPlan::parse("kill-tick=10,drop=0.1"), FaultPlanError);
}

TEST(FaultPlanKillPair, PairParsesAndEchoesBoth) {
  const FaultPlan plan = FaultPlan::parse("kill-rank=2,kill-tick=7");
  EXPECT_EQ(plan.kill_rank, 2);
  EXPECT_EQ(plan.kill_tick, 7u);
  const std::string echo = plan.to_string();
  EXPECT_NE(echo.find("kill-rank=2"), std::string::npos);
  EXPECT_NE(echo.find("kill-tick=7"), std::string::npos);
  // The echo round-trips — what a post-mortem reads is what ran.
  const FaultPlan again = FaultPlan::parse(echo);
  EXPECT_EQ(again.kill_rank, plan.kill_rank);
  EXPECT_EQ(again.kill_tick, plan.kill_tick);
}

// --- Checkpoint selection ---------------------------------------------------

TEST(LatestAtOrBefore, PicksNewestSnapshotNotAfterTheFailure) {
  const std::string dir = unique_dir("at_or_before");
  const compiler::PccResult pcc = compile_macaque();
  RecoveryRun run(pcc, FaultPlan{}, RecoveryPolicy::kAbort, dir, 0);
  for (Tick t : {Tick{5}, Tick{10}, Tick{15}}) {
    resilience::Checkpoint cp = resilience::capture(*run.sim, run.model);
    cp.tick = t;
    resilience::write_checkpoint_file(
        resilience::serialize_checkpoint(cp),
        dir + "/" + CheckpointManager::file_name(t));
  }
  EXPECT_EQ(CheckpointManager::latest_at_or_before(dir, 12),
            dir + "/" + CheckpointManager::file_name(10));
  EXPECT_EQ(CheckpointManager::latest_at_or_before(dir, 10),
            dir + "/" + CheckpointManager::file_name(10));
  EXPECT_EQ(CheckpointManager::latest_at_or_before(dir, 99),
            dir + "/" + CheckpointManager::file_name(15));
  EXPECT_EQ(CheckpointManager::latest_at_or_before(dir, 4), "");
  fs::remove_all(dir);
}

TEST(CheckpointRetention, UnwritableDirIsTypedIoError) {
  const std::string dir = unique_dir("typed_io");
  const compiler::PccResult pcc = compile_macaque();
  RecoveryRun run(pcc, FaultPlan{}, RecoveryPolicy::kAbort, dir, 0);
  EXPECT_FALSE(run.manager->write_now(*run.sim, run.model).empty());
  // Replace the directory with a plain file: both the write path and the
  // retention pass's dirfd fsync now have nothing valid to open.
  fs::remove_all(dir);
  { std::ofstream blocker(dir); }
  try {
    run.manager->write_now(*run.sim, run.model);
    FAIL() << "write_now into a non-directory must throw";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), resilience::CheckpointErrc::kIo);
  }
  fs::remove_all(dir);
}

TEST(CheckpointRetention, PruneKeepsNewestAndSurvivesDirectoryFsync) {
  const std::string dir = unique_dir("retention");
  const compiler::PccResult pcc = compile_macaque();
  FaultPlan plan;  // fault-free
  RecoveryRun run(pcc, plan, RecoveryPolicy::kAbort, dir, 0);
  CheckpointOptions copt;
  copt.dir = dir;
  copt.every = 0;
  copt.keep = 2;
  CheckpointManager tight(copt);
  for (int i = 0; i < 4; ++i) {
    run.sim->run(3);
    ASSERT_FALSE(tight.write_now(*run.sim, run.model).empty());
  }
  int files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2);  // prune (with its dirfd fsync) ran after each write
  fs::remove_all(dir);
}

// --- Orphan re-placement planner --------------------------------------------

TEST(ReplaceDeadRank, MovesEveryOrphanToSurvivorsUnderLoadCap) {
  const compiler::PccResult pcc = compile_macaque({.ranks = 4, .threads = 1});
  const std::vector<int> rank_of =
      place::replace_dead_rank(pcc.partition, 1, nullptr);
  ASSERT_EQ(rank_of.size(), pcc.partition.num_cores());
  const std::size_t cores = pcc.partition.num_cores();
  const std::size_t cap = (cores + 3 - 1) / 3;  // ceil(cores / survivors)
  std::vector<std::size_t> load(4, 0);
  for (std::size_t c = 0; c < cores; ++c) {
    EXPECT_NE(rank_of[c], 1) << "core " << c << " left on the dead rank";
    ++load[static_cast<std::size_t>(rank_of[c])];
  }
  EXPECT_EQ(load[1], 0u);
  for (int r : {0, 2, 3}) {
    EXPECT_LE(load[static_cast<std::size_t>(r)], cap) << "rank " << r;
  }
  // Survivors' own cores never move.
  for (int r : {0, 2, 3}) {
    for (CoreId c : pcc.partition.cores_of(r)) {
      EXPECT_EQ(rank_of[static_cast<std::size_t>(c)], r);
    }
  }
}

TEST(ReplaceDeadRank, PrefersTheRankThatTalkedMostToTheDeadOne) {
  const compiler::PccResult pcc = compile_macaque({.ranks = 4, .threads = 1});
  obs::CommMatrix comm(4);
  // Rank 3 exchanged overwhelmingly more spikes with rank 1 than anyone.
  comm.record(1, 3, /*spikes=*/100000, /*bytes=*/1);
  comm.record(3, 1, /*spikes=*/100000, /*bytes=*/1);
  comm.record(1, 0, /*spikes=*/10, /*bytes=*/1);
  const std::vector<int> rank_of =
      place::replace_dead_rank(pcc.partition, 1, &comm);
  const std::size_t orphans = pcc.partition.cores_of(1).size();
  const std::size_t cores = pcc.partition.num_cores();
  const std::size_t cap = (cores + 2) / 3;
  const std::size_t rank3_room = cap - pcc.partition.cores_of(3).size();
  std::size_t moved_to_3 = 0;
  for (CoreId c : pcc.partition.cores_of(1)) {
    if (rank_of[static_cast<std::size_t>(c)] == 3) ++moved_to_3;
  }
  EXPECT_EQ(moved_to_3, std::min(orphans, rank3_room));
}

TEST(ReplaceDeadRank, IsDeterministic) {
  const compiler::PccResult pcc = compile_macaque({.ranks = 4, .threads = 1});
  obs::CommMatrix comm(4);
  comm.record(1, 2, 500, 1);
  comm.record(0, 1, 500, 1);
  EXPECT_EQ(place::replace_dead_rank(pcc.partition, 1, &comm),
            place::replace_dead_rank(pcc.partition, 1, &comm));
  EXPECT_EQ(place::replace_dead_rank(pcc.partition, 1, nullptr),
            place::replace_dead_rank(pcc.partition, 1, nullptr));
}

TEST(ReplaceDeadRank, RejectsImpossibleInputs) {
  const compiler::PccResult pcc = compile_macaque({.ranks = 3, .threads = 1});
  EXPECT_THROW(place::replace_dead_rank(pcc.partition, -1, nullptr),
               place::PlacementError);
  EXPECT_THROW(place::replace_dead_rank(pcc.partition, 3, nullptr),
               place::PlacementError);
  const compiler::PccResult solo = compile_macaque({.ranks = 1, .threads = 1});
  EXPECT_THROW(place::replace_dead_rank(solo.partition, 0, nullptr),
               place::PlacementError);
}

// --- Surviving a kill: migrate ----------------------------------------------

TEST(RecoverySupervisor, MigrateSurvivesTheKillAndReportsIt) {
  const std::string dir = unique_dir("migrate");
  const compiler::PccResult pcc = compile_macaque();
  RecoveryRun run(pcc, kill_plan(1, 25), RecoveryPolicy::kMigrate, dir, 10);
  obs::MetricsRegistry metrics;
  obs::FlightRecorder flight(pcc.partition.ranks());
  // The supervisor and manager publish through the simulator's planes.
  run.sim->set_metrics(&metrics);
  run.sim->set_flight_recorder(&flight);
  run.supervisor->arm();

  const runtime::RunReport rep = run.sim->run(60);

  // The run completed every tick in declared degraded mode.
  EXPECT_EQ(rep.ticks, 60u);
  EXPECT_EQ(rep.recoveries, 1u);
  ASSERT_EQ(run.supervisor->events().size(), 1u);
  const resilience::RecoveryEvent& ev = run.supervisor->events().front();
  EXPECT_EQ(ev.dead_rank, 1);
  EXPECT_EQ(ev.detected_tick, 26u);  // first boundary after the kill tick
  EXPECT_EQ(ev.checkpoint_tick, 20u);
  EXPECT_EQ(ev.ticks_lost, 6u);
  EXPECT_EQ(rep.recovery_ticks_lost, ev.ticks_lost);
  EXPECT_EQ(ev.policy, RecoveryPolicy::kMigrate);
  EXPECT_EQ(ev.cores_recovered, pcc.partition.cores_of(1).size());
  EXPECT_EQ(ev.cores_migrated, ev.cores_recovered);

  // The dead rank ends the run owning nothing.
  EXPECT_TRUE(run.sim->partition().cores_of(1).empty());
  EXPECT_EQ(run.sim->partition().num_cores(), pcc.partition.num_cores());

  // Observability: JSONL trace record, metrics series, flight-ring event.
  EXPECT_NE(run.trace_os.str().find("\"type\":\"recovery\""),
            std::string::npos);
  EXPECT_NE(run.trace_os.str().find("\"policy\":\"migrate\""),
            std::string::npos);
  bool saw_counter = false;
  bool saw_gauge = false;
  for (const obs::MetricValue& s : metrics.snapshot()) {
    if (s.name == "compass.recoveries") {
      saw_counter = true;
      EXPECT_EQ(s.count, 1u);
    }
    if (s.name == "compass.recovery.ticks_lost") {
      saw_gauge = true;
      EXPECT_EQ(s.value, 6.0);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  std::ostringstream flight_os;
  flight.dump(flight_os, "test");
  EXPECT_NE(flight_os.str().find("\"kind\":\"recovery\""), std::string::npos);
  fs::remove_all(dir);
}

TEST(RecoverySupervisor, BaselineSnapshotSurvivesAnEarlyKill) {
  const std::string dir = unique_dir("baseline");
  const compiler::PccResult pcc = compile_macaque();
  // No periodic checkpoints at all: only arm()'s baseline stands between
  // the kill and an unrecoverable run.
  RecoveryRun run(pcc, kill_plan(0, 3), RecoveryPolicy::kMigrate, dir, 0);
  run.supervisor->arm();
  const runtime::RunReport rep = run.sim->run(20);
  EXPECT_EQ(rep.ticks, 20u);
  EXPECT_EQ(rep.recoveries, 1u);
  ASSERT_EQ(run.supervisor->events().size(), 1u);
  EXPECT_EQ(run.supervisor->events().front().checkpoint_tick, 0u);
  EXPECT_EQ(run.supervisor->events().front().ticks_lost, 4u);
  EXPECT_TRUE(run.sim->partition().cores_of(0).empty());
  fs::remove_all(dir);
}

// --- Surviving a kill: restart-rank -----------------------------------------

TEST(RecoverySupervisor, RestartRankRevivesInPlace) {
  const std::string dir = unique_dir("restart");
  const compiler::PccResult pcc = compile_macaque();
  RecoveryRun run(pcc, kill_plan(1, 25), RecoveryPolicy::kRestartRank, dir,
                  10);
  run.supervisor->arm();
  const runtime::RunReport rep = run.sim->run(60);
  EXPECT_EQ(rep.ticks, 60u);
  EXPECT_EQ(rep.recoveries, 1u);
  ASSERT_EQ(run.supervisor->events().size(), 1u);
  EXPECT_EQ(run.supervisor->events().front().cores_migrated, 0u);
  // The rank keeps its cores and is alive again: no further traffic loss.
  EXPECT_EQ(run.sim->partition().cores_of(1).size(),
            pcc.partition.cores_of(1).size());
  EXPECT_LT(run.faulty->dead_rank(), 0);
  const std::uint64_t faults_at_recovery = rep.faults_injected;
  EXPECT_GT(faults_at_recovery, 0u);  // the death itself dropped messages
  fs::remove_all(dir);
}

// --- Abort stays bit-for-bit today's semantics ------------------------------

TEST(RecoverySupervisor, AbortPolicyIsBitForBitInert) {
  const std::string dir_a = unique_dir("abort_a");
  const std::string dir_b = unique_dir("abort_b");
  const compiler::PccResult pcc = compile_macaque();

  // Plain faulty run, no supervisor anywhere near it.
  RecoveryRun plain(pcc, kill_plan(1, 25), RecoveryPolicy::kAbort, dir_a, 0);
  const runtime::RunReport rep_plain = plain.sim->run(60);

  // Same run with an armed abort supervisor: arm() must be a no-op.
  RecoveryRun armed(pcc, kill_plan(1, 25), RecoveryPolicy::kAbort, dir_b, 0);
  armed.supervisor->arm();
  const runtime::RunReport rep_armed = armed.sim->run(60);

  EXPECT_EQ(rep_armed.recoveries, 0u);
  EXPECT_TRUE(armed.supervisor->events().empty());
  EXPECT_EQ(model_bytes(plain.model), model_bytes(armed.model));
  EXPECT_EQ(plain.spikes, armed.spikes);
  EXPECT_EQ(plain.trace_os.str(), armed.trace_os.str());
  expect_reports_equal(rep_plain, rep_armed, /*virtual_time=*/true);
  // No baseline snapshot was written either.
  EXPECT_EQ(CheckpointManager::latest_in(dir_b), "");
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

// --- Determinism: transports and widths -------------------------------------

TEST(RecoveryDeterminism, MigrateIsByteIdenticalAcrossTransports) {
  const std::string dir_mpi = unique_dir("det_mpi");
  const std::string dir_pgas = unique_dir("det_pgas");
  const compiler::PccResult pcc = compile_macaque();

  RecoveryRun mpi(pcc, kill_plan(1, 25), RecoveryPolicy::kMigrate, dir_mpi, 10,
                  TransportKind::kMpi);
  mpi.supervisor->arm();
  const runtime::RunReport rep_mpi = mpi.sim->run(60);

  RecoveryRun pgas(pcc, kill_plan(1, 25), RecoveryPolicy::kMigrate, dir_pgas,
                   10, TransportKind::kPgas);
  pgas.supervisor->arm();
  const runtime::RunReport rep_pgas = pgas.sim->run(60);

  EXPECT_EQ(rep_mpi.recoveries, 1u);
  EXPECT_EQ(rep_pgas.recoveries, 1u);
  EXPECT_EQ(model_bytes(mpi.model), model_bytes(pgas.model));
  EXPECT_EQ(mpi.spikes, pgas.spikes);
  EXPECT_EQ(rep_mpi.fired_spikes, rep_pgas.fired_spikes);
  EXPECT_EQ(rep_mpi.recovery_ticks_lost, rep_pgas.recovery_ticks_lost);
  // Both planners moved the orphans to the same new homes.
  for (int r = 0; r < pcc.partition.ranks(); ++r) {
    const auto a = mpi.sim->partition().cores_of(r);
    const auto b = pgas.sim->partition().cores_of(r);
    ASSERT_EQ(a.size(), b.size()) << "rank " << r;
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  fs::remove_all(dir_mpi);
  fs::remove_all(dir_pgas);
}

TEST(RecoveryDeterminism, MigrateIsByteIdenticalAcrossThreadWidths) {
  const std::string dir_1 = unique_dir("det_t1");
  const std::string dir_4 = unique_dir("det_t4");
  const compiler::PccResult narrow =
      compile_macaque({.ranks = 3, .threads = 1});
  const compiler::PccResult wide = compile_macaque({.ranks = 3, .threads = 4});

  RecoveryRun t1(narrow, kill_plan(2, 17), RecoveryPolicy::kMigrate, dir_1, 8);
  t1.supervisor->arm();
  const runtime::RunReport rep1 = t1.sim->run(50);

  RecoveryRun t4(wide, kill_plan(2, 17), RecoveryPolicy::kMigrate, dir_4, 8);
  t4.supervisor->arm();
  const runtime::RunReport rep4 = t4.sim->run(50);

  EXPECT_EQ(rep1.recoveries, 1u);
  EXPECT_EQ(rep4.recoveries, 1u);
  EXPECT_EQ(model_bytes(t1.model), model_bytes(t4.model));
  EXPECT_EQ(t1.spikes, t4.spikes);
  expect_reports_equal(rep1, rep4);
  fs::remove_all(dir_1);
  fs::remove_all(dir_4);
}

// --- Recovery counters survive their own checkpoint round-trip --------------

TEST(RecoveryCheckpoint, CountersRoundTripAndOldFilesStillLoad) {
  const std::string dir = unique_dir("counters");
  const compiler::PccResult pcc = compile_macaque();
  RecoveryRun run(pcc, kill_plan(1, 15), RecoveryPolicy::kMigrate, dir, 6);
  run.supervisor->arm();
  run.sim->run(30);
  ASSERT_EQ(run.sim->report().recoveries, 1u);

  const resilience::Checkpoint cp = resilience::capture(*run.sim, run.model);
  const std::string bytes = resilience::serialize_checkpoint(cp);
  const resilience::Checkpoint back = resilience::parse_checkpoint(bytes);
  EXPECT_EQ(back.report.recoveries, 1u);
  EXPECT_EQ(back.report.recovery_ticks_lost,
            run.sim->report().recovery_ticks_lost);
  fs::remove_all(dir);
}

// --- No usable checkpoint is a typed error ----------------------------------

TEST(RecoverySupervisor, MissingCheckpointIsTypedRecoveryError) {
  const std::string dir = unique_dir("no_ckpt");
  const compiler::PccResult pcc = compile_macaque();
  RecoveryRun run(pcc, kill_plan(1, 5), RecoveryPolicy::kMigrate, dir, 0);
  run.supervisor->arm();
  fs::remove_all(dir);  // destroy the baseline before the kill fires
  EXPECT_THROW(run.sim->run(20), RecoveryError);
}

// --- Chaos soak -------------------------------------------------------------

// Randomized plans × degradation policies × recovery modes. Every
// combination must either complete all ticks (with the recovery reported)
// or fail with a typed error — never UB, never silence. Runs under the
// asan-ubsan and tsan presets, so "clean" is enforced by the sanitizers,
// not by hope.
TEST(RecoveryChaosSoak, RandomPlansCompleteOrFailTyped) {
  std::mt19937_64 rng(20120815);  // fixed seed: the soak itself is replayable
  const compiler::PccResult pcc = compile_macaque();
  const int ranks = pcc.partition.ranks();
  int completed = 0;
  for (int iter = 0; iter < 10; ++iter) {
    const int kill_rank = static_cast<int>(rng() % static_cast<unsigned>(ranks));
    const std::uint64_t kill_tick = rng() % 30;
    const std::uint64_t every = 3 + rng() % 9;
    const RecoveryPolicy policy = (rng() & 1) != 0
                                      ? RecoveryPolicy::kMigrate
                                      : RecoveryPolicy::kRestartRank;
    std::string spec = "kill-rank=" + std::to_string(kill_rank) +
                       ",kill-tick=" + std::to_string(kill_tick) +
                       ",seed=" + std::to_string(rng() % 100000);
    if ((rng() & 1) != 0) spec += ",drop=0.05";
    if ((rng() & 3) == 0) spec += ",policy=retry";
    const std::string dir = unique_dir("soak");
    SCOPED_TRACE("iter " + std::to_string(iter) + ": " + spec + " policy=" +
                 resilience::to_string(policy) + " every=" +
                 std::to_string(every));
    try {
      RecoveryRun run(pcc, FaultPlan::parse(spec), policy, dir, every);
      run.supervisor->arm();
      const runtime::RunReport rep = run.sim->run(40);
      EXPECT_EQ(rep.ticks, 40u);
      EXPECT_EQ(rep.recoveries, 1u);
      EXPECT_LE(rep.recovery_ticks_lost, 40u);
      ++completed;
    } catch (const RecoveryError&) {
    } catch (const CheckpointError&) {
    } catch (const resilience::FaultError&) {
    }
    fs::remove_all(dir);
  }
  // The soak is vacuous if nothing ever survives.
  EXPECT_GT(completed, 0);
}

}  // namespace
}  // namespace compass
