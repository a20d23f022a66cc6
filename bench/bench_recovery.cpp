// Recovery cost — in-run migration vs restart-from-checkpoint.
//
// The paper's production regime (262,144 Blue Gene/Q ranks for hours) makes
// a rank loss mid-run an expected event, and the classical answer — abort
// and restart the whole job from the last checkpoint — throws away every
// surviving rank's work since that snapshot. The recovery supervisor
// (src/resilience/recovery.h) instead repairs the run in place: only the
// dead rank's cores roll back to the snapshot, everyone else keeps going.
//
// This bench quantifies the difference on one kill scenario:
//
//   migrate / restart-rank   in-run recovery: the supervisor detects the
//                            death at a tick boundary, rebuilds the orphans
//                            from the newest pre-death snapshot, and the
//                            run completes every tick. Cost: the recovery
//                            latency, plus ticks_lost × orphan cores of
//                            discarded work.
//   restart-from-checkpoint  the whole job aborts at the death, restores
//                            the same snapshot on every core, and re-runs
//                            the lost window. Cost: the restore latency
//                            plus the re-execution wall time, and
//                            ticks_lost × ALL cores of discarded work.
//
// Lost work is reported in core-ticks (rolled-back ticks × cores that roll
// back) — the currency that makes the two strategies comparable. The table
// and the CSV block carry every number (EXPERIMENTS.md "Recovery cost").
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "comm/mpi_transport.h"
#include "obs/profile.h"
#include "resilience/checkpoint.h"
#include "resilience/checkpoint_manager.h"
#include "resilience/fault.h"
#include "resilience/recovery.h"
#include "util/stopwatch.h"

namespace {

struct Scenario {
  std::string name;
  bool completed = false;
  std::uint64_t ticks_lost = 0;       // rolled-back tick window
  std::uint64_t cores_rolled = 0;     // cores that lost that window
  std::uint64_t core_ticks_lost = 0;  // ticks_lost * cores_rolled
  double recovery_wall_s = 0.0;       // repair (or restore+re-run) latency
};

}  // namespace

int main(int argc, char** argv) {
  using namespace compass;
  using namespace compass::bench;

  init_obs(argc, argv);

  print_header("bench_recovery",
               "survivability drill (DESIGN.md §13, EXPERIMENTS.md)",
               "in-run recovery beats whole-job restart-from-checkpoint on "
               "lost work: only the dead rank's cores roll back");

  const std::uint64_t cores = scaled(512, 77);
  const int ranks = 8;
  const int threads = 2;
  const arch::Tick total_ticks = static_cast<arch::Tick>(scaled(120, 60));
  const std::uint64_t ckpt_every = 20;
  const std::uint64_t kill_tick = 47;  // mid-window: 7 ticks past a snapshot
  const int kill_rank = 3;

  cocomac::MacaqueSpecOptions mopt;
  mopt.total_cores = cores;
  mopt.seed = 2012;
  compiler::PccOptions popt;
  popt.ranks = ranks;
  popt.threads_per_rank = threads;
  const compiler::PccResult pcc =
      compiler::compile(cocomac::build_macaque_spec(mopt), popt);

  const resilience::FaultPlan plan = resilience::FaultPlan::parse(
      "kill-rank=" + std::to_string(kill_rank) +
      ",kill-tick=" + std::to_string(kill_tick));

  std::cout << "cores " << pcc.model.num_cores() << ", ranks " << ranks
            << ", ticks " << total_ticks << ", checkpoint every " << ckpt_every
            << ", kill rank " << kill_rank << " @ tick " << kill_tick << "\n\n";

  std::vector<Scenario> results;

  // Snapshots are scratch state; keep them out of the working directory.
  const std::string ckpt_base =
      (std::filesystem::temp_directory_path() /
       ("bench_recovery_" + std::to_string(::getpid())))
          .string();

  // --- In-run recovery: the supervisor repairs the live job -----------------
  for (const resilience::RecoveryPolicy policy :
       {resilience::RecoveryPolicy::kMigrate,
        resilience::RecoveryPolicy::kRestartRank}) {
    arch::Model model = pcc.model;
    comm::MpiTransport inner(ranks);
    resilience::FaultInjectingTransport faulty(inner, plan);
    runtime::Config cfg;
    runtime::Compass sim(model, pcc.partition, faulty, cfg);
    // The migrate planner reads the measured comm matrix from here.
    obs::ProfileCollector profiler(ranks);
    sim.set_profile(&profiler);

    resilience::CheckpointOptions copt;
    copt.dir = ckpt_base + "_" + resilience::to_string(policy);
    copt.every = ckpt_every;
    copt.keep = 4;
    resilience::CheckpointManager manager(copt);
    manager.attach(sim, model);

    resilience::RecoverySupervisor supervisor(policy, sim, model, faulty,
                                              manager);
    supervisor.arm();

    const runtime::RunReport rep = sim.run(total_ticks);

    Scenario s;
    s.name = resilience::to_string(policy);
    s.completed = rep.ticks == total_ticks && rep.recoveries == 1;
    if (!supervisor.events().empty()) {
      const resilience::RecoveryEvent& ev = supervisor.events().front();
      s.ticks_lost = ev.ticks_lost;
      s.cores_rolled = ev.cores_recovered;
      s.core_ticks_lost = ev.ticks_lost * ev.cores_recovered;
      s.recovery_wall_s = ev.wall_s;
    }
    results.push_back(s);
  }

  // --- Baseline: abort, restore everyone, re-run the lost window ------------
  {
    arch::Model model = pcc.model;
    comm::MpiTransport inner(ranks);
    resilience::FaultInjectingTransport faulty(inner, plan);
    runtime::Config cfg;
    runtime::Compass sim(model, pcc.partition, faulty, cfg);

    resilience::CheckpointOptions copt;
    copt.dir = ckpt_base + "_restart_job";
    copt.every = ckpt_every;
    copt.keep = 4;
    resilience::CheckpointManager manager(copt);
    manager.attach(sim, model);

    // The job aborts at the first boundary past the kill.
    const arch::Tick death = static_cast<arch::Tick>(kill_tick) + 1;
    sim.run(death);

    const std::string snapshot = resilience::CheckpointManager::
        latest_at_or_before(copt.dir, kill_tick);
    Scenario s;
    s.name = "restart-from-checkpoint";
    if (!snapshot.empty()) {
      util::Stopwatch sw;
      // Fresh fault-free job from the snapshot (the dead node is replaced
      // before the restart); every core re-executes the lost window.
      arch::Model restored = pcc.model;
      comm::MpiTransport inner2(ranks);
      runtime::Compass resumed(restored, pcc.partition, inner2, cfg);
      const arch::Tick at = resilience::restore_live(
          resilience::read_checkpoint_file(snapshot), resumed, restored);
      resumed.run(static_cast<std::uint64_t>(death) - at);
      s.recovery_wall_s = sw.elapsed_s();
      s.ticks_lost = static_cast<std::uint64_t>(death) - at;
      s.cores_rolled = pcc.model.num_cores();
      s.core_ticks_lost = s.ticks_lost * s.cores_rolled;
      s.completed = true;
    }
    results.push_back(s);
  }

  for (const char* tag : {"_migrate", "_restart-rank", "_restart_job"}) {
    std::error_code ec;
    std::filesystem::remove_all(ckpt_base + tag, ec);
  }

  util::Table table({"strategy", "completed", "ticks lost", "cores rolled",
                     "core-ticks lost", "recovery wall (s)"});
  for (const Scenario& s : results) {
    table.row()
        .add(s.name)
        .add(s.completed ? "yes" : "NO")
        .add(s.ticks_lost)
        .add(s.cores_rolled)
        .add(s.core_ticks_lost)
        .add(s.recovery_wall_s, 4);
  }
  table.print(std::cout, "recovery cost (lower is better)");

  std::cout << "\nBEGIN CSV\n"
            << "strategy,completed,ticks_lost,cores_rolled,core_ticks_lost,"
               "recovery_wall_s\n";
  for (const Scenario& s : results) {
    std::cout << s.name << "," << (s.completed ? 1 : 0) << "," << s.ticks_lost
              << "," << s.cores_rolled << "," << s.core_ticks_lost << ","
              << s.recovery_wall_s << "\n";
  }
  std::cout << "END CSV\n";

  return 0;
}
