// Rollback-domain recovery strategy comparison (DESIGN.md §4f).
//
// Four-way campaign per workload — none / repair / rollback /
// repair_then_rollback — comparing coverage, recovery latency, SDC risk
// (rollbacks whose escaped output broke the golden match), and re-executed
// work. Two hard gates encode the §4f contract and fail the bench:
//  * repair_then_rollback must strictly dominate repair on coverage for
//    every workload (rollback only adds survivals, never removes repairs);
//  * every repair-success trial must serialize byte-identically under
//    repair and repair_then_rollback (rollback engages strictly after a
//    failed repair, so it cannot perturb the paper's repair numbers).
// A trailer measures the checkpoint-capture overhead of runCheckpointed()
// against interval, the cost knob a deployment trades against rollback
// distance.
#include <chrono>

#include "bench_util.hpp"
#include "vm/checkpoint_ring.hpp"

namespace {

using namespace care;

const char* strategyLabel(core::RecoveryStrategy s) {
  return core::recoveryStrategyName(s);
}

inject::ExperimentConfig strategyConfig(core::RecoveryStrategy s) {
  auto cfg = bench::baseConfig(opt::OptLevel::O0);
  cfg.armor.recover = s;
  return cfg;
}

} // namespace

int main() {
  using namespace care;
  bench::header("Rollback-domain recovery: strategy comparison",
                "DESIGN.md §4f extension; coverage axis of Fig. 7");

  const core::RecoveryStrategy strategies[] = {
      core::RecoveryStrategy::None,
      core::RecoveryStrategy::Repair,
      core::RecoveryStrategy::Rollback,
      core::RecoveryStrategy::RepairThenRollback,
  };

  std::printf("%-10s %-20s %8s %7s %6s %7s %6s %9s %9s %10s\n", "Workload",
              "Strategy", "SIGSEGV", "Recov", "Cov%", "RolledB", "RbSDC",
              "RecUs", "RbUs", "RbReexec");

  // All five workloads, not just the four §5 evaluates repair on: rollback
  // has no dependence on the recovery-kernel path, so miniFE rides along.
  bool dominates = true, bitIdentical = true;
  for (const auto* w : workloads::allWorkloads()) {
    const inject::ExperimentResult* repair = nullptr;
    const inject::ExperimentResult* both = nullptr;
    std::vector<inject::ExperimentResult> results;
    results.reserve(4);
    for (core::RecoveryStrategy s : strategies)
      results.push_back(inject::runExperiment(*w, strategyConfig(s)));
    for (std::size_t i = 0; i < results.size(); ++i) {
      const inject::ExperimentResult& r = results[i];
      if (strategies[i] == core::RecoveryStrategy::Repair) repair = &r;
      if (strategies[i] == core::RecoveryStrategy::RepairThenRollback)
        both = &r;
      std::printf("%-10s %-20s %8d %7d %5.1f%% %7d %6d %9.1f %9.1f %10.0f\n",
                  w->name.c_str(), strategyLabel(strategies[i]),
                  r.segvCount(), r.recoveredCount(), 100.0 * r.coverage(),
                  r.rolledBackCount(), r.rollbackSdcCount(),
                  r.meanRecoveryUs(), r.meanRollbackUs(),
                  r.meanRollbackReexecInstrs());
    }

    // Gate 1: strict coverage dominance.
    if (both->recoveredCount() <= repair->recoveredCount()) {
      dominates = false;
      std::printf("  !! %s: repair_then_rollback coverage %d does not "
                  "strictly dominate repair %d\n",
                  w->name.c_str(), both->recoveredCount(),
                  repair->recoveredCount());
    }

    // Gate 2: repair-success trials are byte-identical across the two
    // strategies (same seed => records are index-aligned).
    if (repair->records.size() != both->records.size()) {
      bitIdentical = false;
      std::printf("  !! %s: record counts diverge\n", w->name.c_str());
    } else {
      int compared = 0;
      for (std::size_t i = 0; i < repair->records.size(); ++i) {
        const inject::InjectionRecord& a = repair->records[i];
        if (!a.haveCare || !a.withCare.careRecovered) continue;
        ++compared;
        if (inject::serializeDeterministicRecord(a) !=
            inject::serializeDeterministicRecord(both->records[i])) {
          bitIdentical = false;
          std::printf("  !! %s: repair-success trial %zu diverged under "
                      "repair_then_rollback\n",
                      w->name.c_str(), i);
        }
      }
      if (compared == 0) {
        bitIdentical = false;
        std::printf("  !! %s: no repair successes to compare\n",
                    w->name.c_str());
      }
    }
  }

  // Checkpoint-capture overhead vs interval: what arming the ring costs a
  // fault-free run (the deployment knob traded against rollback distance).
  std::printf("\nCheckpoint overhead vs interval (HPCCG O0, fault-free "
              "run; interval 0 = ring off):\n");
  std::printf("%12s %12s %10s %10s %10s\n", "Interval", "Boundaries",
              "Evicted", "WallMs", "Overhead");
  {
    const auto* w = workloads::careWorkloads().front();
    inject::BuiltWorkload built =
        inject::buildWorkload(*w, strategyConfig(core::RecoveryStrategy::None));
    auto timedRun = [&](std::uint64_t interval, std::uint64_t* boundaries,
                        std::uint64_t* evicted) {
      double best = 0;
      for (int rep = 0; rep < 3; ++rep) {
        vm::Executor ex(built.image.get());
        vm::CheckpointRing ring(vm::CheckpointRing::kDefaultCapacity);
        std::uint64_t n = 0;
        const auto t0 = std::chrono::steady_clock::now();
        const vm::RunResult r = vm::runCheckpointed(
            ex, w->entry, interval, 2'000'000'000ull,
            [&](vm::Executor& e) {
              ring.push(e);
              ++n;
            });
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (r.status != vm::RunStatus::Done) {
          std::printf("  !! fault-free run did not complete\n");
          return -1.0;
        }
        if (rep == 0 || ms < best) best = ms;
        *boundaries = n;
        *evicted = ring.evicted();
      }
      return best;
    };
    std::uint64_t b0 = 0, e0 = 0;
    const double off = timedRun(0, &b0, &e0);
    for (std::uint64_t interval :
         {std::uint64_t{0}, std::uint64_t{100'000}, std::uint64_t{20'000},
          std::uint64_t{5'000}, std::uint64_t{1'000}}) {
      std::uint64_t boundaries = 0, evicted = 0;
      const double ms = timedRun(interval, &boundaries, &evicted);
      if (ms < 0 || off < 0) continue;
      std::printf("%12llu %12llu %10llu %10.2f %9.1f%%\n",
                  static_cast<unsigned long long>(interval),
                  static_cast<unsigned long long>(boundaries),
                  static_cast<unsigned long long>(evicted), ms,
                  off > 0 ? 100.0 * (ms - off) / off : 0.0);
    }
  }

  std::printf("\n[gate] repair_then_rollback strictly dominates repair on "
              "coverage: %s\n",
              dominates ? "PASS" : "FAIL");
  std::printf("[gate] repair-success records bit-identical across "
              "strategies: %s\n",
              bitIdentical ? "PASS" : "FAIL");
  bench::footer();
  return dominates && bitIdentical ? 0 : 1;
}
