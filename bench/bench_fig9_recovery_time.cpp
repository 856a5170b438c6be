// Figure 9: recovery time per Safeguard activation, broken down into the
// measured phases (the paper reports >98% of it is preparation — table
// decode, library load, DWARF lookups — not kernel execution).
//
// Phases are cut on one boundary-timestamp timeline inside
// Safeguard::onTrap (see DESIGN.md §4d):
//   key    PC -> recovery-table key mapping
//   load   lazy artifact load + kernel lookup
//   param  operand disassembly + parameter fetch
//   kernel recovery-kernel execution (incl. Fig. 11 retries)
//   patch  operand patch
// Preparation = key + load + param + patch; share = prep / (prep + kernel).
#include "bench_util.hpp"

int main() {
  using namespace care;
  bench::header("Figure 9: recovery time of CARE",
                "paper Fig. 9 (tens of ms; >98% spent on preparation)");
  std::printf("%-10s %4s %9s | %8s %8s %8s %8s %8s | %10s\n", "Workload",
              "Opt", "total us", "key", "load", "param", "kernel", "patch",
              "prep share");
  double minShare = 1.0;
  bool any = false;
  for (const auto* w : workloads::careWorkloads()) {
    for (auto level : {opt::OptLevel::O0, opt::OptLevel::O1}) {
      auto cfg = bench::baseConfig(level);
      const inject::ExperimentResult r = inject::runExperiment(*w, cfg);
      const auto p = r.meanRecoveryPhases();
      if (p.totalUs <= 0) {
        std::printf("%-10s %4s %9s | %8s %8s %8s %8s %8s | %10s\n",
                    w->name.c_str(), bench::levelName(level), "-", "-", "-",
                    "-", "-", "-", "-");
        continue;
      }
      any = true;
      const double share = p.prepShare();
      if (share < minShare) minShare = share;
      std::printf("%-10s %4s %9.1f | %8.2f %8.2f %8.2f %8.2f %8.2f | %9.2f%%\n",
                  w->name.c_str(), bench::levelName(level), p.totalUs, p.keyUs,
                  p.loadUs, p.paramUs, p.kernelUs, p.patchUs, 100.0 * share);
    }
  }
  if (any)
    std::printf("\nminimum preparation share: %.2f%% (paper shape: >=98%%) "
                "%s\n",
                100.0 * minShare, minShare >= 0.98 ? "OK" : "BELOW PAPER SHAPE");

  // Second tier: repair-then-rollback. When the kernel path fails, the
  // Safeguard falls back to a checkpoint restore, so each such activation
  // additionally pays rollback time plus the re-executed instructions
  // between the restored checkpoint and the trap (DESIGN.md §4f). These are
  // the columns Fig. 9 gains once rollback is armed.
  std::printf("\n--- repair_then_rollback: rollback phase ---\n");
  std::printf("%-10s %4s | %6s %6s | %11s %14s\n", "Workload", "Opt",
              "rolled", "sdc", "rollback us", "reexec instrs");
  for (const auto* w : workloads::careWorkloads()) {
    for (auto level : {opt::OptLevel::O0, opt::OptLevel::O1}) {
      auto cfg = bench::baseConfig(level);
      cfg.campaign.recover = core::RecoveryStrategy::RepairThenRollback;
      const inject::ExperimentResult r = inject::runExperiment(*w, cfg);
      if (r.rolledBackCount() == 0) {
        std::printf("%-10s %4s | %6d %6d | %11s %14s\n", w->name.c_str(),
                    bench::levelName(level), 0, 0, "-", "-");
        continue;
      }
      std::printf("%-10s %4s | %6d %6d | %11.1f %14.0f\n", w->name.c_str(),
                  bench::levelName(level), r.rolledBackCount(),
                  r.rollbackSdcCount(), r.meanRollbackUs(),
                  r.meanRollbackReexecInstrs());
    }
  }
  std::printf("\n(rollback us is the checkpoint-restore wall time per "
              "rolled-back re-run; reexec instrs counts the replayed work\n"
              " from the restored checkpoint to completion — the cost repair "
              "avoids whenever the kernel path succeeds.)\n");
  std::printf("\n(Absolute times are host-dependent; the paper-shape claims "
              "are (a) preparation dominates and (b) recovery is orders of\n"
              " magnitude below a checkpoint restart — see "
              "bench_fig10_parallel. Phase means are over recovered\n"
              " activations; total includes artifact teardown, so phases sum "
              "to slightly less than total.)\n");
  bench::footer();
  return 0;
}
