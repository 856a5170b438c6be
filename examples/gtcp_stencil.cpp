// GTC-P walkthrough: the paper's motivating workload (§2.2, Fig. 2).
//
// Compiles the GTC-P-style PIC core with CARE, prints the address-
// computation statistics the paper builds its argument on, then runs a
// small seeded injection campaign and reports coverage plus a breakdown of
// why the unrecovered faults failed (induction variables, live ranges —
// §5.6's taxonomy).
#include <cstdio>
#include <map>

#include "inject/experiment.hpp"

using namespace care;

int main() {
  inject::ExperimentConfig cfg;
  cfg.level = opt::OptLevel::O0;
  cfg.injections = 200;
  cfg.campaign.seed = 11;

  const workloads::Workload& w = workloads::gtcp();
  inject::BuiltWorkload built = inject::buildWorkload(w, cfg);
  const core::ArmorStats& st = built.cm.armorStats;
  std::printf("GTC-P under CARE\n");
  std::printf("  memory accesses examined : %zu\n", st.memAccesses);
  std::printf("  multi-op address calcs   : %zu (%.1f%%)\n",
              st.multiOpAccesses,
              100.0 * st.multiOpAccesses / st.memAccesses);
  std::printf("  avg ops per address calc : %.2f\n",
              st.multiOpAccesses ? double(st.totalAddrOps) /
                                       st.multiOpAccesses
                                 : 0.0);
  std::printf("  recovery kernels built   : %zu (avg %.1f IR instrs)\n\n",
              st.kernelsBuilt, st.avgKernelInstrs());

  const inject::ExperimentResult r = inject::runExperiment(w, cfg);
  std::printf("Campaign: %zu injections, %d SIGSEGV, %d recovered "
              "(coverage %.1f%%)\n\n",
              r.records.size(), r.segvCount(), r.recoveredCount(),
              100.0 * r.coverage());

  std::map<std::string, int> reasons;
  for (const auto& rec : r.records)
    if (rec.haveCare && !rec.withCare.careRecovered)
      ++reasons[rec.withCare.careFailReason.empty()
                    ? "died before Safeguard could finish"
                    : rec.withCare.careFailReason];
  std::printf("Unrecovered-fault taxonomy (paper §5.6):\n");
  for (const auto& [reason, n] : reasons)
    std::printf("  %3d  %s\n", n, reason.c_str());
  return 0;
}
