// Ablation: Safeguard's operand-patch heuristic (paper §3.4).
//
// For "mov 8(%rbx,%r8,4), %eax" faults, the paper updates the index
// register by default ("computed more frequently ... more likely to
// experience faults"). This bench compares index-first against base-first
// patching on identical campaigns.
#include "bench_util.hpp"

int main() {
  using namespace care;
  bench::header("Ablation: patch index register vs base register first",
                "paper §3.4 patch heuristic");
  std::printf("%-10s %14s %14s\n", "Workload", "index-first",
              "base-first");
  for (const auto* w : workloads::careWorkloads()) {
    auto idxCfg = bench::baseConfig(opt::OptLevel::O0);
    auto baseCfg = idxCfg;
    baseCfg.campaign.patchTarget = core::Safeguard::PatchTarget::BaseFirst;
    const auto ri = inject::runExperiment(*w, idxCfg);
    const auto rb = inject::runExperiment(*w, baseCfg);
    std::printf("%-10s %13.1f%% %13.1f%%\n", w->name.c_str(),
                100.0 * ri.coverage(), 100.0 * rb.coverage());
  }
  std::printf("\n(Recovered runs must still produce golden output; both "
              "heuristics are guarded by the address-equality check.)\n");
  bench::footer();
  return 0;
}
