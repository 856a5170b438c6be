// Ablation: the liveness-gated Terminal Value rule (paper §3.2).
//
// Three Armor configurations over the same campaign:
//   paper     — liveness + non-local-use rule (the shipped default)
//   no-nlu    — liveness only (drops the non-local-use half)
//   maximal   — "aggressively copy all computations": slice to the roots,
//               ignoring liveness entirely
// §3.2 argues maximal slicing inflates kernels and loses coverage because
// parameters it assumes exist were optimized away or dead at the fault
// point. On the four workloads measured here it does not: every no-nlu and
// maximal row ends with "= paper" (same image digest, kernel counts and
// sizes; EXPERIMENTS.md). A workload where the rule changes the binary is
// ROADMAP item 7.
//
// A configuration whose compiled image has the paper row's digest ends its
// row with "= paper": the rule changed nothing in that binary, so the row
// is the same campaign as the paper row, not a separate result.
#include "bench_util.hpp"

int main() {
  using namespace care;
  bench::header("Ablation: Terminal-Value slicing rule",
                "paper §3.2 design discussion");
  std::printf("%-10s %-8s %10s %14s %10s\n", "Workload", "Config",
              "Kernels", "Avg IR instrs", "Coverage");
  struct Config {
    const char* name;
    bool requireNonLocalUse;
    bool maximal;
  };
  const Config configs[] = {{"paper", true, false},
                            {"no-nlu", false, false},
                            {"maximal", false, true}};
  for (const auto* w : workloads::careWorkloads()) {
    Md5Digest paperDigest;
    for (const Config& c : configs) {
      auto cfg = bench::baseConfig(opt::OptLevel::O1);
      cfg.armor.requireNonLocalUse = c.requireNonLocalUse;
      cfg.armor.maximalSlicing = c.maximal;
      const inject::ExperimentResult r = inject::runExperiment(*w, cfg);
      const inject::BuiltWorkload b = inject::buildWorkload(*w, cfg);
      const bool isPaper = &c == &configs[0];
      if (isPaper) paperDigest = b.cm.imageDigest;
      std::printf("%-10s %-8s %10zu %14.2f %9.1f%%%s\n", w->name.c_str(),
                  c.name, b.cm.armorStats.kernelsBuilt,
                  b.cm.armorStats.avgKernelInstrs(), 100.0 * r.coverage(),
                  !isPaper && b.cm.imageDigest == paperDigest ? " = paper"
                                                             : "");
    }
  }
  bench::footer();
  return 0;
}
