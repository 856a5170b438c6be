// Extension bench (paper §7 / Fig. 11): induction-variable recovery via
// lock-step peer recomputation. Reports the coverage gained — and the SDC
// risk incurred — by the opt-in extension, on a ptr/i-style sweep and on
// the four CARE workloads.
#include "bench_util.hpp"

namespace {

const char* kLockstep = R"(
double a[4096];
int main() {
  for (int j = 0; j < 4096; j = j + 1) { a[j] = j * 0.5; }
  double s = 0.0;
  int idx = 0;
  for (int i = 0; i < 500; i = i + 1) {
    s = s + a[idx + 3];
    idx = idx + 7;
  }
  emit(s);
  return 0;
}
)";

const care::workloads::Workload kLockstepWorkload{
    "lockstep", {{"lockstep.c", kLockstep}}};

} // namespace

int main() {
  using namespace care;
  bench::header("Extension: Fig. 11 induction-variable recovery",
                "paper §7 future work #1 (implemented, opt-in)");
  std::printf("%-10s %10s %10s %10s %12s %10s\n", "Workload", "SIGSEGV",
              "base cov", "ext cov", "alt fired", "alt->SDC");
  std::vector<const workloads::Workload*> targets{&kLockstepWorkload};
  for (const auto* w : workloads::careWorkloads()) targets.push_back(w);
  for (const auto* w : targets) {
    auto baseCfg = bench::baseConfig(opt::OptLevel::O1);
    auto extCfg = baseCfg;
    extCfg.armor.inductionRecovery = true;
    const auto rb = inject::runExperiment(*w, baseCfg);
    const auto re = inject::runExperiment(*w, extCfg);
    int altFired = 0, altSdc = 0;
    for (const auto& rec : re.records) {
      if (!rec.haveCare || rec.withCare.ivAltRecoveries == 0) continue;
      ++altFired;
      if (rec.withCare.careRecovered && !rec.withCare.outputMatchesGolden)
        ++altSdc;
    }
    std::printf("%-10s %10d %9.1f%% %9.1f%% %12d %10d\n", w->name.c_str(),
                rb.segvCount(), 100.0 * rb.coverage(),
                100.0 * re.coverage(), altFired, altSdc);
  }
  std::printf("\n(alt->SDC counts runs where the *peer* was the corrupted "
              "value: recomputing from it masks a genuine out-of-bounds.\n"
              " That hazard is why the paper left this as future work and "
              "why the extension is opt-in.)\n");
  bench::footer();
  return 0;
}
