// Table 9: failures in a shared library — REAL Level-1 BLAS compiled as a
// stand-alone library module driven by an sblat1-style tester. Faults are
// injected into both modules; Safeguard resolves library faults through the
// library's own recovery table (PC-minus-base keying).
#include "bench_util.hpp"

int main() {
  using namespace care;
  bench::header("Table 9: statistics and performance for sblat1/BLAS",
                "paper Table 9 (83.49% coverage, 5.7ms recovery)");

  core::CompileOptions copts;
  bench::env().apply(copts.armor);
  copts.optLevel = opt::OptLevel::O0;
  copts.artifactDir = "care_artifacts";
  auto lib = core::careCompile(workloads::blasLibrary().sources, "BLAS",
                               copts);
  auto drv = core::careCompile(workloads::sblat1Driver().sources, "sblat1",
                               copts);

  std::printf("%-8s %10s %14s %18s %16s\n", "Module", "Kernels",
              "Avg IR instrs", "Normal compile(s)", "Armor overhead(s)");
  for (const auto* m : {&lib, &drv}) {
    std::printf("%-8s %10zu %14.2f %18.4f %16.4f\n",
                m->irMod->name().c_str(), m->armorStats.kernelsBuilt,
                m->armorStats.avgKernelInstrs(), m->timings.normalSec,
                m->timings.armorSec);
  }

  vm::Image image;
  image.load(drv.mmod.get()); // module 0: main executable
  image.load(lib.mmod.get()); // module 1: shared library
  image.link();
  std::map<std::int32_t, core::ModuleArtifacts> artifacts{
      {0, drv.artifacts}, {1, lib.artifacts}};

  inject::CampaignConfig ccfg = bench::baseConfig(opt::OptLevel::O0).campaign;
  ccfg.targetModules = {0, 1}; // §5.5: inject into either sblat1 or BLAS
  inject::Campaign campaign(&image, ccfg);
  if (!campaign.profile()) {
    std::printf("BLAS workload failed to profile\n");
    return 1;
  }

  const int injections = bench::envInt("CARE_INJECTIONS", 400);
  Rng rng(ccfg.seed);
  int segv = 0, recovered = 0;
  double recoveryUs = 0;
  for (int i = 0; i < injections; ++i) {
    const auto pt = campaign.sample(rng);
    const auto plain = campaign.runInjection(pt);
    if (plain.outcome != inject::Outcome::SoftFailure ||
        plain.signal != vm::TrapKind::SegFault)
      continue;
    ++segv;
    const auto withCare = campaign.runInjection(pt, &artifacts);
    if (withCare.careRecovered) {
      ++recovered;
      recoveryUs += withCare.recoveryUsTotal;
    }
  }
  std::printf("\nSIGSEGV injections: %d, recovered: %d -> coverage %.1f%% "
              "(paper: 83.49%%)\n",
              segv, recovered, segv ? 100.0 * recovered / segv : 0.0);
  std::printf("Mean recovery time: %.1f us (paper: 5.7 ms on its host)\n",
              recovered ? recoveryUs / recovered : 0.0);
  bench::footer();
  return 0;
}
