// Sentinel detector coverage: how many silent failures (SDC / hang) the
// CFC + ADDR instrumentation converts into explicit Detected traps, and
// what the instrumentation costs statically (MIR size) and dynamically
// (golden-run instructions). No paper counterpart — the detectors are a
// deviation (DESIGN.md §4e) layered on the CARE fault model.
#include "bench_util.hpp"

#include "backend/mir.hpp"

namespace {

std::size_t mirInstrs(const care::backend::MModule& m) {
  std::size_t n = 0;
  for (const care::backend::MFunction& f : m.functions) n += f.code.size();
  return n;
}

} // namespace

int main() {
  using namespace care;
  bench::header("Sentinel detector coverage (CFC + ADDR)",
                "no paper table; detection deviation of DESIGN.md 4e");
  std::printf("%-10s %-4s %13s %13s %10s %9s %9s %11s\n", "Workload", "Opt",
              "silent(off)", "silent(on)", "detected", "conv%", "static x",
              "dynamic x");

  int cells = 0, cellsWithDetection = 0;
  for (const auto* w : workloads::allWorkloads()) {
    for (opt::OptLevel level : {opt::OptLevel::O0, opt::OptLevel::O1}) {
      auto base = bench::baseConfig(level);
      base.careOnSegv = false;
      base.armor.detect = {};
      auto det = base;
      det.armor.detect.cfc = true;
      det.armor.detect.addr = true;

      // Static/dynamic instrumentation overhead from the compiled modules.
      const inject::BuiltWorkload offBuild = inject::buildWorkload(*w, base);
      const inject::BuiltWorkload onBuild = inject::buildWorkload(*w, det);
      const double staticX =
          static_cast<double>(mirInstrs(*onBuild.cm.mmod)) /
          static_cast<double>(mirInstrs(*offBuild.cm.mmod));

      const inject::ExperimentResult r0 = inject::runExperiment(*w, base);
      const inject::ExperimentResult r1 = inject::runExperiment(*w, det);
      const double dynamicX = r0.goldenInstrs
                                  ? static_cast<double>(r1.goldenInstrs) /
                                        static_cast<double>(r0.goldenInstrs)
                                  : 0;

      const int silentOff =
          r0.count(inject::Outcome::SDC) + r0.count(inject::Outcome::Hang);
      const int silentOn =
          r1.count(inject::Outcome::SDC) + r1.count(inject::Outcome::Hang);
      const int detected = r1.detectedCount();
      // Conversion: among the armed run's would-have-been-silent or
      // detected trials, the share the detectors caught. (Injection points
      // are resampled over the instrumented program, so the comparison is
      // rate-based, not trial-by-trial.)
      const double conv = detected + silentOn
                              ? 100.0 * detected / (detected + silentOn)
                              : 0;
      std::printf("%-10s %-4s %13d %13d %10d %8.1f%% %8.2fx %10.2fx\n",
                  w->name.c_str(), bench::levelName(level), silentOff,
                  silentOn, detected, conv, staticX, dynamicX);
      if (detected > 0)
        std::printf("%27s mean detection latency: %.1f instrs\n", "",
                    r1.meanDetectionLatencyInstrs());
      ++cells;
      if (detected > 0) ++cellsWithDetection;
    }
  }
  std::printf("\n%d/%d workload/opt cells saw nonzero SDC/Hang -> Detected "
              "conversion\n",
              cellsWithDetection, cells);
  bench::footer();
  return 0;
}
