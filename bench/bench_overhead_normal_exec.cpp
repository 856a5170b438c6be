// §5 "almost zero runtime overhead": google-benchmark comparison of normal
// (fault-free) workload execution with and without Safeguard armed, plus
// the fixed memory overhead of the CARE artifacts (the paper's 27 MB,
// dominated by its protobuf/LLVM footprint; ours is the serialized table +
// recovery library).
#include <benchmark/benchmark.h>

#include <filesystem>

#include "bench_util.hpp"
#include "care/safeguard.hpp"

namespace {

using namespace care;

struct Fixture {
  inject::BuiltWorkload built;
  Fixture() {
    auto cfg = bench::baseConfig(opt::OptLevel::O0);
    built = inject::buildWorkload(*workloads::careWorkloads()[0], cfg);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_NormalExec_NoCare(benchmark::State& state) {
  for (auto _ : state) {
    vm::Executor ex(fixture().built.image.get());
    ex.setBudget(2'000'000'000ull);
    const vm::RunResult r = vm::runToCompletion(ex);
    benchmark::DoNotOptimize(r.instrCount);
    if (r.status != vm::RunStatus::Done) state.SkipWithError("run failed");
  }
}
BENCHMARK(BM_NormalExec_NoCare)->Unit(benchmark::kMillisecond);

void BM_NormalExec_SafeguardArmed(benchmark::State& state) {
  for (auto _ : state) {
    vm::Executor ex(fixture().built.image.get());
    ex.setBudget(2'000'000'000ull);
    // Arming the handler is the *only* cost during normal execution: the
    // paper measures just the sigaction() call (a few microseconds).
    core::Safeguard safeguard;
    for (const auto& [mi, arts] : fixture().built.artifacts)
      safeguard.addModule(mi, arts);
    safeguard.attach(ex);
    const vm::RunResult r = vm::runToCompletion(ex);
    benchmark::DoNotOptimize(r.instrCount);
    if (r.status != vm::RunStatus::Done) state.SkipWithError("run failed");
  }
}
BENCHMARK(BM_NormalExec_SafeguardArmed)->Unit(benchmark::kMillisecond);

void BM_SafeguardArtifactBytes(benchmark::State& state) {
  // Not a timing benchmark: report the on-disk artifact footprint that
  // Safeguard loads on demand (paper: fixed 27 MB resident).
  std::uintmax_t bytes = 0;
  for (auto _ : state) {
    bytes = 0;
    for (const auto& [mi, arts] : fixture().built.artifacts) {
      (void)mi;
      bytes += std::filesystem::file_size(arts.tablePath);
      bytes += std::filesystem::file_size(arts.libPath);
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["artifact_bytes"] =
      benchmark::Counter(static_cast<double>(bytes));
}
BENCHMARK(BM_SafeguardArtifactBytes);

} // namespace

// Expanded BENCHMARK_MAIN so the campaign-engine telemetry footer runs
// after the benchmark report (campaigns here come from buildWorkload's
// compile cache only, so this is usually silent).
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  care::bench::footer();
  return 0;
}
