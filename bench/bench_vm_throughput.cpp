// VM throughput: reference loop vs. predecoded fast path vs. template JIT.
//
// Runs each workload's golden (fault-free) execution under all three
// backends and reports millions of simulated instructions per wall second
// (MIPS). The fast path is the bit-identical predecoded dispatcher
// (DESIGN.md §4b); the reference loop is the original big-switch
// interpreter kept as the executable specification; jit is the per-block
// template JIT (DESIGN.md §4h). Each (workload, interp) cell is
// best-of-CARE_VM_REPS (default 3) to damp scheduler noise. Two in-bench
// gates: all three backends must retire the identical golden instruction
// count, and jit must not be slower than fast on any workload. Writes
// BENCH_vm.json (path: CARE_BENCH_VM_JSON).
#include <chrono>
#include <fstream>

#include "bench_util.hpp"
#include "vm/executor.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Cell {
  double sec = 0;              // best-of-reps wall time
  std::uint64_t instrs = 0;    // golden instruction count
  double mips() const { return sec > 0 ? instrs / 1e6 / sec : 0; }
};

Cell golden(const care::vm::Image* image, care::vm::InterpKind kind,
            int reps) {
  using namespace care;
  Cell cell;
  for (int r = 0; r < reps; ++r) {
    vm::Executor ex(image);
    ex.setInterp(kind);
    ex.setBudget(5'000'000'000ull);
    const Clock::time_point t0 = Clock::now();
    const vm::RunResult res = vm::runToCompletion(ex);
    const double sec = std::chrono::duration<double>(Clock::now() - t0).count();
    if (res.status != vm::RunStatus::Done)
      raise("bench_vm_throughput: golden run did not complete");
    cell.instrs = res.instrCount;
    if (r == 0 || sec < cell.sec) cell.sec = sec;
  }
  return cell;
}

} // namespace

int main() {
  using namespace care;
  const int reps = bench::envInt("CARE_VM_REPS", 3);
  bench::header("VM throughput: ref loop vs. fast path vs. template JIT",
                "the campaign-engine substrate; not a paper table");
  std::printf("%-10s %12s %9s %10s %9s %10s %9s  (best of %d)\n", "Workload",
              "instrs", "ref MIPS", "fast MIPS", "fast/ref", "jit MIPS",
              "jit/fast", reps);

  std::string rows;
  for (const auto* w : workloads::allWorkloads()) {
    auto cfg = bench::baseConfig(opt::OptLevel::O0);
    inject::BuiltWorkload built = inject::buildWorkload(*w, cfg);
    const Cell ref = golden(built.image.get(), vm::InterpKind::Ref, reps);
    const Cell fast = golden(built.image.get(), vm::InterpKind::Fast, reps);
    const Cell jit = golden(built.image.get(), vm::InterpKind::Jit, reps);
    // Identity gate: all backends must retire the same golden instruction
    // stream — the exactness contract the recovery stack depends on.
    if (ref.instrs != fast.instrs || fast.instrs != jit.instrs)
      raise("bench_vm_throughput: backend instruction counts diverge on " +
            w->name);
    const double speedup = fast.sec > 0 ? ref.sec / fast.sec : 0;
    const double jitup = jit.sec > 0 ? fast.sec / jit.sec : 0;
    std::printf("%-10s %12llu %9.1f %10.1f %8.2fx %10.1f %8.2fx\n",
                w->name.c_str(),
                static_cast<unsigned long long>(fast.instrs), ref.mips(),
                fast.mips(), speedup, jit.mips(), jitup);
    if (jitup < 1.0)
      raise("bench_vm_throughput: jit slower than fast on " + w->name);
    char row[448];
    std::snprintf(row, sizeof(row),
                  "%s    {\"workload\":\"%s\",\"instrs\":%llu,"
                  "\"ref_sec\":%.6f,\"ref_mips\":%.2f,"
                  "\"fast_sec\":%.6f,\"fast_mips\":%.2f,"
                  "\"speedup\":%.3f,"
                  "\"jit_sec\":%.6f,\"jit_mips\":%.2f,"
                  "\"jit_speedup\":%.3f}",
                  rows.empty() ? "" : ",\n", w->name.c_str(),
                  static_cast<unsigned long long>(fast.instrs), ref.sec,
                  ref.mips(), fast.sec, fast.mips(), speedup, jit.sec,
                  jit.mips(), jitup);
    rows += row;
  }

  const std::string path =
      bench::envStr("CARE_BENCH_VM_JSON").value_or("BENCH_vm.json");
  std::ofstream f(path);
  f << "{\n  \"bench\": \"vm_throughput\",\n  \"reps\": " << reps
    << ",\n  \"rows\": [\n" << rows << "\n  ]\n}\n";
  std::printf("\nwrote %s\n", path.c_str());
  bench::footer();
  return 0;
}
