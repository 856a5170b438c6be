// The MIR executor: CARE's stand-in for a CPU + OS process.
//
// Executes one loaded Image with full architectural state (16 integer +
// 16 FP registers, PC, a real call stack in simulated memory). Hardware
// traps (SegFault/Bus/Fpe/Abort/BadPC) are delivered to an installable
// trap hook — the analogue of a signal handler — which may patch machine
// state and request re-execution of the faulting instruction. That hook is
// exactly where CARE's Safeguard runtime plugs in.
//
// Two instrumentation facilities serve the evaluation harness:
//  * profiling mode counts executions of every static instruction (the
//    paper's Pin-based profile for execution-weighted injection sampling);
//  * an armed injection fires a callback right after the n-th execution of
//    a chosen static instruction (the paper's GDB/ptrace injector).
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "vm/loader.hpp"

namespace care::vm {

enum class TrapKind : std::uint8_t {
  SegFault,
  Bus,
  Fpe,
  Abort,
  BadPC,
  Sentinel,
  /// An ECC-protected memory word failed its SECDED check beyond repair —
  /// the machine-check analogue (DESIGN.md §4i).
  EccUncorrectable,
};

const char* trapKindName(TrapKind k);

/// Map a failing typed-memory status to its trap. Shared by all three
/// backends so ECC/unmapped/misaligned accesses trap identically.
inline TrapKind trapKindForMem(MemStatus s) {
  if (s == MemStatus::Unmapped) return TrapKind::SegFault;
  if (s == MemStatus::EccUncorrectable) return TrapKind::EccUncorrectable;
  return TrapKind::Bus;
}

struct Trap {
  TrapKind kind = TrapKind::SegFault;
  std::uint64_t pc = 0;   // address of the faulting instruction
  std::uint64_t addr = 0; // faulting data address (SegFault/Bus)
};

enum class TrapAction : std::uint8_t { Propagate, Retry };

struct MachineState {
  /// Integer registers, plus one hardwired-zero slot at [kNumRegs] that the
  /// predecoded interpreter aliases absent base/index memory operands to
  /// (branch-free effective addresses). Nothing ever writes the extra slot.
  std::uint64_t g[backend::kNumRegs + 1] = {};
  double f[backend::kNumRegs] = {};
};

enum class RunStatus : std::uint8_t { Done, Trapped, BudgetExceeded, Yielded };

struct RunResult {
  RunStatus status = RunStatus::Done;
  Trap trap;
  std::uint64_t instrCount = 0;
  std::int64_t exitCode = 0;
};

/// Which interpreter loop run() uses. Fast is the predecoded token-threaded
/// dispatcher; Ref is the original big-switch loop, kept as the executable
/// specification the fast path is differentially tested against; Jit is the
/// mixed-mode template-JIT driver (native hot blocks, fast-interpreter
/// fallback for cold code and budget boundaries).
enum class InterpKind : std::uint8_t { Fast, Ref, Jit };

/// Parse a backend name ("ref" | "fast" | "jit"). Throws care::Error naming
/// the accepted values on anything else — both carecc --interp and
/// CARE_INTERP reject unknown backends instead of silently falling back.
InterpKind parseInterp(std::string_view name);
/// The canonical name parseInterp accepts for `k`.
const char* interpName(InterpKind k);

/// Process-wide default for new Executors: Fast unless setDefaultInterp()
/// chose another (carecc --interp=..., or CARE_INTERP at the edge).
InterpKind defaultInterp();
void setDefaultInterp(InterpKind k);

class Executor {
public:
  explicit Executor(const Image* image);
  /// Construct with the address space CoW-forked from a pre-built snapshot
  /// of the image's initial memory, skipping initMemory(). O(mapped pages)
  /// instead of O(mapped bytes); safe to use concurrently from many
  /// threads over one shared snapshot (the campaign per-trial path).
  Executor(const Image* image, const MemorySnapshot& initialMem);

  void setInterp(InterpKind k) { interp_ = k; }
  InterpKind interp() const { return interp_; }

  using TrapHook = std::function<TrapAction(Executor&, const Trap&)>;
  void setTrapHook(TrapHook hook) { trapHook_ = std::move(hook); }

  void setBudget(std::uint64_t maxInstrs) { budget_ = maxInstrs; }

  // --- instrumentation ------------------------------------------------------
  void enableProfiling();
  /// Execution count of static instruction (module, func, instr); valid
  /// after a profiled run.
  std::uint64_t profileCount(const CodeLoc& loc) const;

  /// After the `nth` (1-based) completed execution of the instruction at
  /// `loc`, invoke `cb` once.
  void armInjection(const CodeLoc& loc, std::uint64_t nth,
                    std::function<void(Executor&)> cb);

  // --- checkpoint / restart (the C/R baseline CARE is compared to) --------
  /// Full process image: registers, memory, position, emitted output.
  struct Checkpoint {
    MachineState st;
    Memory mem;
    std::int32_t module = 0, func = 0, instr = 0;
    bool started = false;
    std::uint64_t instrCount = 0;
    std::vector<std::uint64_t> output;
    /// Checkpoint size in bytes (what a real C/R system would write).
    std::uint64_t bytes() const { return mem.mappedBytes() + sizeof(st); }
  };
  Checkpoint checkpoint() const;
  void restore(const Checkpoint& cp);

  // --- replay cache (campaign fast-forward, DESIGN.md §4c) ----------------
  /// Everything checkpoint() captures, but with the address space held as a
  /// shareable MemorySnapshot: many trial Executors may restoreCheckpoint()
  /// the same ResumePoint concurrently, each CoW-forking the pages.
  struct ResumePoint {
    MachineState st;
    MemorySnapshot mem;
    std::int32_t module = 0, func = 0, instr = 0;
    bool started = false;
    std::uint64_t instrCount = 0;
    std::vector<std::uint64_t> output;
  };
  /// Capture the current position as a ResumePoint. Only meaningful between
  /// run() calls (e.g. stopped on an exact budget boundary). The snapshot
  /// shares pages CoW with this executor; continuing the run un-shares only
  /// the pages it then touches.
  ResumePoint resumePoint();
  /// Restore `rp` into this executor: CoW-fork the captured address space
  /// and reseat registers, frame position, instruction count and the output
  /// buffer, so every downstream observable (budget clock, manifestation
  /// latency, SDC output comparison) stays absolute — exactly as if the
  /// whole golden prefix had been re-executed. The next run() resumes at
  /// the captured position on whichever interpreter loop is selected.
  /// Thread-safe with respect to concurrent restores of the same point.
  ///
  /// `preserveOutput` keeps the current output buffer instead of the
  /// captured one: emitted values model console output, already
  /// externalized, which a rollback cannot unwind (DESIGN.md §4f) — the
  /// re-execution then re-emits whatever followed the checkpoint, and the
  /// SDC comparison honestly sees both the escaped values and the
  /// duplicates. The replay cache keeps the default (reseat), preserving
  /// its as-if-from-scratch equivalence.
  void restoreCheckpoint(const ResumePoint& rp, bool preserveOutput = false);

  // --- run ----------------------------------------------------------------
  /// Execute from `entry`. A Barrier instruction (MiniC `mpi_barrier()`)
  /// yields with RunStatus::Yielded; calling run() again resumes right
  /// after it — the harness hook multi-rank job simulation is built on.
  RunResult run(const std::string& entry = "main");

  /// run(), but stop with RunStatus::BudgetExceeded as soon as instrCount()
  /// reaches min(budget, stopAt) — the shared exact-stop mechanism under
  /// runCheckpointed() and the replay cache's golden prefixes. Barrier
  /// yields are resumed transparently (they are no-ops off the harness
  /// hook); the budget itself is not consumed or modified.
  RunResult runBounded(std::uint64_t stopAt, const std::string& entry = "main");

  // --- state access (used by hooks, Safeguard and the injector) -----------
  const Image* image() const { return image_; }
  Memory& memory() { return mem_; }
  MachineState& state() { return st_; }
  const std::vector<std::uint64_t>& output() const { return output_; }
  std::uint64_t instrCount() const { return instrCount_; }
  /// PC of the instruction currently being executed.
  std::uint64_t currentPC() const;

private:
  struct Frame {
    std::int32_t module, func;
  };

  bool jumpTo(const CodeLoc& loc);
  RunResult runReference();
  RunResult runFast();
  RunResult runJit(); // executor_jit.cpp: the mixed-mode driver
  /// The token-threaded loop, compiled twice: the instrumented variant
  /// carries the per-instruction profiling and injection checks; the plain
  /// variant (profiling off, nothing armed — golden runs) omits them. If a
  /// trap hook arms instrumentation mid-run, the plain variant syncs state,
  /// sets *switchToInstrumented and returns so runFast() can re-enter the
  /// instrumented one — equivalent to the reference loop's Retry `continue`.
  template <bool kInstrumented>
  RunResult runFastImpl(bool* switchToInstrumented = nullptr);

  const Image* image_;
  InterpKind interp_ = InterpKind::Fast;
  Memory mem_;
  MachineState st_;
  std::vector<std::uint64_t> output_;
  std::uint64_t instrCount_ = 0;
  std::uint64_t budget_ = ~0ull;
  /// Transient exact-stop bound (runBounded); every loop runs to
  /// min(budget_, stopAt_). ~0ull = no bound.
  std::uint64_t stopAt_ = ~0ull;
  TrapHook trapHook_;

  // Current position.
  std::int32_t curModule_ = 0, curFunc_ = 0, curInstr_ = 0;
  const backend::MFunction* fn_ = nullptr;
  bool started_ = false;

  // Profiling.
  bool profiling_ = false;
  std::vector<std::vector<std::vector<std::uint64_t>>> profile_;

  // Injection.
  bool injArmed_ = false;
  CodeLoc injLoc_;
  std::uint64_t injNth_ = 0;
  std::uint64_t injSeen_ = 0;
  std::function<void(Executor&)> injCb_;
};

/// Run to completion, transparently resuming across Barrier yields (for
/// single-process runs where barriers are no-ops).
inline RunResult runToCompletion(Executor& ex,
                                 const std::string& entry = "main") {
  RunResult res = ex.run(entry);
  while (res.status == RunStatus::Yielded) res = ex.run(entry);
  return res;
}

} // namespace care::vm
