// The MIR executor: CARE's stand-in for a CPU + OS process.
//
// Executes one loaded Image with full architectural state (16 integer +
// 16 FP registers, PC, a real call stack in simulated memory). Hardware
// traps (SegFault/Bus/Fpe/Abort/BadPC) are delivered to an installable
// trap hook — the analogue of a signal handler — which may patch machine
// state and request re-execution of the faulting instruction. That hook is
// exactly where CARE's Safeguard runtime plugs in.
//
// All three loops (ref, fast, jit) follow one run protocol (DESIGN.md §4b):
// a run starts at `main`, one helper delivers a trap and reads the hook's
// answer, one ends the run at a lost return PC, and one builds every
// RunResult. Each loop keeps only its own continuation after a Retry.
//
// Two instrumentation facilities serve the evaluation harness:
//  * profiling mode counts executions of every static instruction (the
//    paper's Pin-based profile for execution-weighted injection sampling).
//    Every backend counts exactly alike; under the JIT a profiled run stays
//    native on counting code (jit.hpp);
//  * an armed injection fires a callback right after the n-th execution of
//    a chosen static instruction (the paper's GDB/ptrace injector). Under
//    the JIT the fast interpreter watches for it, and the run goes native
//    once it has fired, profiled or not.
#pragma once

#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "vm/loader.hpp"

namespace care::vm {

class JitImage;

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

/// Effective address of memory operand `m` of module `lm` under integer
/// registers `g`: disp + global + base + index*scale.
inline std::uint64_t effectiveAddr(const backend::MemRef& m,
                                   const std::uint64_t* g,
                                   const LoadedModule& lm) {
  std::uint64_t a = static_cast<std::uint64_t>(m.disp);
  if (m.globalIdx >= 0)
    a += lm.globalAddr[static_cast<std::size_t>(m.globalIdx)];
  if (m.base != backend::kNoReg) a += g[m.base];
  if (m.index != backend::kNoReg) a += g[m.index] * m.scale;
  return a;
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
  // Precondition of enableProfiling() and armInjection(): call them between
  // run() calls or from an injection callback, never from a trap hook
  // (which only patches state or restores a checkpoint). The fast and JIT
  // loops read the instrumentation only when a run starts and after an
  // injection fires.
  void enableProfiling();
  /// Execution count of static instruction (module, func, instr); valid
  /// between run() calls of a profiled executor.
  std::uint64_t profileCount(const CodeLoc& loc) const;

  /// After the `nth` (1-based) completed execution of the instruction at
  /// `loc`, invoke `cb` once.
  void armInjection(const CodeLoc& loc, std::uint64_t nth,
                    std::function<void(Executor&)> cb);

  // --- checkpoints (replay cache, rollback, the C/R baseline) -------------
  /// Full process image: registers, position, emitted output, and the
  /// address space held as a shareable MemorySnapshot: many trial Executors
  /// may restoreCheckpoint() the same ResumePoint concurrently, each
  /// CoW-forking the pages.
  struct ResumePoint {
    MachineState st;
    MemorySnapshot mem;
    std::int32_t module = 0, func = 0, instr = 0;
    bool started = false;
    std::uint64_t instrCount = 0;
    /// In-place Retries on the captured timeline (retries()); golden
    /// checkpoints carry 0.
    std::uint64_t retries = 0;
    std::vector<std::uint64_t> output;
  };
  /// Capture the current position as a ResumePoint. Only meaningful between
  /// run() calls (e.g. stopped on an exact budget boundary). The snapshot
  /// shares pages CoW with this executor; continuing the run un-shares only
  /// the pages it then touches.
  ResumePoint resumePoint();
  /// Restore `rp` into this executor: CoW-fork the captured address space
  /// and reseat registers, frame position, instruction count, retries and
  /// the output buffer, so every downstream observable (budget clock,
  /// manifestation latency, SDC output comparison) stays absolute — exactly
  /// as if the whole golden prefix had been re-executed. The next run()
  /// resumes at the captured position on whichever interpreter loop is
  /// selected.
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
  /// Is this executor, stopped between run() calls, in exactly `rp`'s
  /// state? Compares in place, without capturing a ResumePoint: position,
  /// started, the golden-path count (instrCount − retries), registers byte
  /// for byte, output, and memory by MemorySnapshot::compare, struck words
  /// included. The ECC counters are not compared. `exceptWord` leaves one
  /// aligned word of memory, and its struck record, out of the comparison.
  bool sameState(const ResumePoint& rp,
                 std::optional<std::uint64_t> exceptWord = std::nullopt) const;

  // --- run ----------------------------------------------------------------
  /// Execute from `main` (resolved by Image::link(); a missing one raises
  /// "entry function not found: main"). A Barrier instruction (MiniC
  /// `mpi_barrier()`) yields with RunStatus::Yielded; calling run() again
  /// resumes right after it — the harness hook multi-rank job simulation
  /// is built on.
  RunResult run();

  /// run(), but stop with RunStatus::BudgetExceeded as soon as instrCount()
  /// reaches min(budget, stopAt) — the shared exact-stop mechanism under
  /// runCheckpointed() and the replay cache's golden prefixes. Barrier
  /// yields are resumed transparently (they are no-ops off the harness
  /// hook). The budget is lowered to `stopAt` for the call and restored
  /// afterwards, so every loop tests one bound.
  RunResult runBounded(std::uint64_t stopAt);

  // --- state access (used by hooks, Safeguard and the injector) -----------
  const Image* image() const { return image_; }
  Memory& memory() { return mem_; }
  MachineState& state() { return st_; }
  const std::vector<std::uint64_t>& output() const { return output_; }
  std::uint64_t instrCount() const { return instrCount_; }
  /// In-place Retries (repairs) on the current timeline, each of which
  /// counted its faulting instruction twice: instrCount() − retries() is
  /// the golden-path count. A restored checkpoint brings back its own.
  std::uint64_t retries() const { return retries_; }
  /// PC of the instruction currently being executed.
  std::uint64_t currentPC() const;

private:
  struct Frame {
    std::int32_t module, func;
  };

  bool jumpTo(const CodeLoc& loc);

  // The run protocol all three loops share. Each helper reads the members
  // the loop has synced; each loop keeps only its own continuation after
  // a Retry.
  /// Deliver `trap` to the hook. True when the hook patched the state and
  /// asked to re-execute the faulting instruction; a Retry that left the
  /// count where it was is a repair and counts in retries_.
  bool deliverTrap(const Trap& trap);
  /// End the run at a lost return PC: the hook may observe the BadPC, but
  /// Retry means nothing for a lost PC, so the run ends Trapped at `pc`
  /// whatever the hook answers.
  RunResult endAtLostReturn(std::uint64_t pc);
  /// The RunResult every loop returns: `status`, `trap`, the instruction
  /// count, and the exit code from the return register on Done.
  RunResult endRun(RunStatus status, const Trap& trap = {}) const;

  RunResult runReference();
  RunResult runFast();
  RunResult runJit(); // executor_jit.cpp: the mixed-mode driver
  /// runJit's native loop over the plain or the counting code variant.
  RunResult runNative(JitImage& jimg, bool counting);
  /// The token-threaded loop, compiled twice: the instrumented variant
  /// carries the per-instruction profiling and injection checks; the plain
  /// variant (profiling off, nothing armed — golden runs) omits them. Once
  /// a fired injection leaves nothing armed, the instrumented variant syncs
  /// state, sets *switchVariant and returns: runFast() re-picks a variant
  /// and runJit() goes native.
  template <bool kInstrumented>
  RunResult runFastImpl(bool* switchVariant = nullptr);

  const Image* image_;
  InterpKind interp_ = InterpKind::Fast;
  Memory mem_;
  MachineState st_;
  std::vector<std::uint64_t> output_;
  std::uint64_t instrCount_ = 0;
  std::uint64_t retries_ = 0;
  /// The one run bound every loop tests; runBounded() and the JIT's
  /// interpreter steps lower it transiently.
  std::uint64_t budget_ = ~0ull;
  TrapHook trapHook_;

  // Current position.
  std::int32_t curModule_ = 0, curFunc_ = 0, curInstr_ = 0;
  const backend::MFunction* fn_ = nullptr;
  bool started_ = false;

  // Profiling.
  bool profiling_ = false;
  std::vector<std::vector<std::vector<std::uint64_t>>> profile_;
  /// Block counters of the JIT's counting code, one slot per static
  /// instruction (JitImage::counterSlots); runJit drains them into
  /// profile_ before it returns.
  std::vector<std::uint64_t> blockCounts_;

  // Injection.
  bool injArmed_ = false;
  CodeLoc injLoc_;
  std::uint64_t injNth_ = 0;
  std::uint64_t injSeen_ = 0;
  std::function<void(Executor&)> injCb_;
};

/// Run to completion, transparently resuming across Barrier yields (for
/// single-process runs where barriers are no-ops).
inline RunResult runToCompletion(Executor& ex) {
  RunResult res = ex.run();
  while (res.status == RunStatus::Yielded) res = ex.run();
  return res;
}

} // namespace care::vm
