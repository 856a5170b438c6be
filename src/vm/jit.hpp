// Baseline template JIT: predecoded DInst streams -> native x86-64.
//
// The third interpreter backend (`--interp=jit` / CARE_INTERP=jit) compiles
// each MFunction's predecoded stream into a W^X mmap chunk: every basic
// block is a run of inline templates (ALU on the MachineState register
// file, software-TLB page translation for memory traffic, direct rel32
// jumps between blocks of the same function, slot-indirect jumps between
// functions), bracketed by one per-block budget check. The CARE contract —
// a fault surfaces as the same TrapKind with registers, frame, output and
// absolute instrCount materialized at the faulting MIR instruction — is
// preserved by construction:
//
//  * the instruction counter lives in a host register and is incremented
//    at the top of every template, exactly where the interpreter loops
//    count, so a trap stub materializes the same instrCount;
//  * every trap site exits through a stub that records (instr index,
//    TrapKind, faulting address) and returns to the driver, which invokes
//    the trap hook against fully synced Executor members — Safeguard, the
//    rollback ring and the injection classifier cannot tell the backends
//    apart;
//  * exact dynamic-instruction budgets come from per-block counting: a
//    block whose full length no longer fits the budget is never entered
//    natively — the driver deopts to the fast interpreter, whose
//    per-instruction check stops on the exact boundary (the same shared
//    stop mechanism runCheckpointed() and the replay cache use);
//  * cold or rare ops (fused div-from-memory, sub-word fused loads) exit
//    through a ColdOp stub and are single-stepped by the interpreter, then
//    native execution resumes at the next instruction.
//
// Compilation is per-function, on the first driver touch, into chunks that
// are sealed PROT_READ|PROT_EXEC before their entry is published — no page
// is ever writable and executable at once, and no sealed page is rewritten
// (cross-function calls go through patchable data slots, never through
// code). If the host forbids executable mappings entirely, jitAvailable()
// turns false and the executor falls back to the fast interpreter with a
// one-line warning.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "vm/decode.hpp"

namespace care::vm {

class Executor;
class Image;
class Memory;

/// True when this process can mmap executable memory (probed once). When
/// false, InterpKind::Jit silently degrades to the fast interpreter after
/// a single stderr warning.
bool jitAvailable();

/// Emit the "executable mappings unavailable, falling back" warning —
/// exactly once per process, no matter how many Images or Executors hit
/// the condition (std::once_flag). Returns true on the call that emitted.
bool warnJitUnavailableOnce();
/// How many times the warning has actually been printed (0 or 1). Test
/// hook for the once-per-process guarantee.
int jitUnavailableWarnCount();

/// The state block native code runs against. Fixed host registers cache
/// the hot fields (g/f bases, read-TLB base, instruction counter); exits
/// write the position/trap fields back for the driver. Plain
/// standard-layout struct: the emitter addresses it by offsetof.
struct JitContext {
  // Stable per-run pointers (members of the owning Executor).
  std::uint64_t* g = nullptr;        // MachineState::g (incl. zero slot)
  double* f = nullptr;               // MachineState::f
  void* readTlb = nullptr;           // Memory read-TLB entry array
  void* writeTlb = nullptr;          // Memory write-TLB entry array
  Memory* mem = nullptr;             // for TLB-miss helpers
  std::vector<std::uint64_t>* output = nullptr; // Emit/EmitI sink
  const void* jit = nullptr;         // owning JitImage (Ret resolution)
  // Run state (in: driver -> native; out: native -> driver).
  std::uint64_t ic = 0;              // absolute instrCount
  std::uint64_t budget = 0;          // effective stop (min(budget, stopAt))
  std::uint64_t trapAddr = 0;        // faulting data address
  std::uint64_t retPC = 0;           // unresolved cross-function PC
  std::uint64_t scratch = 0;         // miss-stub spill slot
  std::int32_t exitKind = 0;         // JitExit
  std::int32_t trapKind = 0;         // TrapKind at a Trap exit
  std::int32_t module = 0, func = 0, instr = 0; // position at exit
};

/// Why native execution returned to the driver.
enum class JitExit : std::int32_t {
  Done = 0,      // halt sentinel popped; exit code in g[kRet]
  Trap,          // hardware trap; hook protocol runs in the driver
  BadPCInternal, // fell/branched past the function end (no hook, like oob_pc)
  CrossJump,     // Ret to a PC with no native entry; retPC holds it
  CrossEnter,    // call into a not-yet-compiled function; position set
  Deopt,         // block no longer fits the budget; interpreter finishes
  ColdOp,        // rare op at `instr`: single-step it in the interpreter
  Yield,         // Barrier; position is the resume point
};

/// Per-Image native code cache. Thread-safe: many campaign Executors share
/// one Image and compile/execute concurrently.
class JitImage {
public:
  explicit JitImage(const Image& image);
  ~JitImage();
  JitImage(const JitImage&) = delete;
  JitImage& operator=(const JitImage&) = delete;

  /// Native address to enter for position (m, f, j) under the given
  /// counter/limit, or nullptr when the driver should interpret instead:
  /// compilation failed, or the remainder of j's basic block no longer
  /// fits `limit` (the budget-exactness deopt). Compiles the function on
  /// its first touch.
  const void* entryFor(std::int32_t m, std::int32_t f, std::int32_t j,
                       std::uint64_t ic, std::uint64_t limit);

  /// entryFor for a raw code address (the Ret path): resolves `pc` through
  /// Image::locate. Returns nullptr for wild PCs too.
  const void* entryForPC(std::uint64_t pc, std::uint64_t ic,
                         std::uint64_t limit);

  /// The shared entry thunk: saves host state, seats the fixed registers
  /// from `ctx`, jumps to `target` (a value from entryFor).
  void enter(JitContext& ctx, const void* target) const;

  const Image& image() const { return image_; }

  /// False once a chunk allocation has failed: the driver should warn once
  /// and interpret everything.
  bool usable() const { return !broken_; }

  /// Compiled-function count (tests/telemetry).
  std::size_t compiledFunctions() const;

private:
  struct FnJit;
  struct Chunk;

  FnJit* compiled(std::int32_t m, std::int32_t f);
  FnJit* compileLocked(std::int32_t m, std::int32_t f);

  const Image& image_;
  // One slot per function: the address cross-function call templates jump
  // through. Initially the function's CrossEnter stub; atomically repointed
  // at the real entry once compiled. Lives in plain data, never in code.
  std::vector<std::vector<std::atomic<const void*>>> slots_;
  std::vector<std::vector<std::atomic<FnJit*>>> fns_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::unique_ptr<FnJit>> fnStore_;
  // Emitted once into the first chunk.
  const void* entryThunk_ = nullptr;
  const void* commonExit_ = nullptr;
  std::mutex compileMutex_;
  bool broken_ = false; // a chunk allocation failed; interpret everything

  friend const void* jitResolveRet(JitContext* ctx, std::uint64_t pc);
};

} // namespace care::vm
