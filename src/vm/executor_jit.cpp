// Mixed-mode driver for the template-JIT backend (DESIGN.md §4h).
//
// run() under InterpKind::Jit alternates between native execution of
// compiled code and the fast interpreter:
//
//  * instrumented runs (profiling, armed injection) stay on the fast
//    interpreter entirely — they need its per-instruction checks;
//  * a position with no native entry (function below its compile
//    threshold, interpret-only, or a basic block that no longer fits the
//    effective budget) is burst-interpreted under a stopAt_ bound, then
//    the code cache is probed again;
//  * native execution returns through the JitExit protocol, with the
//    position/count fields synced exactly like the interpreter's SYNC(),
//    so trap hooks, checkpoints and ResumePoints observe identical state.
//
// Every loop iteration makes progress: entryFor repeats the emitted
// block-fit check in C++, so whenever it hands out an entry the native
// block runs at least one instruction, and whenever it declines, the
// interpreter burst executes at least one.
#include "vm/executor.hpp"
#include "vm/jit.hpp"

namespace care::vm {

namespace {
// Interpreter burst length while a position has no native entry: long
// enough to amortize the bound bookkeeping, short enough to re-probe the
// code cache promptly once a callee compiles.
constexpr std::uint64_t kBurst = 65536;
} // namespace

RunResult Executor::runJit() {
  // Profiling counts, nth-execution injection watchpoints and ECC-armed
  // memory need per-access checks the emitted templates don't carry; the
  // fast interpreter provides them with identical results.
  if (profiling_ || injArmed_ || mem_.eccEnabled() ||
      mem_.accessTraceActive())
    return runFast();

  JitImage& jimg = image_->jit();
  if (!jimg.usable()) {
    warnJitUnavailableOnce();
    return runFast();
  }

  RunResult res;
  JitContext ctx;
  // All pointers are members of this Executor (or member arrays of mem_),
  // so they stay valid even when a trap hook restoreCheckpoint()s: the
  // Memory move-assign reseats pages but not the TLB array addresses.
  ctx.g = st_.g;
  ctx.f = st_.f;
  const auto tlbs = mem_.jitTlbView();
  ctx.readTlb = tlbs.first;
  ctx.writeTlb = tlbs.second;
  ctx.mem = &mem_;
  ctx.output = &output_;
  ctx.jit = &jimg;

  for (;;) {
    const std::uint64_t stop = budget_ < stopAt_ ? budget_ : stopAt_;
    if (instrCount_ >= stop) {
      res.status = RunStatus::BudgetExceeded;
      res.instrCount = instrCount_;
      return res;
    }
    // A trap hook may have armed instrumentation mid-run; hand the rest of
    // the run over, like the plain fast-loop variant does.
    if (profiling_ || injArmed_ || mem_.eccEnabled() ||
        mem_.accessTraceActive())
      return runFast();

    const void* entry =
        jimg.entryFor(curModule_, curFunc_, curInstr_, instrCount_, stop);
    if (!entry) {
      // Burst-interpret under a transient bound. An artificial stop shows
      // up as BudgetExceeded short of the real bound — re-probe the cache.
      const std::uint64_t save = stopAt_;
      std::uint64_t burstStop = instrCount_ + kBurst;
      if (burstStop > stop) burstStop = stop;
      stopAt_ = burstStop;
      RunResult r = runFast();
      stopAt_ = save;
      if (r.status == RunStatus::BudgetExceeded &&
          r.instrCount < (budget_ < stopAt_ ? budget_ : stopAt_))
        continue;
      return r;
    }

    ctx.ic = instrCount_;
    ctx.budget = stop;
    jimg.enter(ctx, entry);

    // Publish the exit state the way the interpreter's SYNC() does.
    instrCount_ = ctx.ic;
    curModule_ = ctx.module;
    curFunc_ = ctx.func;
    curInstr_ = ctx.instr;
    fn_ = &image_->function({curModule_, curFunc_, 0});

    switch (static_cast<JitExit>(ctx.exitKind)) {
    case JitExit::Done:
      res.status = RunStatus::Done;
      res.instrCount = instrCount_;
      res.exitCode = static_cast<std::int64_t>(st_.g[backend::kRet]);
      return res;

    case JitExit::Trap: {
      const Trap trap{static_cast<TrapKind>(ctx.trapKind), currentPC(),
                      ctx.trapAddr};
      if (trapHook_ && trapHook_(*this, trap) == TrapAction::Retry)
        continue; // members re-read at the loop top (the reference Retry)
      res.status = RunStatus::Trapped;
      res.trap = trap;
      res.instrCount = instrCount_;
      return res;
    }

    case JitExit::BadPCInternal:
      // Fell or branched past the function end: hook-invisible, exactly
      // like the interpreter loops' oob_pc path.
      res.status = RunStatus::Trapped;
      res.trap = Trap{TrapKind::BadPC, currentPC(), 0};
      res.instrCount = instrCount_;
      return res;

    case JitExit::CrossJump: {
      // Ret to a PC the code cache would not resolve. A wild address is a
      // BadPC with an observe-only hook (Retry is meaningless for a lost
      // PC, as in L_Ret); a valid one continues at the loop top.
      const CodeLoc loc = image_->locate(ctx.retPC);
      if (loc.valid()) {
        jumpTo(loc);
        continue;
      }
      const Trap trap{TrapKind::BadPC, ctx.retPC, 0};
      if (trapHook_) (void)trapHook_(*this, trap);
      res.status = RunStatus::Trapped;
      res.trap = trap;
      res.instrCount = instrCount_;
      return res;
    }

    case JitExit::CrossEnter:
    case JitExit::Deopt:
      // Loop top decides: compile the callee, burst-interpret, or stop on
      // the exact budget boundary.
      continue;

    case JitExit::ColdOp: {
      // Single-step the rare op on the interpreter, then resume natively
      // at the next instruction (its counter increment happens there).
      const std::uint64_t save = stopAt_;
      stopAt_ = instrCount_ + 1;
      RunResult r = runFast();
      stopAt_ = save;
      if (r.status == RunStatus::BudgetExceeded &&
          r.instrCount < (budget_ < stopAt_ ? budget_ : stopAt_))
        continue;
      return r;
    }

    case JitExit::Yield:
      res.status = RunStatus::Yielded;
      res.instrCount = instrCount_;
      return res;
    }

    // Unreachable: every JitExit either returned or continued.
    res.status = RunStatus::Trapped;
    res.trap = Trap{TrapKind::BadPC, 0, 0};
    res.instrCount = instrCount_;
    return res;
  }
}

} // namespace care::vm
