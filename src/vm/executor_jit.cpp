// Mixed-mode driver for the template-JIT backend (DESIGN.md §4h).
//
// run() under InterpKind::Jit runs compiled code and hands the fast
// interpreter only three things:
//
//  * an armed prefix: an armed injection runs on the instrumented fast
//    loop until it fires, then the rest of the run goes native;
//  * a burst, at a position with no native entry (a function compiles on
//    its first touch, so: its compile failed, or the rest of the basic
//    block no longer fits the budget), after which the code cache is
//    probed again;
//  * a single instruction: a rare op (ColdOp), or an access the software
//    TLB cannot serve on a mapped page, i.e. one holding a word struck
//    under ECC. The emitted miss helpers report that as a SegFault at a
//    mapped address; the fast loop's typed accessor corrects the word or
//    raises EccUncorrectable, and native execution resumes after it.
//
// Profiled runs stay native on the counting code variant (jit.hpp): blocks
// count themselves, the driver credits the instructions of a mid-block
// entry and debits the unexecuted rest of a block left early (Trap,
// ColdOp, single steps), and interpreter steps count per instruction, so
// profileCount() equals the fast interpreter's exactly. Native execution
// returns through the JitExit protocol, with the position/count fields
// synced exactly like the interpreter's SYNC(), so trap hooks, checkpoints
// and ResumePoints observe identical state. A whole run goes to the fast
// loop only when the JIT is unusable.
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
  JitImage& jimg = image_->jit();
  if (!jimg.usable()) {
    warnJitUnavailableOnce();
    return runFast();
  }

  if (injArmed_) {
    // The instrumented loop returns with `fired` set once the injection
    // has fired and left no instrumentation behind.
    bool fired = false;
    const RunResult r = runFastImpl<true>(&fired);
    if (!fired) return r;
  }
  if (!profiling_) return runNative(jimg, false);

  blockCounts_.resize(jimg.counterSlots());
  const RunResult r = runNative(jimg, true);
  jimg.drainBlockCounts(blockCounts_.data(), profile_);
  return r;
}

RunResult Executor::runNative(JitImage& jimg, bool counting) {
  const JitVariant variant =
      counting ? JitVariant::Counting : JitVariant::Plain;
  // Add `delta` (wrapping: ~0 subtracts one) to the profile counts of the
  // rest of j's block from `from` on — a counting run's mid-block entry
  // credit or early-exit debit.
  auto adjustBlock = [&](std::int32_t from, std::uint32_t n,
                         std::uint64_t delta) {
    std::uint64_t* row = profile_[static_cast<std::size_t>(curModule_)]
                                 [static_cast<std::size_t>(curFunc_)]
                                     .data() +
                         from;
    for (std::uint32_t i = 0; i < n; ++i) row[i] += delta;
  };

  // Interpret up to `limit` (never past the run's own bound) on the fast
  // loop. True when it stopped only at `limit`: resume natively. Otherwise
  // `r` ends the run.
  auto interpretTo = [&](std::uint64_t limit, RunResult& r) {
    const std::uint64_t bound = budget_;
    if (limit < bound) budget_ = limit;
    r = runFast();
    budget_ = bound;
    return r.status == RunStatus::BudgetExceeded && r.instrCount < bound;
  };

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
  ctx.blockCounts = counting ? blockCounts_.data() : nullptr;

  for (;;) {
    if (instrCount_ >= budget_) return endRun(RunStatus::BudgetExceeded);

    const void* entry = jimg.entryFor(curModule_, curFunc_, curInstr_,
                                      instrCount_, budget_, variant);
    if (!entry) {
      // Burst-interpret, then re-probe the cache.
      RunResult r;
      if (interpretTo(instrCount_ + kBurst, r)) continue;
      return r;
    }

    // The entry skips the block counter: credit the rest of the block.
    if (counting)
      adjustBlock(curInstr_, jimg.blockRest(curModule_, curFunc_, curInstr_),
                  1);
    ctx.ic = instrCount_;
    ctx.budget = budget_;
    jimg.enter(ctx, entry);

    // Publish the exit state the way the interpreter's SYNC() does.
    instrCount_ = ctx.ic;
    curModule_ = ctx.module;
    curFunc_ = ctx.func;
    curInstr_ = ctx.instr;
    fn_ = &image_->function({curModule_, curFunc_, 0});

    switch (static_cast<JitExit>(ctx.exitKind)) {
    case JitExit::Done:
      return endRun(RunStatus::Done);

    case JitExit::Trap: {
      // A SegFault at a mapped address is a TLB miss on a page holding a
      // struck word: single-step the access like a ColdOp.
      if (static_cast<TrapKind>(ctx.trapKind) == TrapKind::SegFault &&
          mem_.isMapped(ctx.trapAddr)) {
        --instrCount_;
        goto single_step;
      }
      // The trapping instruction counted; the rest of its block did not run.
      if (counting)
        adjustBlock(curInstr_ + 1,
                    jimg.blockRest(curModule_, curFunc_, curInstr_) - 1, ~0ull);
      const Trap trap{static_cast<TrapKind>(ctx.trapKind), currentPC(),
                      ctx.trapAddr};
      if (deliverTrap(trap))
        continue; // members re-read at the loop top (the reference Retry)
      return endRun(RunStatus::Trapped, trap);
    }

    case JitExit::BadPCInternal:
      // Fell or branched past the function end: hook-invisible, exactly
      // like the interpreter loops' oob_pc path.
      return endRun(RunStatus::Trapped, Trap{TrapKind::BadPC, currentPC(), 0});

    case JitExit::CrossJump: {
      // Ret to a PC the code cache would not resolve: a wild address ends
      // the run, a valid one continues at the loop top.
      const CodeLoc loc = image_->locate(ctx.retPC);
      if (!loc.valid()) return endAtLostReturn(ctx.retPC);
      jumpTo(loc);
      continue;
    }

    case JitExit::CrossEnter:
    case JitExit::Deopt:
      // Loop top decides: compile the callee, burst-interpret, or stop on
      // the exact budget boundary.
      continue;

    case JitExit::ColdOp:
    single_step: {
      // Single-step the instruction on the interpreter (which counts it),
      // then resume natively at the next one (its counter increment
      // happens there).
      if (counting)
        adjustBlock(curInstr_, jimg.blockRest(curModule_, curFunc_, curInstr_),
                    ~0ull);
      RunResult r;
      if (interpretTo(instrCount_ + 1, r)) continue;
      return r;
    }

    case JitExit::Yield:
      return endRun(RunStatus::Yielded);
    }

    // Unreachable: every JitExit either returned or continued.
    return endRun(RunStatus::Trapped, Trap{TrapKind::BadPC, 0, 0});
  }
}

} // namespace care::vm
