#include "vm/executor.hpp"

#include <atomic>
#include <cstring>
#include <string_view>

#include "support/error.hpp"
#include "vm/exec_common.hpp"

namespace care::vm {

using backend::kNoReg;
using backend::MFunction;
using backend::MInst;
using backend::MOp;
using backend::MType;
using ir::CmpPred;

const char* trapKindName(TrapKind k) {
  switch (k) {
  case TrapKind::SegFault: return "SIGSEGV";
  case TrapKind::Bus: return "SIGBUS";
  case TrapKind::Fpe: return "SIGFPE";
  case TrapKind::Abort: return "SIGABRT";
  case TrapKind::BadPC: return "SIGILL";
  case TrapKind::Sentinel: return "SIGSENT";
  case TrapKind::EccUncorrectable: return "SIGECC";
  }
  return "?";
}

namespace {

std::atomic<InterpKind> gDefaultInterp{InterpKind::Fast};

} // namespace

InterpKind parseInterp(std::string_view name) {
  if (name == "ref") return InterpKind::Ref;
  if (name == "fast") return InterpKind::Fast;
  if (name == "jit") return InterpKind::Jit;
  throw Error("unknown interpreter backend '" + std::string(name) +
              "' (expected one of: ref, fast, jit)");
}

const char* interpName(InterpKind k) {
  switch (k) {
  case InterpKind::Ref: return "ref";
  case InterpKind::Fast: return "fast";
  case InterpKind::Jit: return "jit";
  }
  return "?";
}

InterpKind defaultInterp() {
  return gDefaultInterp.load(std::memory_order_relaxed);
}

void setDefaultInterp(InterpKind k) {
  gDefaultInterp.store(k, std::memory_order_relaxed);
}

Executor::Executor(const Image* image)
    : image_(image), interp_(defaultInterp()) {
  const std::uint64_t sp = image_->initMemory(mem_);
  st_.g[backend::kSP] = sp;
  st_.g[backend::kFP] = sp;
}

Executor::Executor(const Image* image, const MemorySnapshot& initialMem)
    : image_(image), interp_(defaultInterp()), mem_(initialMem.fork()) {
  // The snapshot is the post-initMemory image, whose stack pointer is
  // always the fixed stack top.
  st_.g[backend::kSP] = Image::kStackTop;
  st_.g[backend::kFP] = Image::kStackTop;
}

std::uint64_t Executor::currentPC() const {
  return image_->pcOf(curModule_, curFunc_, curInstr_);
}

void Executor::enableProfiling() {
  profiling_ = true;
  profile_.resize(image_->numModules());
  for (std::size_t m = 0; m < image_->numModules(); ++m) {
    const auto& fns = image_->module(m).mod->functions;
    profile_[m].resize(fns.size());
    // One pad slot per row: the fast loop's fetch bookkeeping briefly
    // touches the OobGuard sentinel's index before the guard handler
    // rolls it back (decode.hpp). Never reported.
    for (std::size_t f = 0; f < fns.size(); ++f)
      profile_[m][f].assign(fns[f].code.size() + 1, 0);
  }
}

std::uint64_t Executor::profileCount(const CodeLoc& loc) const {
  return profile_[static_cast<std::size_t>(loc.module)]
                 [static_cast<std::size_t>(loc.func)]
                 [static_cast<std::size_t>(loc.instr)];
}

void Executor::armInjection(const CodeLoc& loc, std::uint64_t nth,
                            std::function<void(Executor&)> cb) {
  injArmed_ = true;
  injLoc_ = loc;
  injNth_ = nth;
  injSeen_ = 0;
  injCb_ = std::move(cb);
}

Executor::Checkpoint Executor::checkpoint() const {
  Checkpoint cp;
  cp.st = st_;
  cp.mem = mem_.clone();
  cp.module = curModule_;
  cp.func = curFunc_;
  cp.instr = curInstr_;
  cp.started = started_;
  cp.instrCount = instrCount_;
  cp.output = output_;
  return cp;
}

void Executor::restore(const Checkpoint& cp) {
  st_ = cp.st;
  mem_.restoreFrom(cp.mem);
  started_ = cp.started;
  instrCount_ = cp.instrCount;
  output_ = cp.output;
  jumpTo({cp.module, cp.func, cp.instr});
}

Executor::ResumePoint Executor::resumePoint() {
  ResumePoint rp;
  rp.st = st_;
  rp.mem = MemorySnapshot::capture(mem_);
  rp.module = curModule_;
  rp.func = curFunc_;
  rp.instr = curInstr_;
  rp.started = started_;
  rp.instrCount = instrCount_;
  rp.output = output_;
  return rp;
}

void Executor::restoreCheckpoint(const ResumePoint& rp, bool preserveOutput) {
  st_ = rp.st;
  // The ECC mode and correction counters belong to the machine, not the
  // captured address space: carry them across the fork so a rollback keeps
  // the protection armed and the accounting cumulative.
  const EccMode eccMode = mem_.eccMode();
  const std::uint64_t eccCorrected = mem_.eccCorrected();
  const std::uint64_t eccUncorrectable = mem_.eccUncorrectable();
  mem_ = rp.mem.fork();
  mem_.setEccMode(eccMode);
  mem_.setEccCounters(eccCorrected, eccUncorrectable);
  started_ = rp.started;
  instrCount_ = rp.instrCount;
  if (!preserveOutput) output_ = rp.output;
  // A never-started point restores to a fresh executor; run() then performs
  // its usual entry setup.
  if (rp.started) jumpTo({rp.module, rp.func, rp.instr});
}

bool Executor::jumpTo(const CodeLoc& loc) {
  if (!loc.valid()) return false;
  curModule_ = loc.module;
  curFunc_ = loc.func;
  curInstr_ = loc.instr;
  fn_ = &image_->function(loc);
  return true;
}

RunResult Executor::run(const std::string& entry) {
  if (!started_) {
    FuncRef start = image_->findFunction(entry);
    if (!start.valid()) raise("entry function not found: " + entry);
    jumpTo({start.module, start.func, 0});
    // Push the halt sentinel as the entry frame's return address.
    st_.g[backend::kSP] -= 8;
    mem_.store(st_.g[backend::kSP], MType::I64, Image::kHaltPC);
    started_ = true;
  }
  if (interp_ == InterpKind::Ref) return runReference();
  if (interp_ == InterpKind::Jit) return runJit();
  return runFast();
}

RunResult Executor::runBounded(std::uint64_t stopAt, const std::string& entry) {
  stopAt_ = stopAt;
  RunResult res = run(entry);
  while (res.status == RunStatus::Yielded) res = run(entry);
  stopAt_ = ~0ull;
  return res;
}

// The original big-switch loop, kept verbatim in structure as the executable
// specification of the VM's semantics: the fast decoded dispatcher
// (executor_fast.cpp) must match it bit for bit, which the differential
// tests assert. Scalar semantics live in exec_common.hpp, shared by both.
RunResult Executor::runReference() {
  RunResult res;
  auto* g = st_.g;
  auto* f = st_.f;

  for (;;) {
    if (instrCount_ >= (budget_ < stopAt_ ? budget_ : stopAt_)) {
      res.status = RunStatus::BudgetExceeded;
      res.instrCount = instrCount_;
      return res;
    }
    const MInst& in = fn_->code[static_cast<std::size_t>(curInstr_)];
    ++instrCount_;
    if (profiling_)
      ++profile_[static_cast<std::size_t>(curModule_)]
                [static_cast<std::size_t>(curFunc_)]
                [static_cast<std::size_t>(curInstr_)];

    // Trap delivery state: consult the hook; Retry re-executes the same
    // instruction (Safeguard patched the state), Propagate ends the run.
    TrapKind trapKind{};
    std::uint64_t trapAddr = 0;
    bool trapped = false;
    auto memTrap = [&](MemStatus s, std::uint64_t ea) {
      trapKind = trapKindForMem(s);
      trapAddr = ea;
      trapped = true;
    };

    const LoadedModule& lm =
        image_->module(static_cast<std::size_t>(curModule_));

    std::int32_t nextInstr = curInstr_ + 1;
    std::int32_t nextModule = curModule_, nextFunc = curFunc_;
    bool crossJump = false;
    std::uint64_t crossPC = 0;

    switch (in.op) {
    case MOp::Mov: g[in.dst] = g[in.src1]; break;
    case MOp::MovImm: g[in.dst] = static_cast<std::uint64_t>(in.imm); break;
    case MOp::FMov: f[in.dst] = f[in.src1]; break;
    case MOp::FMovImm: f[in.dst] = in.fimm; break;
    case MOp::Load: {
      const std::uint64_t a = effectiveAddr(in.mem, g, lm);
      if (backend::mtypeIsFP(in.mem.type)) {
        double v;
        const MemStatus s = mem_.loadF(a, in.mem.type, v);
        if (s != MemStatus::Ok) { memTrap(s, a); break; }
        f[in.dst] = v;
      } else {
        std::uint64_t v;
        const MemStatus s = mem_.load(a, in.mem.type, v);
        if (s != MemStatus::Ok) { memTrap(s, a); break; }
        g[in.dst] = v;
      }
      break;
    }
    case MOp::Store: {
      const std::uint64_t a = effectiveAddr(in.mem, g, lm);
      const MemStatus s =
          backend::mtypeIsFP(in.mem.type)
              ? mem_.storeF(a, in.mem.type, f[in.src1])
              : mem_.store(a, in.mem.type, g[in.src1]);
      if (s != MemStatus::Ok) memTrap(s, a);
      break;
    }
    case MOp::Lea: g[in.dst] = effectiveAddr(in.mem, g, lm); break;
    case MOp::IAdd: case MOp::ISub: case MOp::IMul: case MOp::IDiv:
    case MOp::IRem: case MOp::IAnd: case MOp::IOr: case MOp::IXor:
    case MOp::IShl: case MOp::IAshr: {
      const std::uint64_t b =
          in.src2 != kNoReg ? g[in.src2] : static_cast<std::uint64_t>(in.imm);
      std::uint64_t out;
      if (intAluOp(in.op, g[in.src1], b, in.narrow, out)) {
        g[in.dst] = out;
      } else {
        trapKind = TrapKind::Fpe;
        trapAddr = 0;
        trapped = true;
      }
      break;
    }
    case MOp::Sext32: g[in.dst] = norm32(g[in.src1]); break;
    case MOp::IAluMem: {
      const std::uint64_t a = effectiveAddr(in.mem, g, lm);
      std::uint64_t v;
      const MemStatus s = mem_.load(a, in.mem.type, v);
      if (s != MemStatus::Ok) { memTrap(s, a); break; }
      std::uint64_t out;
      if (intAluOp(static_cast<MOp>(in.sub), g[in.src1], v, in.narrow, out)) {
        g[in.dst] = out;
      } else {
        trapKind = TrapKind::Fpe;
        trapAddr = 0;
        trapped = true;
      }
      break;
    }
    case MOp::FAdd: case MOp::FSub: case MOp::FMul: case MOp::FDiv:
      f[in.dst] = fpAluOp(in.op, f[in.src1], f[in.src2], in.narrow);
      break;
    case MOp::FAluMem: {
      const std::uint64_t a = effectiveAddr(in.mem, g, lm);
      double v;
      const MemStatus s = mem_.loadF(a, in.mem.type, v);
      if (s != MemStatus::Ok) { memTrap(s, a); break; }
      f[in.dst] = fpAluOp(static_cast<MOp>(in.sub), f[in.src1], v, in.narrow);
      break;
    }
    case MOp::CvtSiToF: {
      double r = static_cast<double>(static_cast<std::int64_t>(g[in.src1]));
      if (in.narrow) r = static_cast<double>(static_cast<float>(r));
      f[in.dst] = r;
      break;
    }
    case MOp::CvtFToSi: {
      const std::int64_t r = static_cast<std::int64_t>(f[in.src1]);
      g[in.dst] = in.narrow ? norm32(static_cast<std::uint64_t>(r))
                            : static_cast<std::uint64_t>(r);
      break;
    }
    case MOp::CvtF32F64: f[in.dst] = f[in.src1]; break;
    case MOp::CvtF64F32:
      f[in.dst] = static_cast<double>(static_cast<float>(f[in.src1]));
      break;
    case MOp::SetCmp:
      g[in.dst] = intCmp(static_cast<CmpPred>(in.sub),
                         static_cast<std::int64_t>(g[in.src1]),
                         in.src2 != kNoReg
                             ? static_cast<std::int64_t>(g[in.src2])
                             : in.imm)
                      ? 1
                      : 0;
      break;
    case MOp::FSetCmp:
      g[in.dst] =
          fpCmp(static_cast<CmpPred>(in.sub), f[in.src1], f[in.src2]) ? 1 : 0;
      break;
    case MOp::BrCmp:
      if (intCmp(static_cast<CmpPred>(in.sub),
                 static_cast<std::int64_t>(g[in.src1]),
                 in.src2 != kNoReg ? static_cast<std::int64_t>(g[in.src2])
                                   : in.imm))
        nextInstr = in.target;
      break;
    case MOp::FBrCmp:
      if (fpCmp(static_cast<CmpPred>(in.sub), f[in.src1], f[in.src2]))
        nextInstr = in.target;
      break;
    case MOp::Jmp: nextInstr = in.target; break;
    case MOp::Call: {
      FuncRef target;
      if (in.externCall) {
        target = lm.externTargets[static_cast<std::size_t>(in.target)];
      } else {
        target = {curModule_, in.target};
      }
      const std::uint64_t retPC =
          image_->pcOf(curModule_, curFunc_, curInstr_ + 1);
      const std::uint64_t newSP = g[backend::kSP] - 8;
      const MemStatus s = mem_.store(newSP, MType::I64, retPC);
      if (s != MemStatus::Ok) { memTrap(s, newSP); break; }
      g[backend::kSP] = newSP;
      nextModule = target.module;
      nextFunc = target.func;
      nextInstr = 0;
      break;
    }
    case MOp::Ret: {
      const std::uint64_t sp = g[backend::kSP];
      std::uint64_t retPC;
      const MemStatus s = mem_.load(sp, MType::I64, retPC);
      if (s != MemStatus::Ok) { memTrap(s, sp); break; }
      g[backend::kSP] = sp + 8;
      if (retPC == Image::kHaltPC) {
        res.status = RunStatus::Done;
        res.instrCount = instrCount_;
        res.exitCode = static_cast<std::int64_t>(g[backend::kRet]);
        return res;
      }
      crossJump = true;
      crossPC = retPC;
      break;
    }
    case MOp::MathCall:
      f[in.dst] = backend::evalMathFn(
          static_cast<backend::MathFn>(in.sub), f[in.src1],
          in.src2 != kNoReg ? f[in.src2] : 0.0);
      break;
    case MOp::Emit: {
      std::uint64_t bits;
      static_assert(sizeof(double) == 8);
      std::memcpy(&bits, &f[in.src1], 8);
      output_.push_back(bits);
      break;
    }
    case MOp::EmitI: output_.push_back(g[in.src1]); break;
    case MOp::Abort:
      trapKind = TrapKind::Abort;
      trapped = true;
      break;
    case MOp::SentinelTrap:
      trapKind = TrapKind::Sentinel;
      trapped = true;
      break;
    case MOp::Barrier:
      // Yield to the harness; resuming run() continues after the barrier.
      curInstr_ = nextInstr;
      res.status = RunStatus::Yielded;
      res.instrCount = instrCount_;
      return res;
    }

    if (trapped) {
      Trap trap{trapKind, currentPC(), trapAddr};
      if (trapHook_) {
        const TrapAction act = trapHook_(*this, trap);
        if (act == TrapAction::Retry) continue; // re-execute, state patched
      }
      res.status = RunStatus::Trapped;
      res.trap = trap;
      res.instrCount = instrCount_;
      return res;
    }

    // Injection: fires after the n-th completed execution of the target.
    if (injArmed_ && curInstr_ == injLoc_.instr && curFunc_ == injLoc_.func &&
        curModule_ == injLoc_.module) {
      if (++injSeen_ == injNth_) {
        injArmed_ = false;
        injCb_(*this);
      }
    }

    if (crossJump) {
      const CodeLoc loc = image_->locate(crossPC);
      if (!loc.valid()) {
        Trap trap{TrapKind::BadPC, crossPC, 0};
        // A wild return address is not recoverable by CARE; still give the
        // hook a chance to observe it.
        if (trapHook_) {
          const TrapAction act = trapHook_(*this, trap);
          (void)act; // Retry is meaningless for a lost PC
        }
        res.status = RunStatus::Trapped;
        res.trap = trap;
        res.instrCount = instrCount_;
        return res;
      }
      jumpTo(loc);
      continue;
    }
    if (nextModule != curModule_ || nextFunc != curFunc_) {
      jumpTo({nextModule, nextFunc, nextInstr});
      continue;
    }
    if (nextInstr < 0 ||
        static_cast<std::size_t>(nextInstr) >= fn_->code.size()) {
      Trap trap{TrapKind::BadPC, currentPC(), 0};
      res.status = RunStatus::Trapped;
      res.trap = trap;
      res.instrCount = instrCount_;
      return res;
    }
    curInstr_ = nextInstr;
  }
}

} // namespace care::vm
