// The fast interpreter: token-threaded dispatch over predecoded streams.
//
// Semantics are defined by Executor::runReference() (executor.cpp); this
// loop must match it bit for bit — same instrCount, same profile counts,
// same trap kind/pc/addr, same injection arming, same register file and
// output. The differential tests (vm_diff_test) hold the two loops against
// each other on every workload.
//
// What makes it fast:
//  * operands were resolved at decode time: global addresses folded into
//    displacements, call targets and return PCs precomputed, loads/stores
//    specialized by width, int ALU specialized by op, width and operand
//    form, compares/branches by predicate;
//  * token threading: every handler ends with its own fetch + computed
//    goto (GNU labels-as-values), so the branch predictor sees one
//    indirect jump per handler instead of a single shared dispatch point
//    (branches even keep separate taken/not-taken dispatch sites);
//  * the instruction pointer is a real pointer: straight-line advance is
//    one pointer increment, and the instruction index is reconstructed
//    (d - code) only on cold paths — syncs, traps, profiling rows;
//  * memory accesses translate pages inline through the software TLB and
//    memcpy directly, instead of calling the out-of-line Memory API. The
//    TLB is the only gate: an access it cannot serve (misaligned, unmapped,
//    or on a page holding a word struck under ECC) takes the typed
//    accessor, so ECC trials run inline everywhere but on that page, and
//    on it too once the word settles;
//  * effective addresses are branch-free: the decoder aliases absent
//    base/index operands to the hardwired-zero register slot and applies
//    the element-size scale as a shift;
//  * straight-line execution has no per-instruction bounds check: each
//    decoded function ends in an OobGuard sentinel that reproduces the
//    reference loop's BadPC exactly; only branch targets are range-checked;
//  * the loop is compiled twice (runFastImpl<kInstrumented>): golden runs —
//    profiling off, no injection armed — pay for neither check, and an
//    injection run returns once its injection has fired and disarmed, to
//    continue on the plain variant (or natively, under the JIT);
//  * hot interpreter state (position, instruction count, budget, code
//    pointer, profile row, injection target) lives in locals, published to
//    the Executor members only around hook/callback boundaries and
//    returns — exactly the points where the reference loop's member state
//    is observable.
#include <cstring>

#include "ir/scalar.hpp"
#include "support/error.hpp"
#include "vm/decode.hpp"
#include "vm/executor.hpp"

namespace care::vm {

using backend::MOp;
using backend::MType;
using ir::norm32;

RunResult Executor::runFast() {
  // Pick the loop variant by the instrumentation in effect; re-pick when
  // the instrumented variant returns after its injection fired (resuming
  // from the synced members).
  for (;;) {
    bool switchVariant = false;
    RunResult res = (profiling_ || injArmed_)
                        ? runFastImpl<true>(&switchVariant)
                        : runFastImpl<false>(&switchVariant);
    if (!switchVariant) return res;
  }
}

template <bool kInstrumented>
RunResult Executor::runFastImpl(bool* switchVariant) {
  const DecodedImage& dimg = image_->decoded();
  std::uint64_t* const g = st_.g;
  double* const f = st_.f;

  constexpr std::uint64_t kPageMask = Memory::kPageSize - 1;

  std::int32_t m = curModule_, fi = curFunc_;
  std::uint64_t ic = instrCount_;
  std::uint64_t bud = budget_;

  const DInst* code = nullptr;
  std::uint64_t codeSize = 0; // real instruction count (sentinel excluded)
  [[maybe_unused]] std::uint64_t* profRow = nullptr;
  [[maybe_unused]] const DInst* injPtr = nullptr; // armed target, else null
  const DInst* d = nullptr; // the instruction being executed
  TrapKind trapKind{};
  std::uint64_t trapAddr = 0;

// The helpers below are macros, not lambdas, on purpose: a by-reference
// closure would take the address of the hot locals (d, ic, bud, code) and
// force GCC to give them permanent stack homes, putting a store-forwarding
// round trip on the critical path of every instruction. As macros the
// locals stay in registers.

// (Re)load the per-function derived state after any control transfer.
// Callers position `d` themselves.
#define ENTER()                                                             \
  do {                                                                      \
    const DecodedFunction& df_ =                                            \
        dimg.funcs[static_cast<std::size_t>(m)][static_cast<std::size_t>(fi)]; \
    code = df_.code.data();                                                 \
    codeSize = df_.code.size() - 1; /* last slot is the OobGuard sentinel */ \
    if constexpr (kInstrumented) {                                          \
      profRow = profiling_ ? profile_[static_cast<std::size_t>(m)]          \
                                     [static_cast<std::size_t>(fi)]         \
                                         .data()                            \
                           : nullptr;                                       \
      injPtr = (injArmed_ && injLoc_.module == m && injLoc_.func == fi)     \
                   ? code + injLoc_.instr                                   \
                   : nullptr;                                               \
    }                                                                       \
  } while (0)

// Publish locals into the members hooks/checkpoints observe (the state
// the reference loop maintains continuously).
#define SYNC()                                                              \
  do {                                                                      \
    curModule_ = m;                                                         \
    curFunc_ = fi;                                                          \
    curInstr_ = static_cast<std::int32_t>(d - code);                        \
    fn_ = &image_->function({m, fi, 0});                                    \
    instrCount_ = ic;                                                       \
  } while (0)

// Re-read members after a hook ran: a Retry hook may have patched
// position, budget or instruction count (the reference loop re-reads
// members every iteration, so patched state takes effect there too).
#define RELOAD()                                                            \
  do {                                                                      \
    m = curModule_;                                                         \
    fi = curFunc_;                                                          \
    ic = instrCount_;                                                       \
    bud = budget_;                                                          \
    ENTER();                                                                \
    d = code + curInstr_;                                                   \
  } while (0)

// Injection callback boundary: the reference loop proceeds with its
// precomputed next position afterwards (position mutations by the
// callback are clobbered), so only count/budget/arming state reloads.
// `d` stays valid: the callback cannot move the position, so the
// function — and with it `code` — is unchanged. ENTER() disarms injPtr
// (and honors a callback that re-arms in-function).
#define FIRE_INJ()                                                          \
  do {                                                                      \
    if (++injSeen_ == injNth_) {                                            \
      injArmed_ = false;                                                    \
      SYNC();                                                               \
      injCb_(*this);                                                        \
      ic = instrCount_;                                                     \
      bud = budget_;                                                        \
      ENTER();                                                              \
    }                                                                       \
  } while (0)

// After FIRE_INJ: true when the injection fired and left nothing armed —
// the caller returns, and runFast() continues on the plain variant unless
// profiling, runJit() natively.
#define DISARMED() (!injArmed_)

#define EA(dd) ((dd).disp + g[(dd).base] + (g[(dd).index] << (dd).scale))

  // Handler table, indexed by DKind; order must match the enum exactly.
  static const void* const kDispatch[] = {
      &&L_Mov, &&L_MovImm, &&L_FMov, &&L_FMovImm,
      &&L_LoadI8, &&L_LoadI32, &&L_LoadI64, &&L_LoadF32, &&L_LoadF64,
      &&L_StoreI8, &&L_StoreI32, &&L_StoreI64, &&L_StoreF32, &&L_StoreF64,
      &&L_Lea,
      &&L_IAddRR, &&L_IAddRI, &&L_ISubRR, &&L_ISubRI, &&L_IMulRR, &&L_IMulRI,
      &&L_IDivRR, &&L_IDivRI, &&L_IRemRR, &&L_IRemRI,
      &&L_IAndRR, &&L_IAndRI, &&L_IOrRR, &&L_IOrRI, &&L_IXorRR, &&L_IXorRI,
      &&L_IShlRR, &&L_IShlRI, &&L_IAshrRR, &&L_IAshrRI,
      &&L_IAdd32RR, &&L_IAdd32RI, &&L_ISub32RR, &&L_ISub32RI,
      &&L_IMul32RR, &&L_IMul32RI,
      &&L_IAnd32RR, &&L_IAnd32RI, &&L_IOr32RR, &&L_IOr32RI,
      &&L_IXor32RR, &&L_IXor32RI,
      &&L_IShl32RR, &&L_IShl32RI, &&L_IAshr32RR, &&L_IAshr32RI,
      &&L_Sext32,
      &&L_IAluMem,
      &&L_FAdd, &&L_FSub, &&L_FMul, &&L_FDiv,
      &&L_FAluMem,
      &&L_CvtSiToF, &&L_CvtFToSi, &&L_CvtF32F64, &&L_CvtF64F32,
      &&L_SetEqRR, &&L_SetEqRI, &&L_SetNeRR, &&L_SetNeRI,
      &&L_SetLtRR, &&L_SetLtRI, &&L_SetLeRR, &&L_SetLeRI,
      &&L_SetGtRR, &&L_SetGtRI, &&L_SetGeRR, &&L_SetGeRI,
      &&L_FSetEq, &&L_FSetNe, &&L_FSetLt, &&L_FSetLe, &&L_FSetGt, &&L_FSetGe,
      &&L_BrEqRR, &&L_BrEqRI, &&L_BrNeRR, &&L_BrNeRI,
      &&L_BrLtRR, &&L_BrLtRI, &&L_BrLeRR, &&L_BrLeRI,
      &&L_BrGtRR, &&L_BrGtRI, &&L_BrGeRR, &&L_BrGeRI,
      &&L_FBrEq, &&L_FBrNe, &&L_FBrLt, &&L_FBrLe, &&L_FBrGt, &&L_FBrGe,
      &&L_Jmp,
      &&L_Call, &&L_Ret, &&L_MathCall,
      &&L_Emit, &&L_EmitI, &&L_Abort, &&L_Barrier, &&L_SentinelTrap,
      &&L_OobGuard,
  };

// Execute the instruction at `d`. Replicated into every handler via
// NEXT()/BR_TAKEN() — that replication is the token threading.
#define DISPATCH()                                                          \
  do {                                                                      \
    if (__builtin_expect(ic >= bud, 0)) goto budget_out;                    \
    ++ic;                                                                   \
    if constexpr (kInstrumented) {                                          \
      if (profRow) ++profRow[d - code];                                     \
    }                                                                       \
    goto* kDispatch[static_cast<int>(d->kind)];                             \
  } while (0)

// Completed-instruction epilogue: injection check (fires after the n-th
// completed execution of the target, reference-loop order: before any
// bounds check), then advance. `advance` is the epilogue's own
// range-check-and-commit, which a post-injection handoff must also run
// before publishing the next position.
#define INJ_CHECK(advance)                                                  \
  do {                                                                      \
    if constexpr (kInstrumented) {                                          \
      if (__builtin_expect(d == injPtr, 0)) {                               \
        FIRE_INJ();                                                          \
        if (DISARMED()) {                                                    \
          advance;                                                          \
          SYNC();                                                           \
          *switchVariant = true;                                            \
          return {};                                                        \
        }                                                                   \
      }                                                                     \
    }                                                                       \
  } while (0)

// Straight-line advance never needs a bounds check — one past the end is
// the OobGuard sentinel.
#define NEXT()                                                              \
  do {                                                                      \
    INJ_CHECK(++d);                                                         \
    ++d;                                                                    \
    DISPATCH();                                                             \
  } while (0)

// Taken-branch epilogue: the target may be an arbitrary decoded index, so
// it keeps the reference loop's range check — reported as BadPC at the
// *branch's* pc, not the target's. Not-taken falls through to NEXT(),
// giving each branch separate taken/not-taken dispatch sites.
#define BR_TAKEN()                                                          \
  do {                                                                      \
    const std::int64_t t = d->target;                                       \
    INJ_CHECK(if (static_cast<std::uint64_t>(t) >= codeSize) goto oob_pc;   \
              d = code + t);                                                \
    if (__builtin_expect(static_cast<std::uint64_t>(t) >= codeSize, 0))     \
      goto oob_pc;                                                          \
    d = code + t;                                                           \
    DISPATCH();                                                             \
  } while (0)

  ENTER();
  d = code + curInstr_;
  // Entry budget check (the reference loop's top-of-loop check). Doing it
  // here keeps budget_out reachable only after an in-run advance, which is
  // what lets it tell a fall-off-the-end BadPC from plain exhaustion.
  if (__builtin_expect(ic >= bud, 0)) {
    SYNC();
    return endRun(RunStatus::BudgetExceeded);
  }
  DISPATCH();

L_Mov:
  g[d->dst] = g[d->src1];
  NEXT();
L_MovImm:
  g[d->dst] = static_cast<std::uint64_t>(d->imm);
  NEXT();
L_FMov:
  f[d->dst] = f[d->src1];
  NEXT();
L_FMovImm:
  f[d->dst] = d->fimm;
  NEXT();

  // --- loads ----------------------------------------------------------------
// The one slow path of a memory handler. The inline path needs an aligned
// address on a page the software TLB hands out; readPage()/writePage()
// return null for an unmapped page and for a page holding a struck word.
// The typed accessor then finishes the access: it raises the exact trap
// (trapKindForMem: Bus, SegFault, EccUncorrectable) or checks, corrects
// and performs the access on that page.
#define MEM_TRAP(a, s)                                                      \
  do {                                                                      \
    trapKind = trapKindForMem(s);                                           \
    trapAddr = (a);                                                         \
    goto trapped;                                                           \
  } while (0)
#define SLOW_LOAD(fn, T, a, type, lvalue)                                   \
  do {                                                                      \
    T v_;                                                                   \
    const MemStatus s_ = mem_.fn((a), (type), v_);                          \
    if (s_ != MemStatus::Ok) MEM_TRAP(a, s_);                               \
    (lvalue) = v_;                                                          \
    NEXT();                                                                 \
  } while (0)
#define SLOW_STORE(fn, a, type, value)                                      \
  do {                                                                      \
    const MemStatus s_ = mem_.fn((a), (type), (value));                     \
    if (s_ != MemStatus::Ok) MEM_TRAP(a, s_);                               \
    NEXT();                                                                 \
  } while (0)
// Inline page translation of a naturally aligned access; null sends the
// handler down its slow path.
#define READ_PAGE(a, align)                                                 \
  (((a) & (align)) ? nullptr : mem_.readPage((a) >> Memory::kPageShift))
#define WRITE_PAGE(a, align)                                                \
  (((a) & (align)) ? nullptr : mem_.writePage((a) >> Memory::kPageShift))

L_LoadI8: {
  const std::uint64_t a = EA(*d);
  const std::uint8_t* p = READ_PAGE(a, 0);
  if (__builtin_expect(!p, 0))
    SLOW_LOAD(load, std::uint64_t, a, MType::I8, g[d->dst]);
  g[d->dst] = p[a & kPageMask];
  NEXT();
}
L_LoadI32: {
  const std::uint64_t a = EA(*d);
  const std::uint8_t* p = READ_PAGE(a, 3);
  if (__builtin_expect(!p, 0))
    SLOW_LOAD(load, std::uint64_t, a, MType::I32, g[d->dst]);
  std::int32_t v;
  std::memcpy(&v, p + (a & kPageMask), 4);
  g[d->dst] = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
  NEXT();
}
L_LoadI64: {
  const std::uint64_t a = EA(*d);
  const std::uint8_t* p = READ_PAGE(a, 7);
  if (__builtin_expect(!p, 0))
    SLOW_LOAD(load, std::uint64_t, a, MType::I64, g[d->dst]);
  std::uint64_t v;
  std::memcpy(&v, p + (a & kPageMask), 8);
  g[d->dst] = v;
  NEXT();
}
L_LoadF32: {
  const std::uint64_t a = EA(*d);
  const std::uint8_t* p = READ_PAGE(a, 3);
  if (__builtin_expect(!p, 0))
    SLOW_LOAD(loadF, double, a, MType::F32, f[d->dst]);
  float v;
  std::memcpy(&v, p + (a & kPageMask), 4);
  f[d->dst] = static_cast<double>(v);
  NEXT();
}
L_LoadF64: {
  const std::uint64_t a = EA(*d);
  const std::uint8_t* p = READ_PAGE(a, 7);
  if (__builtin_expect(!p, 0))
    SLOW_LOAD(loadF, double, a, MType::F64, f[d->dst]);
  std::memcpy(&f[d->dst], p + (a & kPageMask), 8);
  NEXT();
}

  // --- stores ---------------------------------------------------------------
L_StoreI8: {
  const std::uint64_t a = EA(*d);
  std::uint8_t* p = WRITE_PAGE(a, 0);
  if (__builtin_expect(!p, 0))
    SLOW_STORE(store, a, MType::I8, g[d->src1]);
  p[a & kPageMask] = static_cast<std::uint8_t>(g[d->src1]);
  NEXT();
}
L_StoreI32: {
  const std::uint64_t a = EA(*d);
  std::uint8_t* p = WRITE_PAGE(a, 3);
  if (__builtin_expect(!p, 0))
    SLOW_STORE(store, a, MType::I32, g[d->src1]);
  const std::uint32_t v = static_cast<std::uint32_t>(g[d->src1]);
  std::memcpy(p + (a & kPageMask), &v, 4);
  NEXT();
}
L_StoreI64: {
  const std::uint64_t a = EA(*d);
  std::uint8_t* p = WRITE_PAGE(a, 7);
  if (__builtin_expect(!p, 0))
    SLOW_STORE(store, a, MType::I64, g[d->src1]);
  std::memcpy(p + (a & kPageMask), &g[d->src1], 8);
  NEXT();
}
L_StoreF32: {
  const std::uint64_t a = EA(*d);
  std::uint8_t* p = WRITE_PAGE(a, 3);
  if (__builtin_expect(!p, 0))
    SLOW_STORE(storeF, a, MType::F32, f[d->src1]);
  const float v = static_cast<float>(f[d->src1]);
  std::memcpy(p + (a & kPageMask), &v, 4);
  NEXT();
}
L_StoreF64: {
  const std::uint64_t a = EA(*d);
  std::uint8_t* p = WRITE_PAGE(a, 7);
  if (__builtin_expect(!p, 0))
    SLOW_STORE(storeF, a, MType::F64, f[d->src1]);
  std::memcpy(p + (a & kPageMask), &f[d->src1], 8);
  NEXT();
}

L_Lea:
  g[d->dst] = EA(*d);
  NEXT();

  // --- int ALU: width folded into the opcode; 64-bit forms store the raw
  // result, 32-bit forms wrap through norm32 ----------------------------------
#define IALU64(label, expr)                                                 \
  label:                                                                    \
  g[d->dst] = (expr);                                                       \
  NEXT();
#define IALU32(label, expr)                                                 \
  label:                                                                    \
  g[d->dst] = norm32(expr);                                                 \
  NEXT();

  IALU64(L_IAddRR, g[d->src1] + g[d->src2])
  IALU64(L_IAddRI, g[d->src1] + static_cast<std::uint64_t>(d->imm))
  IALU64(L_ISubRR, g[d->src1] - g[d->src2])
  IALU64(L_ISubRI, g[d->src1] - static_cast<std::uint64_t>(d->imm))
  IALU64(L_IMulRR, g[d->src1] * g[d->src2])
  IALU64(L_IMulRI, g[d->src1] * static_cast<std::uint64_t>(d->imm))

#define IDIVREM(label, op, rhs)                                             \
  label: {                                                                  \
    std::uint64_t out;                                                      \
    if (!ir::evalIntBinary(op, g[d->src1], (rhs), d->sext != 0, out)) {     \
      trapKind = TrapKind::Fpe;                                             \
      trapAddr = 0;                                                         \
      goto trapped;                                                         \
    }                                                                       \
    g[d->dst] = out;                                                        \
    NEXT();                                                                 \
  }

  IDIVREM(L_IDivRR, ir::Opcode::SDiv, g[d->src2])
  IDIVREM(L_IDivRI, ir::Opcode::SDiv, static_cast<std::uint64_t>(d->imm))
  IDIVREM(L_IRemRR, ir::Opcode::SRem, g[d->src2])
  IDIVREM(L_IRemRI, ir::Opcode::SRem, static_cast<std::uint64_t>(d->imm))

  IALU64(L_IAndRR, g[d->src1] & g[d->src2])
  IALU64(L_IAndRI, g[d->src1] & static_cast<std::uint64_t>(d->imm))
  IALU64(L_IOrRR, g[d->src1] | g[d->src2])
  IALU64(L_IOrRI, g[d->src1] | static_cast<std::uint64_t>(d->imm))
  IALU64(L_IXorRR, g[d->src1] ^ g[d->src2])
  IALU64(L_IXorRI, g[d->src1] ^ static_cast<std::uint64_t>(d->imm))
  IALU64(L_IShlRR, g[d->src1] << (g[d->src2] & d->scale))
  IALU64(L_IShlRI,
         g[d->src1] << (static_cast<std::uint64_t>(d->imm) & d->scale))
  IALU64(L_IAshrRR,
         static_cast<std::uint64_t>(static_cast<std::int64_t>(g[d->src1]) >>
                                    (g[d->src2] & d->scale)))
  IALU64(L_IAshrRI,
         static_cast<std::uint64_t>(
             static_cast<std::int64_t>(g[d->src1]) >>
             (static_cast<std::uint64_t>(d->imm) & d->scale)))

  IALU32(L_IAdd32RR, g[d->src1] + g[d->src2])
  IALU32(L_IAdd32RI, g[d->src1] + static_cast<std::uint64_t>(d->imm))
  IALU32(L_ISub32RR, g[d->src1] - g[d->src2])
  IALU32(L_ISub32RI, g[d->src1] - static_cast<std::uint64_t>(d->imm))
  IALU32(L_IMul32RR, g[d->src1] * g[d->src2])
  IALU32(L_IMul32RI, g[d->src1] * static_cast<std::uint64_t>(d->imm))
  IALU32(L_IAnd32RR, g[d->src1] & g[d->src2])
  IALU32(L_IAnd32RI, g[d->src1] & static_cast<std::uint64_t>(d->imm))
  IALU32(L_IOr32RR, g[d->src1] | g[d->src2])
  IALU32(L_IOr32RI, g[d->src1] | static_cast<std::uint64_t>(d->imm))
  IALU32(L_IXor32RR, g[d->src1] ^ g[d->src2])
  IALU32(L_IXor32RI, g[d->src1] ^ static_cast<std::uint64_t>(d->imm))
  IALU32(L_IShl32RR, g[d->src1] << (g[d->src2] & d->scale))
  IALU32(L_IShl32RI,
         g[d->src1] << (static_cast<std::uint64_t>(d->imm) & d->scale))
  IALU32(L_IAshr32RR,
         static_cast<std::uint64_t>(static_cast<std::int64_t>(g[d->src1]) >>
                                    (g[d->src2] & d->scale)))
  IALU32(L_IAshr32RI,
         static_cast<std::uint64_t>(
             static_cast<std::int64_t>(g[d->src1]) >>
             (static_cast<std::uint64_t>(d->imm) & d->scale)))

L_Sext32:
  g[d->dst] = norm32(g[d->src1]);
  NEXT();
L_IAluMem: {
  // Hot in the sparse-matrix workloads (reg ⊕= mem folded ops) — the two
  // common widths take the same inline TLB path as the plain loads; I8
  // always takes the typed accessor.
  const std::uint64_t a = EA(*d);
  std::uint64_t v;
  const MType t = static_cast<MType>(d->memType);
  const std::uint8_t* p = t == MType::I32   ? READ_PAGE(a, 3)
                          : t == MType::I64 ? READ_PAGE(a, 7)
                                            : nullptr;
  if (__builtin_expect(!p, 0)) {
    const MemStatus s = mem_.load(a, d->memType, v);
    if (s != MemStatus::Ok) MEM_TRAP(a, s);
  } else if (t == MType::I32) {
    std::int32_t w;
    std::memcpy(&w, p + (a & kPageMask), 4);
    v = static_cast<std::uint64_t>(static_cast<std::int64_t>(w));
  } else {
    std::memcpy(&v, p + (a & kPageMask), 8);
  }
  std::uint64_t out;
  if (!ir::evalIntBinary(static_cast<ir::Opcode>(d->sub), g[d->src1], v,
                         d->sext != 0, out)) {
    trapKind = TrapKind::Fpe;
    trapAddr = 0;
    goto trapped;
  }
  g[d->dst] = out;
  NEXT();
}

  // --- FP ALU ---------------------------------------------------------------
#define FALU(label, op)                                                     \
  label: {                                                                  \
    double r = f[d->src1] op f[d->src2];                                    \
    if (d->sext) r = static_cast<double>(static_cast<float>(r));            \
    f[d->dst] = r;                                                          \
    NEXT();                                                                 \
  }

  FALU(L_FAdd, +)
  FALU(L_FSub, -)
  FALU(L_FMul, *)
  FALU(L_FDiv, /)

L_FAluMem: {
  const std::uint64_t a = EA(*d);
  double v;
  const MType t = static_cast<MType>(d->memType);
  const std::uint8_t* p = t == MType::F64   ? READ_PAGE(a, 7)
                          : t == MType::F32 ? READ_PAGE(a, 3)
                                            : nullptr;
  if (__builtin_expect(!p, 0)) {
    const MemStatus s = mem_.loadF(a, d->memType, v);
    if (s != MemStatus::Ok) MEM_TRAP(a, s);
  } else if (t == MType::F64) {
    std::memcpy(&v, p + (a & kPageMask), 8);
  } else {
    float w;
    std::memcpy(&w, p + (a & kPageMask), 4);
    v = static_cast<double>(w);
  }
  f[d->dst] = ir::evalFPBinary(static_cast<ir::Opcode>(d->sub), f[d->src1], v,
                               d->sext != 0);
  NEXT();
}

  // --- conversions ----------------------------------------------------------
L_CvtSiToF: {
  double r = static_cast<double>(static_cast<std::int64_t>(g[d->src1]));
  if (d->sext) r = static_cast<double>(static_cast<float>(r));
  f[d->dst] = r;
  NEXT();
}
L_CvtFToSi:
  g[d->dst] = ir::fpToSi(f[d->src1], d->sext != 0);
  NEXT();
L_CvtF32F64:
  f[d->dst] = f[d->src1];
  NEXT();
L_CvtF64F32:
  f[d->dst] = static_cast<double>(static_cast<float>(f[d->src1]));
  NEXT();

  // --- compares / branches (predicate folded into the opcode) -----------------
#define SETCMP(label, cmpop, rhs)                                           \
  label:                                                                    \
  g[d->dst] =                                                               \
      (static_cast<std::int64_t>(g[d->src1]) cmpop(rhs)) ? 1 : 0;           \
  NEXT();
#define BRCMP(label, cmpop, rhs)                                            \
  label:                                                                    \
  if (static_cast<std::int64_t>(g[d->src1]) cmpop(rhs)) BR_TAKEN();         \
  NEXT();
#define RR static_cast<std::int64_t>(g[d->src2])
#define RI d->imm

  SETCMP(L_SetEqRR, ==, RR) SETCMP(L_SetEqRI, ==, RI)
  SETCMP(L_SetNeRR, !=, RR) SETCMP(L_SetNeRI, !=, RI)
  SETCMP(L_SetLtRR, <, RR)  SETCMP(L_SetLtRI, <, RI)
  SETCMP(L_SetLeRR, <=, RR) SETCMP(L_SetLeRI, <=, RI)
  SETCMP(L_SetGtRR, >, RR)  SETCMP(L_SetGtRI, >, RI)
  SETCMP(L_SetGeRR, >=, RR) SETCMP(L_SetGeRI, >=, RI)

#define FSETCMP(label, cmpop)                                               \
  label:                                                                    \
  g[d->dst] = (f[d->src1] cmpop f[d->src2]) ? 1 : 0;                        \
  NEXT();
#define FBRCMP(label, cmpop)                                                \
  label:                                                                    \
  if (f[d->src1] cmpop f[d->src2]) BR_TAKEN();                              \
  NEXT();

  FSETCMP(L_FSetEq, ==) FSETCMP(L_FSetNe, !=)
  FSETCMP(L_FSetLt, <)  FSETCMP(L_FSetLe, <=)
  FSETCMP(L_FSetGt, >)  FSETCMP(L_FSetGe, >=)

  BRCMP(L_BrEqRR, ==, RR) BRCMP(L_BrEqRI, ==, RI)
  BRCMP(L_BrNeRR, !=, RR) BRCMP(L_BrNeRI, !=, RI)
  BRCMP(L_BrLtRR, <, RR)  BRCMP(L_BrLtRI, <, RI)
  BRCMP(L_BrLeRR, <=, RR) BRCMP(L_BrLeRI, <=, RI)
  BRCMP(L_BrGtRR, >, RR)  BRCMP(L_BrGtRI, >, RI)
  BRCMP(L_BrGeRR, >=, RR) BRCMP(L_BrGeRI, >=, RI)

  FBRCMP(L_FBrEq, ==) FBRCMP(L_FBrNe, !=)
  FBRCMP(L_FBrLt, <)  FBRCMP(L_FBrLe, <=)
  FBRCMP(L_FBrGt, >)  FBRCMP(L_FBrGe, >=)

L_Jmp:
  BR_TAKEN();

  // --- calls ------------------------------------------------------------------
L_Call: {
  const std::uint64_t newSP = g[backend::kSP] - 8;
  std::uint8_t* p = WRITE_PAGE(newSP, 7);
  if (__builtin_expect(!p, 0)) {
    const MemStatus s = mem_.store(newSP, MType::I64, d->retPC);
    if (s != MemStatus::Ok) MEM_TRAP(newSP, s);
  } else {
    std::memcpy(p + (newSP & kPageMask), &d->retPC, 8);
  }
  g[backend::kSP] = newSP;
  const CallRef callee = d->call;
  if constexpr (kInstrumented) {
    if (__builtin_expect(d == injPtr, 0)) {
      FIRE_INJ();
      if (DISARMED()) {
        curModule_ = callee.module;
        curFunc_ = callee.func;
        curInstr_ = 0;
        fn_ = &image_->function({curModule_, curFunc_, 0});
        instrCount_ = ic;
        *switchVariant = true;
        return {};
      }
    }
  }
  m = callee.module;
  fi = callee.func;
  ENTER();
  d = code;
  DISPATCH();
}
L_Ret: {
  const std::uint64_t sp = g[backend::kSP];
  std::uint64_t retPC;
  const std::uint8_t* p = READ_PAGE(sp, 7);
  if (__builtin_expect(!p, 0)) {
    const MemStatus s = mem_.load(sp, MType::I64, retPC);
    if (s != MemStatus::Ok) MEM_TRAP(sp, s);
  } else {
    std::memcpy(&retPC, p + (sp & kPageMask), 8);
  }
  g[backend::kSP] = sp + 8;
  if (retPC == Image::kHaltPC) {
    SYNC();
    return endRun(RunStatus::Done);
  }
  bool disarmed = false;
  if constexpr (kInstrumented) {
    if (__builtin_expect(d == injPtr, 0)) {
      FIRE_INJ();
      disarmed = DISARMED();
    }
  }
  const CodeLoc loc = image_->locate(retPC);
  if (!loc.valid()) {
    // A wild return address is not recoverable by CARE.
    SYNC();
    return endAtLostReturn(retPC);
  }
  if (disarmed) {
    curModule_ = loc.module;
    curFunc_ = loc.func;
    curInstr_ = loc.instr;
    fn_ = &image_->function({loc.module, loc.func, 0});
    instrCount_ = ic;
    *switchVariant = true;
    return {};
  }
  m = loc.module;
  fi = loc.func;
  ENTER();
  d = code + loc.instr;
  DISPATCH();
}
L_MathCall:
  f[d->dst] = ir::evalMathFn(static_cast<ir::MathFn>(d->sub), f[d->src1],
                             d->src2 != backend::kNoReg ? f[d->src2] : 0.0);
  NEXT();

  // --- runtime services -------------------------------------------------------
L_Emit: {
  std::uint64_t bits;
  static_assert(sizeof(double) == 8);
  std::memcpy(&bits, &f[d->src1], 8);
  output_.push_back(bits);
  NEXT();
}
L_EmitI:
  output_.push_back(g[d->src1]);
  NEXT();
L_Abort:
  trapKind = TrapKind::Abort;
  trapAddr = 0;
  goto trapped;
L_SentinelTrap:
  trapKind = TrapKind::Sentinel;
  trapAddr = 0;
  goto trapped;
L_Barrier:
  // Yield to the harness; resuming run() continues after the barrier.
  ++d;
  SYNC();
  return endRun(RunStatus::Yielded);

L_OobGuard:
  // Fell off the end of the function onto the sentinel: roll back the
  // fetch bookkeeping (this was not an executed instruction) and report
  // exactly what the reference loop's bounds check reports — BadPC at the
  // instruction we fell past.
  --ic;
  if constexpr (kInstrumented) {
    if (profRow) --profRow[d - code];
  }
  --d;
  goto oob_pc;

budget_out:
  // Reaching the sentinel index and an exhausted budget in the same step:
  // the reference loop's bounds check sits between the last execution and
  // its next budget check, so BadPC wins.
  if (__builtin_expect(d == code + codeSize, 0)) {
    --d;
    goto oob_pc;
  }
  SYNC();
  return endRun(RunStatus::BudgetExceeded);

oob_pc:
  // Fell or branched past the end of the function (same-function control
  // only; a wild *cross*-function PC is the Ret path above). No hook: the
  // reference loop treats this as an unobservable internal BadPC too.
  SYNC();
  return endRun(RunStatus::Trapped, Trap{TrapKind::BadPC, currentPC(), 0});

trapped:
  SYNC();
  {
    const Trap trap{trapKind, currentPC(), trapAddr};
    if (deliverTrap(trap)) {
      RELOAD();
      DISPATCH(); // re-execute, state patched
    }
    return endRun(RunStatus::Trapped, trap);
  }

#undef MEM_TRAP
#undef SLOW_LOAD
#undef SLOW_STORE
#undef READ_PAGE
#undef WRITE_PAGE
#undef DISPATCH
#undef NEXT
#undef BR_TAKEN
#undef INJ_CHECK
#undef IALU64
#undef IALU32
#undef IDIVREM
#undef FALU
#undef SETCMP
#undef BRCMP
#undef FSETCMP
#undef FBRCMP
#undef RR
#undef RI
#undef ENTER
#undef SYNC
#undef RELOAD
#undef FIRE_INJ
#undef DISARMED
#undef EA
}

template RunResult Executor::runFastImpl<true>(bool*);
template RunResult Executor::runFastImpl<false>(bool*);

} // namespace care::vm
