// x86-64 template emitter + per-function compiler for the baseline JIT.
// See jit.hpp for the contract. Register convention inside emitted code
// (all callee-saved in the SysV ABI, so C++ helpers preserve them):
//   r15 = JitContext*        rbx = &g[0] (integer registers)
//   r13 = &f[0] (FP regs)    r14 = absolute instruction counter
//   r12 = read-TLB base      rbp = write-TLB base
// rax/rcx/rdx/rsi/rdi/r8-r11 and all xmm are template-local scratch.
// The host stack stays 16-aligned between templates (entry thunk: 6
// pushes + sub rsp,8), so templates may `call` C++ helpers directly.
#include "vm/jit.hpp"

#include <sys/mman.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <type_traits>

#include "vm/exec_common.hpp"
#include "vm/executor.hpp"
#include "vm/loader.hpp"
#include "vm/memory.hpp"

namespace care::vm {

namespace {

// ---- host capability probe ------------------------------------------------

bool probeExecMmap() {
  void* p = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return false;
  const bool ok = ::mprotect(p, 4096, PROT_READ | PROT_EXEC) == 0;
  ::munmap(p, 4096);
  return ok;
}

} // namespace

bool jitAvailable() {
  static const bool ok = probeExecMmap();
  return ok;
}

namespace {
std::once_flag gWarnJitOnce;
std::atomic<int> gWarnJitCount{0};
} // namespace

bool warnJitUnavailableOnce() {
  bool emitted = false;
  std::call_once(gWarnJitOnce, [&emitted] {
    std::fprintf(stderr,
                 "[care] jit: executable mappings unavailable; falling "
                 "back to the fast interpreter\n");
    gWarnJitCount.fetch_add(1, std::memory_order_relaxed);
    emitted = true;
  });
  return emitted;
}

int jitUnavailableWarnCount() {
  return gWarnJitCount.load(std::memory_order_relaxed);
}

// ---- runtime helpers called from emitted code ------------------------------

extern "C" {

const std::uint8_t* careJitReadMiss(Memory* mem, std::uint64_t pageNo) {
  return mem->readPage(pageNo);
}

std::uint8_t* careJitWriteMiss(Memory* mem, std::uint64_t pageNo) {
  return mem->writePage(pageNo);
}

void careJitEmit(JitContext* ctx, std::uint64_t bits) {
  ctx->output->push_back(bits);
}

double careJitMath(int fn, double a, double b) {
  return backend::evalMathFn(static_cast<backend::MathFn>(fn), a, b);
}

} // extern "C"

// Defined after JitImage's internals; forward-declared here so call
// templates can take its address.
const void* jitResolveRet(JitContext* ctx, std::uint64_t pc);

namespace {

// ---- JitContext field offsets (standard layout, asserted) ------------------

static_assert(std::is_standard_layout_v<JitContext>);
// The inline translation sequence compares .pageNo and loads .data at +8.
static_assert(sizeof(Memory::TlbEntry) == 16);
static_assert(offsetof(Memory::TlbEntry, data) == 8);
static_assert((Memory::kTlbEntries & (Memory::kTlbEntries - 1)) == 0);
constexpr std::int32_t kOffG = offsetof(JitContext, g);
constexpr std::int32_t kOffF = offsetof(JitContext, f);
constexpr std::int32_t kOffReadTlb = offsetof(JitContext, readTlb);
constexpr std::int32_t kOffWriteTlb = offsetof(JitContext, writeTlb);
constexpr std::int32_t kOffMem = offsetof(JitContext, mem);
constexpr std::int32_t kOffIc = offsetof(JitContext, ic);
constexpr std::int32_t kOffBudget = offsetof(JitContext, budget);
constexpr std::int32_t kOffTrapAddr = offsetof(JitContext, trapAddr);
constexpr std::int32_t kOffScratch = offsetof(JitContext, scratch);
constexpr std::int32_t kOffExitKind = offsetof(JitContext, exitKind);
constexpr std::int32_t kOffTrapKind = offsetof(JitContext, trapKind);
constexpr std::int32_t kOffModule = offsetof(JitContext, module);
constexpr std::int32_t kOffFunc = offsetof(JitContext, func);
constexpr std::int32_t kOffInstr = offsetof(JitContext, instr);

// ---- host registers --------------------------------------------------------

enum Reg {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};
constexpr int kCtx = R15, kG = RBX, kF = R13, kIc = R14;
constexpr int kRTlb = R12, kWTlb = RBP;

// Condition codes (low nibble of 0F 8x / 0F 9x).
enum Cc {
  CcB = 0x2, CcAE = 0x3, CcE = 0x4, CcNE = 0x5, CcBE = 0x6, CcA = 0x7,
  CcP = 0xA, CcNP = 0xB, CcL = 0xC, CcGE = 0xD, CcLE = 0xE, CcG = 0xF,
};

// ---- a tiny one-pass assembler with labels ---------------------------------

struct Asm {
  std::vector<std::uint8_t> b;
  struct Fix { std::size_t at; int label; };
  std::vector<Fix> fixes;
  std::vector<std::int64_t> labels; // -1 = unbound

  std::size_t off() const { return b.size(); }
  int newLabel() { labels.push_back(-1); return static_cast<int>(labels.size()) - 1; }
  void bind(int l) { labels[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(off()); }
  bool resolve() {
    for (const Fix& fx : fixes) {
      const std::int64_t t = labels[static_cast<std::size_t>(fx.label)];
      if (t < 0) return false;
      const std::int64_t rel = t - static_cast<std::int64_t>(fx.at) - 4;
      std::int32_t r32 = static_cast<std::int32_t>(rel);
      std::memcpy(&b[fx.at], &r32, 4);
    }
    return true;
  }

  void u8(std::uint8_t v) { b.push_back(v); }
  void u32(std::uint32_t v) { for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i))); }
  void u64(std::uint64_t v) { for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i))); }

  void rex(bool w, int r, int x, int bse) {
    const std::uint8_t v = static_cast<std::uint8_t>(
        0x40 | (w ? 8 : 0) | ((r >> 3) << 2) | ((x >> 3) << 1) | (bse >> 3));
    if (v != 0x40) u8(v);
  }
  void rexW(int r, int x, int bse) {
    u8(static_cast<std::uint8_t>(0x48 | ((r >> 3) << 2) | ((x >> 3) << 1) |
                                 (bse >> 3)));
  }
  void modrm(int mod, int reg, int rm) {
    u8(static_cast<std::uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7)));
  }
  // [base + disp], no index. Handles the rsp/r12 SIB and rbp/r13 disp rules.
  void mem(int reg, int base, std::int32_t disp) {
    const int b7 = base & 7;
    const bool needSib = b7 == 4;
    const bool noDisp0 = b7 == 5; // rbp/r13 cannot use mod 00
    if (disp == 0 && !noDisp0) {
      modrm(0, reg, b7);
      if (needSib) u8(0x24);
    } else if (disp >= -128 && disp <= 127) {
      modrm(1, reg, b7);
      if (needSib) u8(0x24);
      u8(static_cast<std::uint8_t>(disp));
    } else {
      modrm(2, reg, b7);
      if (needSib) u8(0x24);
      u32(static_cast<std::uint32_t>(disp));
    }
  }
  // [base + index*1], disp 0 (disp8 0 when base is rbp/r13).
  void memSib(int reg, int base, int index) {
    const int b7 = base & 7;
    if (b7 == 5) {
      modrm(1, reg, 4);
      u8(static_cast<std::uint8_t>((index & 7) << 3 | b7));
      u8(0);
    } else {
      modrm(0, reg, 4);
      u8(static_cast<std::uint8_t>((index & 7) << 3 | b7));
    }
  }

  // --- moves ---
  void movRR(int dst, int src) { rexW(dst, 0, src); u8(0x8B); modrm(3, dst, src); }
  void movRM(int dst, int base, std::int32_t d) { rexW(dst, 0, base); u8(0x8B); mem(dst, base, d); }
  void movMR(int base, std::int32_t d, int src) { rexW(src, 0, base); u8(0x89); mem(src, base, d); }
  void movRM32(int dst, int base, std::int32_t d) { rex(false, dst, 0, base); u8(0x8B); mem(dst, base, d); }
  void movMR32(int base, std::int32_t d, int src) { rex(false, src, 0, base); u8(0x89); mem(src, base, d); }
  void movsxdRM(int dst, int base, std::int32_t d) { rexW(dst, 0, base); u8(0x63); mem(dst, base, d); }
  void movsxdRR(int dst, int src) { rexW(dst, 0, src); u8(0x63); modrm(3, dst, src); }
  void movzx8RR(int dst, int src8) { rex(false, dst, 0, src8); u8(0x0F); u8(0xB6); modrm(3, dst, src8); }
  void movImm64(int dst, std::uint64_t v) {
    const std::int64_t sv = static_cast<std::int64_t>(v);
    if (sv >= INT32_MIN && sv <= INT32_MAX) {
      rexW(0, 0, dst); u8(0xC7); modrm(3, 0, dst); u32(static_cast<std::uint32_t>(v));
    } else {
      rexW(0, 0, dst); u8(0xB8 + (dst & 7)); u64(v);
    }
  }
  void movImm32(int dst, std::uint32_t v) { rex(false, 0, 0, dst); u8(0xB8 + (dst & 7)); u32(v); }
  // mov dword [base+disp], imm32
  void movMImm32(int base, std::int32_t d, std::uint32_t v) {
    rex(false, 0, 0, base); u8(0xC7); mem(0, base, d); u32(v);
  }
  // mov qword [base+disp], imm32 (sign-extended)
  void movMImm64(int base, std::int32_t d, std::int32_t v) {
    rexW(0, 0, base); u8(0xC7); mem(0, base, d); u32(static_cast<std::uint32_t>(v));
  }

  // --- integer ALU (reg-reg / reg-mem); opc is the r64,r/m64 form ---
  void aluRR(std::uint8_t opc, int dst, int src, bool w = true) {
    rex(w, dst, 0, src); u8(opc); modrm(3, dst, src);
  }
  void aluRM(std::uint8_t opc, int dst, int base, std::int32_t d, bool w = true) {
    rex(w, dst, 0, base); u8(opc); mem(dst, base, d);
  }
  void addRR(int d, int s, bool w = true) { aluRR(0x03, d, s, w); }
  void subRR(int d, int s, bool w = true) { aluRR(0x2B, d, s, w); }
  void andRR(int d, int s, bool w = true) { aluRR(0x23, d, s, w); }
  void orRR(int d, int s, bool w = true) { aluRR(0x0B, d, s, w); }
  void xorRR(int d, int s, bool w = true) { aluRR(0x33, d, s, w); }
  void cmpRR(int a, int bb, bool w = true) { aluRR(0x3B, a, bb, w); }
  void cmpRM(int a, int base, std::int32_t d, bool w = true) { aluRM(0x3B, a, base, d, w); }
  void imulRR(int d, int s, bool w = true) {
    rex(w, d, 0, s); u8(0x0F); u8(0xAF); modrm(3, d, s);
  }
  void testRR(int a, int bb, bool w = true) { rex(w, bb, 0, a); u8(0x85); modrm(3, bb, a); }
  // group-1 ALU with imm: ext 0=add 4=and 5=sub 7=cmp
  void aluImm(int ext, int reg, std::int32_t v, bool w = true) {
    if (v >= -128 && v <= 127) {
      rex(w, 0, 0, reg); u8(0x83); modrm(3, ext, reg); u8(static_cast<std::uint8_t>(v));
    } else {
      rex(w, 0, 0, reg); u8(0x81); modrm(3, ext, reg); u32(static_cast<std::uint32_t>(v));
    }
  }
  void addImm(int r, std::int32_t v, bool w = true) { aluImm(0, r, v, w); }
  void andImm(int r, std::int32_t v, bool w = true) { aluImm(4, r, v, w); }
  void cmpImm(int r, std::int32_t v, bool w = true) { aluImm(7, r, v, w); }
  void testImm32(int r, std::uint32_t v) { // test r32, imm32
    rex(false, 0, 0, r); u8(0xF7); modrm(3, 0, r); u32(v);
  }
  // shifts: ext 4=shl 7=sar
  void shiftCl(int ext, int reg, bool w = true) { rex(w, 0, 0, reg); u8(0xD3); modrm(3, ext, reg); }
  void shiftImm(int ext, int reg, std::uint8_t n, bool w = true) {
    rex(w, 0, 0, reg); u8(0xC1); modrm(3, ext, reg); u8(n);
  }
  void incR(int reg) { rexW(0, 0, reg); u8(0xFF); modrm(3, 0, reg); }
  void negR(int reg, bool w = true) { rex(w, 0, 0, reg); u8(0xF7); modrm(3, 3, reg); }
  void cqo() { u8(0x48); u8(0x99); }
  void cdq() { u8(0x99); }
  void idivR(int reg, bool w = true) { rex(w, 0, 0, reg); u8(0xF7); modrm(3, 7, reg); }
  void leaRM(int dst, int base, std::int32_t d) { rexW(dst, 0, base); u8(0x8D); mem(dst, base, d); }

  // --- control ---
  std::size_t jcc(int cc) { u8(0x0F); u8(static_cast<std::uint8_t>(0x80 | cc)); const std::size_t at = off(); u32(0); return at; }
  std::size_t jmp() { u8(0xE9); const std::size_t at = off(); u32(0); return at; }
  void jccTo(int cc, int label) { fixes.push_back({jcc(cc), label}); }
  void jmpTo(int label) { fixes.push_back({jmp(), label}); }
  void callR(int reg) { rex(false, 0, 0, reg); u8(0xFF); modrm(3, 2, reg); }
  void jmpR(int reg) { rex(false, 0, 0, reg); u8(0xFF); modrm(3, 4, reg); }
  void setcc(int cc, int reg8) { rex(false, 0, 0, reg8); u8(0x0F); u8(static_cast<std::uint8_t>(0x90 | cc)); modrm(3, 0, reg8); }
  void and8RR(int dst8, int src8) { u8(0x20); modrm(3, src8, dst8); } // and r/m8, r8 (al/cl only)
  void or8RR(int dst8, int src8) { u8(0x08); modrm(3, src8, dst8); }
  void pushR(int reg) { rex(false, 0, 0, reg); u8(0x50 + (reg & 7)); }
  void popR(int reg) { rex(false, 0, 0, reg); u8(0x58 + (reg & 7)); }
  void ret() { u8(0xC3); }

  // --- SSE scalar double/float ---
  void sse(std::uint8_t pfx, std::uint8_t opc, int xreg, int rm, bool reg2reg,
           int base = 0, std::int32_t d = 0) {
    if (pfx) u8(pfx);
    if (reg2reg) { rex(false, xreg, 0, rm); u8(0x0F); u8(opc); modrm(3, xreg, rm); }
    else { rex(false, xreg, 0, base); u8(0x0F); u8(opc); mem(xreg, base, d); }
  }
  void movsdXM(int x, int base, std::int32_t d) { sse(0xF2, 0x10, x, 0, false, base, d); }
  void movsdMX(int base, std::int32_t d, int x) { sse(0xF2, 0x11, x, 0, false, base, d); }
  void movssXM(int x, int base, std::int32_t d) { sse(0xF3, 0x10, x, 0, false, base, d); }
  void movssMX(int base, std::int32_t d, int x) { sse(0xF3, 0x11, x, 0, false, base, d); }
  // [base + index*1] forms for page-relative FP access
  void sseSib(std::uint8_t pfx, std::uint8_t opc, int x, int base, int index) {
    u8(pfx); rex(false, x, index, base); u8(0x0F); u8(opc); memSib(x, base, index);
  }
  void fopXX(std::uint8_t opc, int dst, int src) { sse(0xF2, opc, dst, src, true); } // 58/5C/59/5E
  void ucomisdXX(int a, int bb) { u8(0x66); rex(false, a, 0, bb); u8(0x0F); u8(0x2E); modrm(3, a, bb); }
  void cvtsd2ss(int d, int s) { sse(0xF2, 0x5A, d, s, true); }
  void cvtss2sd(int d, int s) { sse(0xF3, 0x5A, d, s, true); }
  void cvtsi2sdXR(int x, int r) { u8(0xF2); rexW(x, 0, r); u8(0x0F); u8(0x2A); modrm(3, x, r); }
  void cvttsd2siRX(int r, int x) { u8(0xF2); rexW(r, 0, x); u8(0x0F); u8(0x2C); modrm(3, r, x); }
  void xorpsXX(int d, int s) { rex(false, d, 0, s); u8(0x0F); u8(0x57); modrm(3, d, s); }
};

} // namespace
} // namespace care::vm

namespace care::vm {
namespace {

using backend::MOp;
using backend::MType;

// Extra addressing forms ([base + index] with small disp) used by the page
// and TLB access sequences.
void memSibD(Asm& a, int reg, int base, int index, std::int32_t disp) {
  const int b7 = base & 7;
  const std::uint8_t sib =
      static_cast<std::uint8_t>(((index & 7) << 3) | b7);
  if (disp == 0 && b7 != 5) {
    a.modrm(0, reg, 4);
    a.u8(sib);
  } else if (disp >= -128 && disp <= 127) {
    a.modrm(1, reg, 4);
    a.u8(sib);
    a.u8(static_cast<std::uint8_t>(disp));
  } else {
    a.modrm(2, reg, 4);
    a.u8(sib);
    a.u32(static_cast<std::uint32_t>(disp));
  }
}
void movRR32(Asm& a, int dst, int src) {
  a.rex(false, dst, 0, src); a.u8(0x8B); a.modrm(3, dst, src);
}
void cmpRSib(Asm& a, int reg, int base, int index) {
  a.rexW(reg, index, base); a.u8(0x3B); memSibD(a, reg, base, index, 0);
}
void movRSib(Asm& a, int dst, int base, int index, std::int32_t disp) {
  a.rexW(dst, index, base); a.u8(0x8B); memSibD(a, dst, base, index, disp);
}
void movSibR(Asm& a, int base, int index, std::int32_t disp, int src) {
  a.rexW(src, index, base); a.u8(0x89); memSibD(a, src, base, index, disp);
}
void movSibR32(Asm& a, int base, int index, int src) {
  a.rex(false, src, index, base); a.u8(0x89); memSibD(a, src, base, index, 0);
}
void movsxdRSib(Asm& a, int dst, int base, int index) {
  a.rexW(dst, index, base); a.u8(0x63); memSibD(a, dst, base, index, 0);
}
void movzx8RSib(Asm& a, int dst, int base, int index) {
  a.rex(false, dst, index, base); a.u8(0x0F); a.u8(0xB6);
  memSibD(a, dst, base, index, 0);
}
void mov8SibR(Asm& a, int base, int index, int src8) {
  a.rex(false, src8, index, base); a.u8(0x88); memSibD(a, src8, base, index, 0);
}

bool isEnder(DKind k) {
  return (k >= DKind::BrEqRR && k <= DKind::FBrGe) || k == DKind::Jmp ||
         k == DKind::Call || k == DKind::Ret || k == DKind::Barrier ||
         k == DKind::Abort || k == DKind::SentinelTrap;
}
bool hasTarget(DKind k) {
  return (k >= DKind::BrEqRR && k <= DKind::FBrGe) || k == DKind::Jmp;
}
// Ops the templates do not cover: the driver single-steps these in the
// interpreter (ColdOp exit). All are rare fused forms.
bool isColdInst(const DInst& d) {
  const MOp op = static_cast<MOp>(d.sub);
  if (d.kind == DKind::IAluMem) {
    if (d.memType != MType::I32 && d.memType != MType::I64) return true;
    return !(op == MOp::IAdd || op == MOp::ISub || op == MOp::IMul ||
             op == MOp::IAnd || op == MOp::IOr || op == MOp::IXor);
  }
  if (d.kind == DKind::FAluMem) {
    if (d.memType != MType::F32 && d.memType != MType::F64) return true;
    return !(op == MOp::FAdd || op == MOp::FSub || op == MOp::FMul ||
             op == MOp::FDiv);
  }
  return false;
}

struct FnArtifact {
  std::vector<std::uint8_t> code;
  std::vector<std::uint32_t> instrOff;
  std::vector<std::uint32_t> suffixLen;
  bool ok = false;
};

// Compiles one decoded function. Layout: hot templates in instruction
// order (leaders prefixed by their block budget check), then the cold
// stubs (trap materialization, TLB misses, deopts), then the shared
// per-function exit tails and the trampoline to the common exit thunk.
class FnCompiler {
public:
  FnCompiler(const DecodedFunction& df, std::int32_t m, std::int32_t f,
             const std::vector<std::vector<std::atomic<const void*>>>& slots,
             const void* commonExit)
      : code_(df.code.data()),
        n_(df.code.size() - 1), // exclude the OobGuard sentinel
        m_(m), f_(f), slots_(slots), commonExit_(commonExit) {}

  FnArtifact run() {
    FnArtifact art;
    if (n_ == 0) return art; // nothing to enter; interpret
    computeBlocks();
    instrLbl_.resize(n_);
    for (std::size_t j = 0; j < n_; ++j) instrLbl_[j] = a_.newLabel();
    trampLbl_ = a_.newLabel();
    for (int& l : exitLbl_) l = -1;
    art.instrOff.resize(n_);
    for (std::size_t j = 0; j < n_; ++j) {
      if (leader_[j]) {
        a_.bind(instrLbl_[j]);
        emitBlockCheck(static_cast<std::int32_t>(j));
      }
      art.instrOff[j] = static_cast<std::uint32_t>(a_.off());
      if (!emitInstr(static_cast<std::int32_t>(j))) return art;
    }
    // Fell off the end: the reference loop reports BadPC at the last
    // executed instruction, hook-invisible.
    a_.movMImm32(kCtx, kOffInstr, static_cast<std::uint32_t>(n_ - 1));
    a_.jmpTo(exitLabel(JitExit::BadPCInternal));
    // Index loop with a copy: a cold stub may register further stubs (the
    // TLB miss path registers its SegFault trap), growing cold_ under us.
    for (std::size_t i = 0; i < cold_.size(); ++i) {
      const std::function<void()> emitCold = cold_[i];
      emitCold();
    }
    emitExitTails();
    if (!a_.resolve()) return art;
    art.code = std::move(a_.b);
    art.suffixLen = std::move(suffix_);
    art.ok = true;
    return art;
  }

private:
  const DInst* code_;
  std::size_t n_;
  std::int32_t m_, f_;
  const std::vector<std::vector<std::atomic<const void*>>>& slots_;
  const void* commonExit_;
  Asm a_;
  std::vector<bool> leader_;
  std::vector<std::uint32_t> suffix_;
  std::vector<int> instrLbl_;
  std::vector<std::function<void()>> cold_;
  int exitLbl_[8];
  int trampLbl_ = -1;

  const DInst& at(std::int32_t j) const { return code_[j]; }

  void computeBlocks() {
    leader_.assign(n_, false);
    leader_[0] = true;
    for (std::size_t j = 0; j < n_; ++j) {
      const DInst& d = code_[j];
      if (hasTarget(d.kind) && d.target >= 0 &&
          static_cast<std::size_t>(d.target) < n_)
        leader_[static_cast<std::size_t>(d.target)] = true;
      if (isEnder(d.kind) && j + 1 < n_) leader_[j + 1] = true;
    }
    suffix_.assign(n_, 1);
    for (std::size_t j = n_; j-- > 0;)
      suffix_[j] = (j + 1 == n_ || leader_[j + 1]) ? 1 : suffix_[j + 1] + 1;
  }

  int exitLabel(JitExit k) {
    int& l = exitLbl_[static_cast<int>(k)];
    if (l < 0) l = a_.newLabel();
    return l;
  }

  void emitExitTails() {
    for (int k = 0; k < 8; ++k) {
      if (exitLbl_[k] < 0) continue;
      a_.bind(exitLbl_[k]);
      a_.movMImm32(kCtx, kOffModule, static_cast<std::uint32_t>(m_));
      a_.movMImm32(kCtx, kOffFunc, static_cast<std::uint32_t>(f_));
      a_.movMImm32(kCtx, kOffExitKind, static_cast<std::uint32_t>(k));
      a_.jmpTo(trampLbl_);
    }
    a_.bind(trampLbl_);
    a_.movImm64(R11, reinterpret_cast<std::uint64_t>(commonExit_));
    a_.jmpR(R11);
  }

  // Block-entry budget check: enter only if every instruction of the block
  // still fits; otherwise deopt so the interpreter stops on the exact
  // boundary.
  void emitBlockCheck(std::int32_t j) {
    a_.leaRM(RAX, kIc, static_cast<std::int32_t>(suffix_[j]));
    a_.cmpRM(RAX, kCtx, kOffBudget);
    const int deopt = a_.newLabel();
    a_.jccTo(CcA, deopt);
    cold_.push_back([this, deopt, j] {
      a_.bind(deopt);
      a_.movMImm32(kCtx, kOffInstr, static_cast<std::uint32_t>(j));
      a_.jmpTo(exitLabel(JitExit::Deopt));
    });
  }

  enum class TrapAddrFrom { Rsi, Scratch, Zero };

  int coldTrap(std::int32_t j, TrapKind kind, TrapAddrFrom am) {
    const int l = a_.newLabel();
    cold_.push_back([this, l, j, kind, am] {
      a_.bind(l);
      if (am == TrapAddrFrom::Rsi) {
        a_.movMR(kCtx, kOffTrapAddr, RSI);
      } else if (am == TrapAddrFrom::Scratch) {
        a_.movRM(RAX, kCtx, kOffScratch);
        a_.movMR(kCtx, kOffTrapAddr, RAX);
      } else {
        a_.movMImm64(kCtx, kOffTrapAddr, 0);
      }
      a_.movMImm32(kCtx, kOffTrapKind, static_cast<std::uint32_t>(kind));
      a_.movMImm32(kCtx, kOffInstr, static_cast<std::uint32_t>(j));
      a_.jmpTo(exitLabel(JitExit::Trap));
    });
    return l;
  }

  // EA -> RSI (clobbers RAX). disp + g[base] + (g[index] << scale), always
  // reading both register slots like the interpreter does.
  void emitEA(const DInst& d) {
    a_.movRM(RSI, kG, 8 * d.base);
    a_.movRM(RAX, kG, 8 * d.index);
    if (d.scale) a_.shiftImm(4, RAX, static_cast<std::uint8_t>(d.scale));
    a_.addRR(RSI, RAX);
    if (d.disp) {
      const std::int64_t sd = static_cast<std::int64_t>(d.disp);
      if (sd >= INT32_MIN && sd <= INT32_MAX) {
        a_.addImm(RSI, static_cast<std::int32_t>(sd));
      } else {
        a_.movImm64(RAX, d.disp);
        a_.addRR(RSI, RAX);
      }
    }
  }

  void emitAlignCheck(std::int32_t j, std::uint32_t mask) {
    if (!mask) return;
    a_.testImm32(RSI, mask);
    a_.jccTo(CcNE, coldTrap(j, TrapKind::Bus, TrapAddrFrom::Rsi));
  }

  // Page translation through the software TLB. In: EA in RSI. Out: page
  // backing store in RDX, RSI preserved. The miss path spills the EA, calls
  // the Memory miss handler (which refills the TLB) and either resumes or
  // surfaces the interpreter-identical SegFault.
  void emitTlb(std::int32_t j, bool write) {
    const int tlbBase = write ? kWTlb : kRTlb;
    const std::uint64_t helper = reinterpret_cast<std::uint64_t>(
        write ? reinterpret_cast<void*>(&careJitWriteMiss)
              : reinterpret_cast<void*>(&careJitReadMiss));
    a_.movRR(RCX, RSI);
    a_.shiftImm(5, RCX, 12); // shr: page number
    a_.movRR(RDX, RCX);
    a_.andImm(RDX, static_cast<std::int32_t>(Memory::kTlbEntries - 1));
    a_.shiftImm(4, RDX, 4); // *16 = sizeof(TlbEntry)
    cmpRSib(a_, RCX, tlbBase, RDX);
    const int miss = a_.newLabel();
    const int resume = a_.newLabel();
    a_.jccTo(CcNE, miss);
    movRSib(a_, RDX, tlbBase, RDX, 8); // TlbEntry.data
    a_.bind(resume);
    cold_.push_back([this, miss, resume, j, helper] {
      a_.bind(miss);
      a_.movMR(kCtx, kOffScratch, RSI);
      a_.movRM(RDI, kCtx, kOffMem);
      a_.movRR(RSI, RCX);
      a_.movImm64(RAX, helper);
      a_.callR(RAX);
      a_.testRR(RAX, RAX);
      a_.jccTo(CcE, coldTrap(j, TrapKind::SegFault, TrapAddrFrom::Scratch));
      a_.movRR(RDX, RAX);
      a_.movRM(RSI, kCtx, kOffScratch);
      a_.jmpTo(resume);
    });
  }

  // After emitTlb: page offset (EA & 4095) -> RAX.
  void emitPageOff() {
    movRR32(a_, RAX, RSI);
    a_.andImm(RAX, 4095, false);
  }

  bool emitInstr(std::int32_t j);
  void emitLoadStore(std::int32_t j, const DInst& d);
  void emitIAlu(std::int32_t j, const DInst& d, int idx);
  void emitIAlu32(const DInst& d, int idx);
  void emitDivRem(std::int32_t j, const DInst& d, bool isDiv, bool isImm);
  void emitAluMem(std::int32_t j, const DInst& d);
  void emitFAluMem(std::int32_t j, const DInst& d);
  void emitSetF(const DInst& d, int pred);
  void emitBranch(std::int32_t j, const DInst& d);
  void emitCallInst(std::int32_t j, const DInst& d);
  void emitRetInst(std::int32_t j);

  void emitIntRhs(const DInst& d, bool isImm) {
    if (isImm) a_.movImm64(RCX, static_cast<std::uint64_t>(d.imm));
    else a_.movRM(RCX, kG, 8 * d.src2);
  }
  void emitNarrowRound() { // round xmm0 through float
    a_.cvtsd2ss(0, 0);
    a_.cvtss2sd(0, 0);
  }
  void emitBranchTargetJcc(std::int32_t j, const DInst& d, int cc) {
    if (d.target < 0 || static_cast<std::size_t>(d.target) >= n_) {
      const int bad = a_.newLabel();
      a_.jccTo(cc, bad);
      cold_.push_back([this, bad, j] {
        a_.bind(bad);
        a_.movMImm32(kCtx, kOffInstr, static_cast<std::uint32_t>(j));
        a_.jmpTo(exitLabel(JitExit::BadPCInternal));
      });
    } else {
      a_.jccTo(cc, instrLbl_[static_cast<std::size_t>(d.target)]);
    }
  }
};

} // namespace
} // namespace care::vm

namespace care::vm {
namespace {

// ---- per-instruction templates --------------------------------------------
// Each template mirrors its executor_fast.cpp handler exactly: same
// evaluation order, same wrap/sign-extension points, same trap kinds and
// faulting addresses. The ++ic at the top matches DISPATCH()'s count.

bool FnCompiler::emitInstr(std::int32_t j) {
  const DInst& d = at(j);
  if (isColdInst(d)) {
    // Rare fused form: hand exactly this instruction to the interpreter.
    a_.movMImm32(kCtx, kOffInstr, static_cast<std::uint32_t>(j));
    a_.jmpTo(exitLabel(JitExit::ColdOp));
    return true;
  }
  a_.incR(kIc);
  const int k = static_cast<int>(d.kind);
  static constexpr int kCcOf[6] = {CcE, CcNE, CcL, CcLE, CcG, CcGE};
  static constexpr std::uint8_t kFOp[4] = {0x58, 0x5C, 0x59, 0x5E};

  if (d.kind >= DKind::LoadI8 && d.kind <= DKind::StoreF64) {
    emitLoadStore(j, d);
    return true;
  }
  if (d.kind >= DKind::IAddRR && d.kind <= DKind::IAshrRI) {
    emitIAlu(j, d, k - static_cast<int>(DKind::IAddRR));
    return true;
  }
  if (d.kind >= DKind::IAdd32RR && d.kind <= DKind::IAshr32RI) {
    emitIAlu32(d, k - static_cast<int>(DKind::IAdd32RR));
    return true;
  }
  if (d.kind >= DKind::FAdd && d.kind <= DKind::FDiv) {
    a_.movsdXM(0, kF, 8 * d.src1);
    a_.movsdXM(1, kF, 8 * d.src2);
    a_.fopXX(kFOp[k - static_cast<int>(DKind::FAdd)], 0, 1);
    if (d.sext) emitNarrowRound();
    a_.movsdMX(kF, 8 * d.dst, 0);
    return true;
  }
  if (d.kind >= DKind::SetEqRR && d.kind <= DKind::SetGeRI) {
    const int idx = k - static_cast<int>(DKind::SetEqRR);
    a_.movRM(RAX, kG, 8 * d.src1);
    emitIntRhs(d, idx & 1);
    a_.cmpRR(RAX, RCX);
    a_.setcc(kCcOf[idx >> 1], RAX);
    a_.movzx8RR(RAX, RAX);
    a_.movMR(kG, 8 * d.dst, RAX);
    return true;
  }
  if (d.kind >= DKind::FSetEq && d.kind <= DKind::FSetGe) {
    emitSetF(d, k - static_cast<int>(DKind::FSetEq));
    return true;
  }
  if (d.kind >= DKind::BrEqRR && d.kind <= DKind::FBrGe) {
    emitBranch(j, d);
    return true;
  }

  switch (d.kind) {
  case DKind::Mov:
    a_.movRM(RAX, kG, 8 * d.src1);
    a_.movMR(kG, 8 * d.dst, RAX);
    return true;
  case DKind::MovImm:
    a_.movImm64(RAX, static_cast<std::uint64_t>(d.imm));
    a_.movMR(kG, 8 * d.dst, RAX);
    return true;
  case DKind::FMov:
    a_.movRM(RAX, kF, 8 * d.src1);
    a_.movMR(kF, 8 * d.dst, RAX);
    return true;
  case DKind::FMovImm: {
    std::uint64_t bits;
    std::memcpy(&bits, &d.fimm, 8);
    a_.movImm64(RAX, bits);
    a_.movMR(kF, 8 * d.dst, RAX);
    return true;
  }
  case DKind::Lea:
    emitEA(d);
    a_.movMR(kG, 8 * d.dst, RSI);
    return true;
  case DKind::Sext32:
    a_.movsxdRM(RAX, kG, 8 * d.src1);
    a_.movMR(kG, 8 * d.dst, RAX);
    return true;
  case DKind::IAluMem:
    emitAluMem(j, d);
    return true;
  case DKind::FAluMem:
    emitFAluMem(j, d);
    return true;
  case DKind::CvtSiToF:
    a_.movRM(RAX, kG, 8 * d.src1);
    a_.cvtsi2sdXR(0, RAX);
    if (d.sext) emitNarrowRound();
    a_.movsdMX(kF, 8 * d.dst, 0);
    return true;
  case DKind::CvtFToSi:
    a_.movsdXM(0, kF, 8 * d.src1);
    a_.cvttsd2siRX(RAX, 0); // same saturation GCC compiles the C++ cast to
    if (d.sext) a_.movsxdRR(RAX, RAX);
    a_.movMR(kG, 8 * d.dst, RAX);
    return true;
  case DKind::CvtF32F64: // both are bit-preserving double moves
    a_.movRM(RAX, kF, 8 * d.src1);
    a_.movMR(kF, 8 * d.dst, RAX);
    return true;
  case DKind::CvtF64F32:
    a_.movsdXM(0, kF, 8 * d.src1);
    emitNarrowRound();
    a_.movsdMX(kF, 8 * d.dst, 0);
    return true;
  case DKind::Jmp:
    if (d.target < 0 || static_cast<std::size_t>(d.target) >= n_) {
      a_.movMImm32(kCtx, kOffInstr, static_cast<std::uint32_t>(j));
      a_.jmpTo(exitLabel(JitExit::BadPCInternal));
    } else {
      a_.jmpTo(instrLbl_[static_cast<std::size_t>(d.target)]);
    }
    return true;
  case DKind::Call:
    emitCallInst(j, d);
    return true;
  case DKind::Ret:
    emitRetInst(j);
    return true;
  case DKind::MathCall:
    a_.movImm32(RDI, d.sub);
    a_.movsdXM(0, kF, 8 * d.src1);
    if (d.src2 != backend::kNoReg) a_.movsdXM(1, kF, 8 * d.src2);
    else a_.xorpsXX(1, 1);
    a_.movImm64(RAX, reinterpret_cast<std::uint64_t>(&careJitMath));
    a_.callR(RAX);
    a_.movsdMX(kF, 8 * d.dst, 0);
    return true;
  case DKind::Emit:
    a_.movRR(RDI, kCtx);
    a_.movRM(RSI, kF, 8 * d.src1); // the raw bits, like the handler's memcpy
    a_.movImm64(RAX, reinterpret_cast<std::uint64_t>(&careJitEmit));
    a_.callR(RAX);
    return true;
  case DKind::EmitI:
    a_.movRR(RDI, kCtx);
    a_.movRM(RSI, kG, 8 * d.src1);
    a_.movImm64(RAX, reinterpret_cast<std::uint64_t>(&careJitEmit));
    a_.callR(RAX);
    return true;
  case DKind::Abort:
    a_.jmpTo(coldTrap(j, TrapKind::Abort, TrapAddrFrom::Zero));
    return true;
  case DKind::SentinelTrap:
    a_.jmpTo(coldTrap(j, TrapKind::Sentinel, TrapAddrFrom::Zero));
    return true;
  case DKind::Barrier:
    // The handler does ++d before SYNC: the resume point is j+1.
    a_.movMImm32(kCtx, kOffInstr, static_cast<std::uint32_t>(j + 1));
    a_.jmpTo(exitLabel(JitExit::Yield));
    return true;
  default:
    return false; // OobGuard mid-stream / unknown kind: refuse the function
  }
}

void FnCompiler::emitLoadStore(std::int32_t j, const DInst& d) {
  const DKind k = d.kind;
  const bool isStore = k >= DKind::StoreI8;
  std::uint32_t mask = 0;
  switch (k) {
  case DKind::LoadI32: case DKind::LoadF32:
  case DKind::StoreI32: case DKind::StoreF32: mask = 3; break;
  case DKind::LoadI64: case DKind::LoadF64:
  case DKind::StoreI64: case DKind::StoreF64: mask = 7; break;
  default: break;
  }
  emitEA(d);
  emitAlignCheck(j, mask);
  emitTlb(j, isStore);
  emitPageOff();
  switch (k) {
  case DKind::LoadI8:
    movzx8RSib(a_, RCX, RDX, RAX);
    a_.movMR(kG, 8 * d.dst, RCX);
    break;
  case DKind::LoadI32:
    movsxdRSib(a_, RCX, RDX, RAX);
    a_.movMR(kG, 8 * d.dst, RCX);
    break;
  case DKind::LoadI64:
    movRSib(a_, RCX, RDX, RAX, 0);
    a_.movMR(kG, 8 * d.dst, RCX);
    break;
  case DKind::LoadF32:
    a_.sseSib(0xF3, 0x10, 0, RDX, RAX);
    a_.cvtss2sd(0, 0);
    a_.movsdMX(kF, 8 * d.dst, 0);
    break;
  case DKind::LoadF64:
    movRSib(a_, RCX, RDX, RAX, 0);
    a_.movMR(kF, 8 * d.dst, RCX);
    break;
  case DKind::StoreI8:
    a_.movRM(RCX, kG, 8 * d.src1);
    mov8SibR(a_, RDX, RAX, RCX);
    break;
  case DKind::StoreI32:
    a_.movRM(RCX, kG, 8 * d.src1);
    movSibR32(a_, RDX, RAX, RCX);
    break;
  case DKind::StoreI64:
    a_.movRM(RCX, kG, 8 * d.src1);
    movSibR(a_, RDX, RAX, 0, RCX);
    break;
  case DKind::StoreF32:
    a_.movsdXM(0, kF, 8 * d.src1);
    a_.cvtsd2ss(0, 0);
    a_.sseSib(0xF3, 0x11, 0, RDX, RAX);
    break;
  case DKind::StoreF64:
    a_.movRM(RCX, kF, 8 * d.src1);
    movSibR(a_, RDX, RAX, 0, RCX);
    break;
  default: break;
  }
}

void FnCompiler::emitIAlu(std::int32_t j, const DInst& d, int idx) {
  // idx into IAddRR..IAshrRI: op = idx/2 in {add sub mul div rem and or
  // xor shl ashr}, odd = immediate form.
  const int op = idx >> 1;
  const bool isImm = idx & 1;
  if (op == 3 || op == 4) {
    emitDivRem(j, d, op == 3, isImm);
    return;
  }
  a_.movRM(RAX, kG, 8 * d.src1);
  if (op == 8 || op == 9) {
    const int ext = op == 8 ? 4 : 7; // shl / sar
    if (isImm) {
      a_.shiftImm(ext, RAX, static_cast<std::uint8_t>(
                                static_cast<std::uint64_t>(d.imm) & d.scale));
    } else {
      a_.movRM(RCX, kG, 8 * d.src2);
      a_.andImm(RCX, d.scale, false);
      a_.shiftCl(ext, RAX);
    }
  } else {
    emitIntRhs(d, isImm);
    switch (op) {
    case 0: a_.addRR(RAX, RCX); break;
    case 1: a_.subRR(RAX, RCX); break;
    case 2: a_.imulRR(RAX, RCX); break;
    case 5: a_.andRR(RAX, RCX); break;
    case 6: a_.orRR(RAX, RCX); break;
    case 7: a_.xorRR(RAX, RCX); break;
    }
  }
  a_.movMR(kG, 8 * d.dst, RAX);
}

void FnCompiler::emitIAlu32(const DInst& d, int idx) {
  // idx into IAdd32RR..IAshr32RI: op = idx/2 in {add sub mul and or xor
  // shl ashr}. The interpreter computes at full width, then norm32-wraps;
  // for add/sub/mul/and/or/xor the 32-bit ALU form + movsxd is identical,
  // while shifts must shift the full 64-bit value first (the handler does).
  const int op = idx >> 1;
  const bool isImm = idx & 1;
  a_.movRM(RAX, kG, 8 * d.src1);
  if (op == 6 || op == 7) {
    const int ext = op == 6 ? 4 : 7;
    if (isImm) {
      a_.shiftImm(ext, RAX, static_cast<std::uint8_t>(
                                static_cast<std::uint64_t>(d.imm) & d.scale));
    } else {
      a_.movRM(RCX, kG, 8 * d.src2);
      a_.andImm(RCX, d.scale, false);
      a_.shiftCl(ext, RAX);
    }
  } else {
    emitIntRhs(d, isImm);
    switch (op) {
    case 0: a_.addRR(RAX, RCX, false); break;
    case 1: a_.subRR(RAX, RCX, false); break;
    case 2: a_.imulRR(RAX, RCX, false); break;
    case 3: a_.andRR(RAX, RCX, false); break;
    case 4: a_.orRR(RAX, RCX, false); break;
    case 5: a_.xorRR(RAX, RCX, false); break;
    }
  }
  a_.movsxdRR(RAX, RAX); // norm32
  a_.movMR(kG, 8 * d.dst, RAX);
}

void FnCompiler::emitDivRem(std::int32_t j, const DInst& d, bool isDiv,
                            bool isImm) {
  const bool narrow = d.sext != 0;
  const int fpe = coldTrap(j, TrapKind::Fpe, TrapAddrFrom::Zero);
  const int ok = a_.newLabel();
  if (narrow) {
    a_.movRM32(RAX, kG, 8 * d.src1);
    if (isImm) a_.movImm32(RCX, static_cast<std::uint32_t>(d.imm));
    else a_.movRM32(RCX, kG, 8 * d.src2);
    a_.testRR(RCX, RCX, false);
    a_.jccTo(CcE, fpe);
    a_.cmpImm(RCX, -1, false);
    a_.jccTo(CcNE, ok);
    a_.cmpImm(RAX, INT32_MIN, false);
    a_.jccTo(CcE, fpe);
    a_.bind(ok);
    a_.cdq();
    a_.idivR(RCX, false);
    a_.movsxdRR(RAX, isDiv ? RAX : RDX); // norm32 of the 32-bit result
  } else {
    a_.movRM(RAX, kG, 8 * d.src1);
    emitIntRhs(d, isImm);
    a_.testRR(RCX, RCX);
    a_.jccTo(CcE, fpe);
    a_.cmpImm(RCX, -1);
    a_.jccTo(CcNE, ok);
    a_.movImm64(RDX, 0x8000000000000000ull);
    a_.cmpRR(RAX, RDX);
    a_.jccTo(CcE, fpe);
    a_.bind(ok);
    a_.cqo();
    a_.idivR(RCX);
    if (!isDiv) a_.movRR(RAX, RDX);
  }
  a_.movMR(kG, 8 * d.dst, RAX);
}

void FnCompiler::emitAluMem(std::int32_t j, const DInst& d) {
  const bool is32 = d.memType == MType::I32;
  emitEA(d);
  emitAlignCheck(j, is32 ? 3u : 7u);
  emitTlb(j, false);
  emitPageOff();
  if (is32) movsxdRSib(a_, RCX, RDX, RAX);
  else movRSib(a_, RCX, RDX, RAX, 0);
  a_.movRM(RAX, kG, 8 * d.src1);
  const bool w = d.sext == 0;
  switch (static_cast<MOp>(d.sub)) {
  case MOp::IAdd: a_.addRR(RAX, RCX, w); break;
  case MOp::ISub: a_.subRR(RAX, RCX, w); break;
  case MOp::IMul: a_.imulRR(RAX, RCX, w); break;
  case MOp::IAnd: a_.andRR(RAX, RCX, w); break;
  case MOp::IOr: a_.orRR(RAX, RCX, w); break;
  case MOp::IXor: a_.xorRR(RAX, RCX, w); break;
  default: break; // unreachable: isColdInst routed everything else away
  }
  if (!w) a_.movsxdRR(RAX, RAX);
  a_.movMR(kG, 8 * d.dst, RAX);
}

void FnCompiler::emitFAluMem(std::int32_t j, const DInst& d) {
  static constexpr std::uint8_t kFOp[4] = {0x58, 0x5C, 0x59, 0x5E};
  const bool is32 = d.memType == MType::F32;
  emitEA(d);
  emitAlignCheck(j, is32 ? 3u : 7u);
  emitTlb(j, false);
  emitPageOff();
  if (is32) {
    a_.sseSib(0xF3, 0x10, 1, RDX, RAX);
    a_.cvtss2sd(1, 1);
  } else {
    a_.sseSib(0xF2, 0x10, 1, RDX, RAX);
  }
  a_.movsdXM(0, kF, 8 * d.src1);
  a_.fopXX(kFOp[static_cast<int>(static_cast<MOp>(d.sub)) -
                static_cast<int>(MOp::FAdd)],
           0, 1);
  if (d.sext) emitNarrowRound();
  a_.movsdMX(kF, 8 * d.dst, 0);
}

void FnCompiler::emitSetF(const DInst& d, int pred) {
  a_.movsdXM(0, kF, 8 * d.src1);
  a_.movsdXM(1, kF, 8 * d.src2);
  switch (pred) {
  case 0: // == : ZF && !PF
    a_.ucomisdXX(0, 1);
    a_.setcc(CcNP, RAX);
    a_.setcc(CcE, RCX);
    a_.and8RR(RAX, RCX);
    break;
  case 1: // != : !ZF || PF
    a_.ucomisdXX(0, 1);
    a_.setcc(CcP, RAX);
    a_.setcc(CcNE, RCX);
    a_.or8RR(RAX, RCX);
    break;
  case 2: a_.ucomisdXX(1, 0); a_.setcc(CcA, RAX); break;  // <
  case 3: a_.ucomisdXX(1, 0); a_.setcc(CcAE, RAX); break; // <=
  case 4: a_.ucomisdXX(0, 1); a_.setcc(CcA, RAX); break;  // >
  case 5: a_.ucomisdXX(0, 1); a_.setcc(CcAE, RAX); break; // >=
  }
  a_.movzx8RR(RAX, RAX);
  a_.movMR(kG, 8 * d.dst, RAX);
}

void FnCompiler::emitBranch(std::int32_t j, const DInst& d) {
  static constexpr int kCcOf[6] = {CcE, CcNE, CcL, CcLE, CcG, CcGE};
  const int k = static_cast<int>(d.kind);
  if (d.kind >= DKind::FBrEq) {
    const int pred = k - static_cast<int>(DKind::FBrEq);
    a_.movsdXM(0, kF, 8 * d.src1);
    a_.movsdXM(1, kF, 8 * d.src2);
    switch (pred) {
    case 0: { // == : not taken when unordered
      a_.ucomisdXX(0, 1);
      const int skip = a_.newLabel();
      a_.jccTo(CcP, skip);
      emitBranchTargetJcc(j, d, CcE);
      a_.bind(skip);
      break;
    }
    case 1: // != : taken when unordered
      a_.ucomisdXX(0, 1);
      emitBranchTargetJcc(j, d, CcP);
      emitBranchTargetJcc(j, d, CcNE);
      break;
    case 2: a_.ucomisdXX(1, 0); emitBranchTargetJcc(j, d, CcA); break;
    case 3: a_.ucomisdXX(1, 0); emitBranchTargetJcc(j, d, CcAE); break;
    case 4: a_.ucomisdXX(0, 1); emitBranchTargetJcc(j, d, CcA); break;
    case 5: a_.ucomisdXX(0, 1); emitBranchTargetJcc(j, d, CcAE); break;
    }
    return;
  }
  const int idx = k - static_cast<int>(DKind::BrEqRR);
  a_.movRM(RAX, kG, 8 * d.src1);
  emitIntRhs(d, idx & 1);
  a_.cmpRR(RAX, RCX);
  emitBranchTargetJcc(j, d, kCcOf[idx >> 1]);
}

void FnCompiler::emitCallInst(std::int32_t j, const DInst& d) {
  // Same order as L_Call: align check and retPC store against newSP, SP
  // updated only after the store succeeded, then a slot-indirect jump to
  // the callee (compiled entry or its CrossEnter stub).
  a_.movRM(RSI, kG, 8 * backend::kSP);
  a_.aluImm(5, RSI, 8); // newSP = SP - 8
  a_.testImm32(RSI, 7);
  a_.jccTo(CcNE, coldTrap(j, TrapKind::Bus, TrapAddrFrom::Rsi));
  emitTlb(j, true);
  emitPageOff();
  a_.movImm64(RCX, d.retPC);
  movSibR(a_, RDX, RAX, 0, RCX);
  a_.movMR(kG, 8 * backend::kSP, RSI);
  a_.movImm64(R11, reinterpret_cast<std::uint64_t>(
                       &slots_[d.call.module][d.call.func]));
  a_.movRM(R11, R11, 0);
  a_.jmpR(R11);
}

void FnCompiler::emitRetInst(std::int32_t j) {
  a_.movRM(RSI, kG, 8 * backend::kSP);
  a_.testImm32(RSI, 7);
  a_.jccTo(CcNE, coldTrap(j, TrapKind::Bus, TrapAddrFrom::Rsi));
  emitTlb(j, false);
  emitPageOff();
  movRSib(a_, RCX, RDX, RAX, 0); // retPC
  a_.addImm(RSI, 8);
  a_.movMR(kG, 8 * backend::kSP, RSI);
  a_.movImm64(RAX, Image::kHaltPC);
  a_.cmpRR(RCX, RAX);
  const int done = a_.newLabel();
  a_.jccTo(CcE, done);
  cold_.push_back([this, done, j] {
    a_.bind(done);
    a_.movMImm32(kCtx, kOffInstr, static_cast<std::uint32_t>(j));
    a_.jmpTo(exitLabel(JitExit::Done));
  });
  // Cross-function return: resolve through the code cache (this may
  // compile the target). Null means the driver takes over (wild PC, deopt
  // near the budget, or an interpret-only target).
  a_.movMR(kCtx, kOffIc, kIc);
  a_.movRR(RDI, kCtx);
  a_.movRR(RSI, RCX);
  a_.movImm64(RAX, reinterpret_cast<std::uint64_t>(&jitResolveRet));
  a_.callR(RAX);
  a_.testRR(RAX, RAX);
  const int cross = a_.newLabel();
  a_.jccTo(CcE, cross);
  a_.jmpR(RAX);
  cold_.push_back([this, cross, j] {
    a_.bind(cross);
    a_.movMImm32(kCtx, kOffInstr, static_cast<std::uint32_t>(j));
    a_.jmpTo(exitLabel(JitExit::CrossJump));
  });
}

} // namespace
} // namespace care::vm

namespace care::vm {

// ---- JitImage --------------------------------------------------------------

struct JitImage::Chunk {
  std::uint8_t* base = nullptr;
  std::size_t size = 0;
  ~Chunk() {
    if (base) ::munmap(base, size);
  }
};

struct JitImage::FnJit {
  const std::uint8_t* base = nullptr; // null: interpret-only function
  std::vector<std::uint32_t> instrOff;
  std::vector<std::uint32_t> suffixLen;
};

namespace {

// Copy emitted bytes into a fresh RW mapping and seal it RX. The mapping is
// never made writable again (W^X); failure is soft — callers degrade to the
// interpreter.
template <class ChunkT>
const std::uint8_t* sealIntoChunk(std::vector<std::unique_ptr<ChunkT>>& chunks,
                                  const std::vector<std::uint8_t>& code) {
  if (code.empty()) return nullptr;
  const std::size_t sz = (code.size() + 4095) & ~static_cast<std::size_t>(4095);
  void* p = ::mmap(nullptr, sz, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return nullptr;
  std::memcpy(p, code.data(), code.size());
  if (::mprotect(p, sz, PROT_READ | PROT_EXEC) != 0) {
    ::munmap(p, sz);
    return nullptr;
  }
  auto c = std::make_unique<ChunkT>();
  c->base = static_cast<std::uint8_t*>(p);
  c->size = sz;
  chunks.push_back(std::move(c));
  return chunks.back()->base;
}

} // namespace

JitImage::JitImage(const Image& image)
    : image_(image) {
  if (!jitAvailable()) {
    broken_ = true;
    return;
  }
  const DecodedImage& dimg = image.decoded();
  const std::size_t nm = dimg.funcs.size();
  slots_.reserve(nm);
  fns_.reserve(nm);
  for (std::size_t m = 0; m < nm; ++m) {
    const std::size_t nf = dimg.funcs[m].size();
    slots_.emplace_back(nf);  // inner vectors are never resized again:
    fns_.emplace_back(nf);    // emitted code embeds their element addresses
  }

  // The stub chunk: entry thunk, common exit, one CrossEnter stub per
  // function (the initial target of every call slot).
  Asm a;
  const std::size_t thunkOff = a.off();
  a.pushR(RBP);
  a.pushR(RBX);
  a.pushR(R12);
  a.pushR(R13);
  a.pushR(R14);
  a.pushR(R15);
  a.aluImm(5, RSP, 8); // keep rsp 16-aligned inside templates
  a.movRR(R15, RDI);   // JitContext*
  a.movRM(RBX, R15, kOffG);
  a.movRM(R13, R15, kOffF);
  a.movRM(R12, R15, kOffReadTlb);
  a.movRM(RBP, R15, kOffWriteTlb);
  a.movRM(R14, R15, kOffIc);
  a.jmpR(RSI); // target from entryFor
  const int exitLbl = a.newLabel();
  a.bind(exitLbl);
  a.movMR(R15, kOffIc, R14);
  a.addImm(RSP, 8);
  a.popR(R15);
  a.popR(R14);
  a.popR(R13);
  a.popR(R12);
  a.popR(RBX);
  a.popR(RBP);
  a.ret();
  const std::size_t exitOff = static_cast<std::size_t>(a.labels[exitLbl]);
  std::vector<std::vector<std::size_t>> ceOff(nm);
  for (std::size_t m = 0; m < nm; ++m) {
    const std::size_t nf = dimg.funcs[m].size();
    ceOff[m].reserve(nf);
    for (std::size_t f = 0; f < nf; ++f) {
      ceOff[m].push_back(a.off());
      a.movMImm32(R15, kOffModule, static_cast<std::uint32_t>(m));
      a.movMImm32(R15, kOffFunc, static_cast<std::uint32_t>(f));
      a.movMImm32(R15, kOffInstr, 0);
      a.movMImm32(R15, kOffExitKind,
                  static_cast<std::uint32_t>(JitExit::CrossEnter));
      a.jmpTo(exitLbl);
    }
  }
  if (!a.resolve()) {
    broken_ = true;
    return;
  }
  const std::uint8_t* base = sealIntoChunk(chunks_, a.b);
  if (!base) {
    broken_ = true;
    return;
  }
  entryThunk_ = base + thunkOff;
  commonExit_ = base + exitOff;
  for (std::size_t m = 0; m < nm; ++m)
    for (std::size_t f = 0; f < ceOff[m].size(); ++f)
      slots_[m][f].store(base + ceOff[m][f], std::memory_order_release);
}

JitImage::~JitImage() = default;

JitImage::FnJit* JitImage::compiled(std::int32_t m, std::int32_t f) {
  return fns_[static_cast<std::size_t>(m)][static_cast<std::size_t>(f)].load(
      std::memory_order_acquire);
}

JitImage::FnJit* JitImage::compileLocked(std::int32_t m, std::int32_t f) {
  auto& cell =
      fns_[static_cast<std::size_t>(m)][static_cast<std::size_t>(f)];
  if (FnJit* fj = cell.load(std::memory_order_relaxed)) return fj;
  const DecodedFunction& df =
      image_.decoded().funcs[static_cast<std::size_t>(m)]
                           [static_cast<std::size_t>(f)];
  FnCompiler fc(df, m, f, slots_, commonExit_);
  FnArtifact art = fc.run();
  auto own = std::make_unique<FnJit>();
  if (art.ok) {
    if (const std::uint8_t* base = sealIntoChunk(chunks_, art.code)) {
      own->base = base;
      own->instrOff = std::move(art.instrOff);
      own->suffixLen = std::move(art.suffixLen);
    }
    // mmap failure: leave base null — this function stays interpreted.
  }
  FnJit* raw = own.get();
  fnStore_.push_back(std::move(own));
  if (raw->base) {
    // Calls may now jump straight in; offset 0 is the leader-0 block check.
    slots_[static_cast<std::size_t>(m)][static_cast<std::size_t>(f)].store(
        raw->base, std::memory_order_release);
  }
  cell.store(raw, std::memory_order_release);
  return raw;
}

const void* JitImage::entryFor(std::int32_t m, std::int32_t f, std::int32_t j,
                               std::uint64_t ic, std::uint64_t limit) {
  if (broken_ || m < 0 || f < 0 || j < 0) return nullptr;
  if (static_cast<std::size_t>(m) >= fns_.size() ||
      static_cast<std::size_t>(f) >= fns_[static_cast<std::size_t>(m)].size())
    return nullptr;
  FnJit* fj = compiled(m, f);
  if (!fj) {
    std::lock_guard<std::mutex> lk(compileMutex_);
    fj = compileLocked(m, f);
    if (!fj) return nullptr;
  }
  if (!fj->base) return nullptr;
  if (static_cast<std::size_t>(j) >= fj->instrOff.size()) return nullptr;
  // The same check the emitted block header does: enter only if the rest
  // of j's basic block still fits the effective budget.
  if (ic + fj->suffixLen[static_cast<std::size_t>(j)] > limit) return nullptr;
  return fj->base + fj->instrOff[static_cast<std::size_t>(j)];
}

const void* JitImage::entryForPC(std::uint64_t pc, std::uint64_t ic,
                                 std::uint64_t limit) {
  const CodeLoc loc = image_.locate(pc);
  if (!loc.valid()) return nullptr;
  return entryFor(loc.module, loc.func, loc.instr, ic, limit);
}

void JitImage::enter(JitContext& ctx, const void* target) const {
  using EntryFn = void (*)(JitContext*, const void*);
  const auto fn =
      reinterpret_cast<EntryFn>(reinterpret_cast<std::uintptr_t>(entryThunk_));
  fn(&ctx, target);
}

std::size_t JitImage::compiledFunctions() const {
  std::size_t n = 0;
  for (const auto& mod : fns_)
    for (const auto& cell : mod) {
      const FnJit* fj = cell.load(std::memory_order_acquire);
      if (fj && fj->base) ++n;
    }
  return n;
}

const void* jitResolveRet(JitContext* ctx, std::uint64_t pc) {
  JitImage* ji = static_cast<JitImage*>(const_cast<void*>(ctx->jit));
  if (const void* e = ji->entryForPC(pc, ctx->ic, ctx->budget)) return e;
  ctx->retPC = pc;
  return nullptr;
}

} // namespace care::vm
