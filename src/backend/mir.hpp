// MIR: the machine IR / virtual ISA CARE-IR is lowered to.
//
// MIR is an x86_64-flavoured CISC register machine: 16 integer registers,
// 16 floating-point registers, base+index*scale+disp memory operands, ALU
// instructions with fused memory operands, an explicit stack with frame and
// stack pointers, and PC-addressed code (4 "bytes" per instruction). The
// CARE runtime (Safeguard) needs exactly these properties: a faulting PC it
// can map through a line table, a disassemblable faulting instruction whose
// base/index registers it can patch, and DWARF-style variable locations
// (register or frame slot) to fetch recovery-kernel arguments from.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/instruction.hpp" // DebugLoc
#include "ir/type.hpp"

namespace care::backend {

using ir::DebugLoc;

// --- registers --------------------------------------------------------------

/// Integer register roles. r0..r5 pass arguments and r0 returns; r6..r11
/// are allocatable (r8..r11 callee-saved); r13 = frame pointer, r14 =
/// stack pointer. The register allocator loads spilled operands into the
/// scratches r15, r12 and r5, in that order. Only a Store whose value,
/// base and index are all spilled needs the third. r5 is free there: the
/// entry copies have read r5 before any spill uses it, and a call's
/// argument window holds only copies, which take one scratch.
enum : std::int16_t {
  kNoReg = -1,
  kArg0 = 0,
  kNumArgRegs = 6,
  kRet = 0,
  kScratch3 = 5,
  kAllocFirst = 6,
  kAllocLast = 11,
  kCalleeSavedFirst = 8,
  kScratch2 = 12,
  kFP = 13,
  kSP = 14,
  kScratch = 15,
  kNumRegs = 16,
};

/// FP register roles mirror the integer ones: f0..f5 args / f0 return,
/// f6..f13 allocatable (f8..f13 callee-saved), spill scratches f15 then
/// f14 (no op reads three FP registers).
enum : std::int16_t {
  kFAllocFirst = 6,
  kFAllocLast = 13,
  kFCalleeSavedFirst = 8,
  kFScratch2 = 14,
  kFScratch = 15,
};

/// Virtual registers are numbered from kFirstVReg upward (per class).
constexpr std::int16_t kFirstVReg = 16;

/// Width/type of a memory access or value.
enum class MType : std::uint8_t { I8, I32, I64, F32, F64 };

unsigned mtypeSize(MType t);
MType mtypeFor(const ir::Type* t);
bool mtypeIsFP(MType t);

// --- operands -----------------------------------------------------------------

/// base + index*scale + disp (+ global relocation before loading).
struct MemRef {
  std::int16_t base = kNoReg;
  std::int16_t index = kNoReg;
  std::uint8_t scale = 1;
  std::int64_t disp = 0;
  std::int32_t globalIdx = -1; // loader adds the global's address to disp
  MType type = MType::I64;
};

// --- opcodes -------------------------------------------------------------------

enum class MOp : std::uint8_t {
  // moves
  Mov,      // dst <- src1 (int)
  MovImm,   // dst <- imm
  FMov,     // dst <- src1 (fp)
  FMovImm,  // dst <- fimm
  // memory
  Load,     // dst <- [mem] (dst class from mem.type)
  Store,    // [mem] <- src1 (class from mem.type)
  Lea,      // dst <- effective address of [mem]
  // integer ALU: dst <- src1 op (src2 or imm when src2 == kNoReg)
  IAdd, ISub, IMul, IDiv, IRem, IAnd, IOr, IXor, IShl, IAshr,
  Sext32,   // dst <- sign-extend low 32 bits of src1 (also "trunc to i32")
  // integer ALU with fused memory operand: dst <- src1 op [mem]
  IAluMem,  // sub = IAdd..IAshr
  // FP ALU (fp32 flag selects float rounding): dst <- src1 op src2
  FAdd, FSub, FMul, FDiv,
  FAluMem,  // sub = FAdd..FDiv; dst <- src1 op [mem]
  // conversions
  CvtSiToF,  // fdst <- (fp) isrc1
  CvtFToSi,  // idst <- (int) fsrc1 (truncating)
  CvtF32F64, // widen (no-op numerically; rounds when narrowing variant)
  CvtF64F32,
  // compare / branch
  SetCmp,   // idst <- (src1 pred src2) ? 1 : 0   (sub = CmpPred)
  FSetCmp,
  BrCmp,    // if (src1 pred src2) goto target    (sub = CmpPred)
  FBrCmp,
  Jmp,      // goto target
  // calls
  Call,     // target = function index (or extern index if externCall)
  Ret,
  MathCall, // dst <- math[sub](fsrc1[, fsrc2]) — intrinsics, no frame
  // runtime services
  Emit,     // append f(src1) to the output channel
  EmitI,    // append i(src1)
  Abort,    // raise the Abort trap (assert failure / __abort)
  Barrier,  // yield to the harness (MPI_Barrier analogue; run() resumes)
  SentinelTrap, // raise the Sentinel trap (detector mismatch / __sentinel_trap)
};

const char* mopName(MOp op);

/// The CARE-IR opcode an ALU op computes: IAdd..IAshr list Add..AShr and
/// FAdd..FDiv list FAdd..FDiv in the same order. The VM evaluates MIR's
/// arithmetic with ir/scalar.hpp through it.
constexpr ir::Opcode aluOpcode(MOp op) {
  return op <= MOp::IAshr
             ? static_cast<ir::Opcode>(static_cast<int>(ir::Opcode::Add) +
                                       static_cast<int>(op) -
                                       static_cast<int>(MOp::IAdd))
             : static_cast<ir::Opcode>(static_cast<int>(ir::Opcode::FAdd) +
                                       static_cast<int>(op) -
                                       static_cast<int>(MOp::FAdd));
}

/// The inverse: the ALU op instruction selection emits for a CARE-IR
/// binary op (Add..FDiv).
constexpr MOp aluMOp(ir::Opcode op) {
  return op <= ir::Opcode::AShr
             ? static_cast<MOp>(static_cast<int>(MOp::IAdd) +
                                static_cast<int>(op) -
                                static_cast<int>(ir::Opcode::Add))
             : static_cast<MOp>(static_cast<int>(MOp::FAdd) +
                                static_cast<int>(op) -
                                static_cast<int>(ir::Opcode::FAdd));
}

static_assert([] {
  for (int i = static_cast<int>(ir::Opcode::Add);
       i <= static_cast<int>(ir::Opcode::FDiv); ++i) {
    const auto op = static_cast<ir::Opcode>(i);
    if (aluOpcode(aluMOp(op)) != op) return false;
  }
  return aluMOp(ir::Opcode::AShr) == MOp::IAshr &&
         aluMOp(ir::Opcode::FAdd) == MOp::FAdd &&
         aluMOp(ir::Opcode::FDiv) == MOp::FDiv;
}());

struct MInst {
  MOp op = MOp::Mov;
  std::uint8_t sub = 0;   // CmpPred, fused ALU op, or ir::MathFn
  /// Width qualifier: FP ops round results to f32; integer ALU wraps the
  /// result to 32 bits (sign-extended) — mirrors x86 "l" vs "q" forms.
  bool narrow = false;
  std::int16_t dst = kNoReg;
  std::int16_t src1 = kNoReg;
  std::int16_t src2 = kNoReg;
  std::int64_t imm = 0;
  double fimm = 0;
  MemRef mem;
  std::int32_t target = -1; // branch: instruction index; call: function idx
  bool externCall = false;  // Call resolves through the module extern table
  DebugLoc loc;

  bool isBranch() const {
    return op == MOp::BrCmp || op == MOp::FBrCmp || op == MOp::Jmp;
  }
  bool hasMem() const {
    return op == MOp::Load || op == MOp::Store || op == MOp::Lea ||
           op == MOp::IAluMem || op == MOp::FAluMem;
  }
  /// Does this instruction read or write data memory (Lea does not)?
  bool accessesMemory() const {
    return op == MOp::Load || op == MOp::Store || op == MOp::IAluMem ||
           op == MOp::FAluMem;
  }
};

// --- operand table -----------------------------------------------------------

/// The register class of an operand.
enum class RegClass : std::uint8_t { None, Int, FP };

/// What an instruction reads and writes, stated once for the register
/// allocator, the fault injector and the disassembler. `src` is the class
/// of src1 and src2 (no op mixes them); `dst` is None for ops without a
/// register destination. mem.base and mem.index are integer uses whenever
/// hasMem().
struct Operands {
  RegClass dst = RegClass::None;
  RegClass src = RegClass::None;
  bool storesMem = false; // writes its memory operand (Store)
};

Operands operandsOf(const MInst& in);

/// Call f(slot, fp, isDef) for every register operand `in` holds, in the
/// order src1, src2, dst, mem.base, mem.index. The register allocator
/// hands out spill scratches in this use order. `Inst` is MInst or
/// const MInst; `slot` is a reference into `in`.
template <class Inst, class F>
void forEachReg(Inst& in, F&& f) {
  const Operands o = operandsOf(in);
  auto visit = [&](auto& slot, RegClass c, bool isDef) {
    if (c != RegClass::None && slot != kNoReg)
      f(slot, c == RegClass::FP, isDef);
  };
  visit(in.src1, o.src, false);
  visit(in.src2, o.src, false);
  visit(in.dst, o.dst, true);
  if (in.hasMem()) {
    visit(in.mem.base, RegClass::Int, false);
    visit(in.mem.index, RegClass::Int, false);
  }
}

// --- builders shared by instruction selection and the register allocator ---

/// dst <- src in the class `fp` selects.
inline MInst copyReg(std::int16_t dst, std::int16_t src, bool fp) {
  MInst in;
  in.op = fp ? MOp::FMov : MOp::Mov;
  in.dst = dst;
  in.src1 = src;
  return in;
}

/// An 8-byte Load into, or Store from, `reg` at [base + disp]: a frame or
/// spill slot, a saved register or a stack argument.
inline MInst slotAccess(MOp op, std::int16_t reg, bool fp, std::int16_t base,
                        std::int64_t disp) {
  MInst in;
  in.op = op;
  (op == MOp::Store ? in.src1 : in.dst) = reg;
  in.mem.base = base;
  in.mem.disp = disp;
  in.mem.type = fp ? MType::F64 : MType::I64;
  return in;
}

/// sp <- sp + delta, as x86's `sub rsp` when reserving (delta < 0) and
/// `add rsp` when releasing.
inline MInst adjustSP(std::int64_t delta) {
  MInst in;
  in.op = delta < 0 ? MOp::ISub : MOp::IAdd;
  in.dst = kSP;
  in.src1 = kSP;
  in.imm = delta < 0 ? -delta : delta;
  return in;
}

// --- variable locations (DWARF DW_AT_location analogue) -------------------------

/// GReg/FReg: the value is in that register. FrameSlot: the value is stored
/// at [fp + offset]. FrameAddr: the value *is* the address fp + offset
/// (DWARF DW_OP_fbreg without deref — used for allocas, whose IR value is
/// the slot's address).
enum class LocKind : std::uint8_t { GReg, FReg, FrameSlot, FrameAddr };

/// "Variable `name` lives at `where` for instruction indices
/// [beginIdx, endIdx)". FrameSlot offsets are relative to the frame pointer.
struct VarLoc {
  std::string name;
  std::uint32_t beginIdx = 0;
  std::uint32_t endIdx = 0;
  LocKind kind = LocKind::GReg;
  std::int32_t regOrOffset = 0;
};

// --- functions / modules --------------------------------------------------------

struct MFunction {
  std::string name;
  std::vector<MInst> code;
  std::uint32_t frameSize = 0;       // bytes below saved-fp for locals/spills
  std::vector<MType> argTypes;       // argument classes in order
  MType retType = MType::I64;
  bool hasRet = false;               // returns a value
  std::vector<DebugLoc> lineTable;   // per instruction (parallel to code)
  std::vector<VarLoc> varLocs;       // variable location lists
};

struct MGlobal {
  std::string name;
  MType elemType = MType::F64;
  std::uint64_t count = 1;
  std::vector<double> init; // flat initializer (empty = zero)
};

struct MModule {
  std::string name;
  std::vector<MFunction> functions;
  std::vector<MGlobal> globals;
  std::vector<std::string> externs;  // unresolved callees, linked by loader
  std::vector<std::string> files;    // debug file table
};

/// Pretty-print one instruction (the "disassembler" used in diagnostics).
std::string toString(const MInst& in);
std::string toString(const MFunction& f);

} // namespace care::backend
