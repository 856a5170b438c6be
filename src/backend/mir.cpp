#include "backend/mir.hpp"

#include <sstream>

#include "support/error.hpp"

namespace care::backend {

unsigned mtypeSize(MType t) {
  switch (t) {
  case MType::I8: return 1;
  case MType::I32: return 4;
  case MType::I64: return 8;
  case MType::F32: return 4;
  case MType::F64: return 8;
  }
  CARE_UNREACHABLE("bad mtype");
}

MType mtypeFor(const ir::Type* t) {
  switch (t->kind()) {
  case ir::TypeKind::I1: return MType::I8;
  case ir::TypeKind::I32: return MType::I32;
  case ir::TypeKind::I64: return MType::I64;
  case ir::TypeKind::F32: return MType::F32;
  case ir::TypeKind::F64: return MType::F64;
  case ir::TypeKind::Ptr: return MType::I64;
  case ir::TypeKind::Void: break;
  }
  CARE_UNREACHABLE("no mtype for void");
}

bool mtypeIsFP(MType t) { return t == MType::F32 || t == MType::F64; }

const char* mopName(MOp op) {
  switch (op) {
  case MOp::Mov: return "mov";
  case MOp::MovImm: return "movi";
  case MOp::FMov: return "fmov";
  case MOp::FMovImm: return "fmovi";
  case MOp::Load: return "load";
  case MOp::Store: return "store";
  case MOp::Lea: return "lea";
  case MOp::IAdd: return "add";
  case MOp::ISub: return "sub";
  case MOp::IMul: return "mul";
  case MOp::IDiv: return "div";
  case MOp::IRem: return "rem";
  case MOp::IAnd: return "and";
  case MOp::IOr: return "or";
  case MOp::IXor: return "xor";
  case MOp::IShl: return "shl";
  case MOp::IAshr: return "ashr";
  case MOp::Sext32: return "sext32";
  case MOp::IAluMem: return "alumem";
  case MOp::FAdd: return "fadd";
  case MOp::FSub: return "fsub";
  case MOp::FMul: return "fmul";
  case MOp::FDiv: return "fdiv";
  case MOp::FAluMem: return "falumem";
  case MOp::CvtSiToF: return "cvtsi2f";
  case MOp::CvtFToSi: return "cvtf2si";
  case MOp::CvtF32F64: return "cvtf32f64";
  case MOp::CvtF64F32: return "cvtf64f32";
  case MOp::SetCmp: return "setcmp";
  case MOp::FSetCmp: return "fsetcmp";
  case MOp::BrCmp: return "brcmp";
  case MOp::FBrCmp: return "fbrcmp";
  case MOp::Jmp: return "jmp";
  case MOp::Call: return "call";
  case MOp::Ret: return "ret";
  case MOp::MathCall: return "math";
  case MOp::Emit: return "emit";
  case MOp::EmitI: return "emiti";
  case MOp::Abort: return "abort";
  case MOp::Barrier: return "barrier";
  case MOp::SentinelTrap: return "senttrap";
  }
  CARE_UNREACHABLE("bad mop");
}

namespace {

std::string regName(std::int16_t r, bool fp) {
  if (r == kNoReg) return "_";
  std::ostringstream os;
  os << (fp ? "f" : "r") << r;
  return os.str();
}

std::string memStr(const MemRef& m) {
  std::ostringstream os;
  os << "[";
  bool any = false;
  if (m.globalIdx >= 0) {
    os << "g" << m.globalIdx;
    any = true;
  }
  if (m.base != kNoReg) {
    if (any) os << " + ";
    os << regName(m.base, false);
    any = true;
  }
  if (m.index != kNoReg) {
    if (any) os << " + ";
    os << regName(m.index, false) << "*" << unsigned(m.scale);
    any = true;
  }
  if (m.disp != 0 || !any) os << (m.disp >= 0 && any ? " + " : " ")
                              << m.disp;
  os << "]";
  return os.str();
}

} // namespace

Operands operandsOf(const MInst& in) {
  constexpr RegClass N = RegClass::None, I = RegClass::Int, F = RegClass::FP;
  const RegClass memClass = mtypeIsFP(in.mem.type) ? F : I;
  switch (in.op) {
  case MOp::Mov: return {I, I};
  case MOp::MovImm: return {I, N};
  case MOp::FMov: return {F, F};
  case MOp::FMovImm: return {F, N};
  case MOp::Load: return {memClass, N};
  case MOp::Store: return {N, memClass, true};
  case MOp::Lea: return {I, N};
  case MOp::IAdd: case MOp::ISub: case MOp::IMul: case MOp::IDiv:
  case MOp::IRem: case MOp::IAnd: case MOp::IOr: case MOp::IXor:
  case MOp::IShl: case MOp::IAshr: case MOp::Sext32: case MOp::IAluMem:
  case MOp::SetCmp:
    return {I, I};
  case MOp::FAdd: case MOp::FSub: case MOp::FMul: case MOp::FDiv:
  case MOp::FAluMem: case MOp::CvtF32F64: case MOp::CvtF64F32:
  case MOp::MathCall:
    return {F, F};
  case MOp::CvtSiToF: return {F, I};
  case MOp::CvtFToSi: return {I, F};
  case MOp::FSetCmp: return {I, F};
  case MOp::BrCmp: return {N, I};
  case MOp::FBrCmp: return {N, F};
  case MOp::Emit: return {N, F};
  case MOp::EmitI: return {N, I};
  case MOp::Jmp: case MOp::Call: case MOp::Ret: case MOp::Abort:
  case MOp::Barrier: case MOp::SentinelTrap:
    return {N, N};
  }
  CARE_UNREACHABLE("bad mop");
}

std::string toString(const MInst& in) {
  const Operands o = operandsOf(in);
  const bool fp = o.src == RegClass::FP;
  std::ostringstream os;
  os << mopName(in.op);
  if (o.dst != RegClass::None)
    os << " " << regName(in.dst, o.dst == RegClass::FP);
  const char* sep = o.dst != RegClass::None ? ", " : " ";
  // An integer ALU op or compare takes `imm` when src2 is kNoReg.
  const std::string src2 = in.src2 != kNoReg ? regName(in.src2, fp)
                                             : "$" + std::to_string(in.imm);
  switch (in.op) {
  case MOp::MovImm: os << sep << in.imm; break;
  case MOp::FMovImm: os << sep << in.fimm; break;
  case MOp::Load:
  case MOp::Lea:
    os << sep << memStr(in.mem);
    break;
  case MOp::Store:
    os << sep << memStr(in.mem) << ", " << regName(in.src1, fp);
    break;
  case MOp::IAluMem:
  case MOp::FAluMem:
    os << sep << regName(in.src1, fp) << ", "
       << mopName(static_cast<MOp>(in.sub)) << " " << memStr(in.mem);
    break;
  case MOp::BrCmp:
  case MOp::FBrCmp:
    os << " " << ir::predName(static_cast<ir::CmpPred>(in.sub)) << " "
       << regName(in.src1, fp) << ", " << src2 << " -> " << in.target;
    break;
  case MOp::SetCmp:
  case MOp::FSetCmp:
    os << " " << ir::predName(static_cast<ir::CmpPred>(in.sub)) << ", "
       << regName(in.src1, fp) << ", " << src2;
    break;
  case MOp::Jmp: os << " -> " << in.target; break;
  case MOp::Call:
    os << " " << (in.externCall ? "extern:" : "fn:") << in.target;
    break;
  default:
    if (in.src1 != kNoReg) {
      os << sep << regName(in.src1, fp);
      sep = ", ";
    }
    if (in.src2 != kNoReg || (in.op >= MOp::IAdd && in.op <= MOp::IAshr))
      os << sep << src2;
    break;
  }
  return os.str();
}

std::string toString(const MFunction& f) {
  std::ostringstream os;
  os << f.name << ": frame=" << f.frameSize << "\n";
  for (std::size_t i = 0; i < f.code.size(); ++i)
    os << "  " << i << ":\t" << toString(f.code[i]) << "\n";
  return os.str();
}

} // namespace care::backend
