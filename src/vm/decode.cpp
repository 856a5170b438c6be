#include "vm/decode.hpp"

#include <bit>

#include "support/error.hpp"
#include "vm/loader.hpp"

namespace care::vm {

using backend::kNoReg;
using backend::MInst;
using backend::MOp;
using backend::MType;

namespace {

DKind loadKind(MType t) {
  return static_cast<DKind>(static_cast<int>(DKind::LoadI8) +
                            static_cast<int>(t));
}

DKind storeKind(MType t) {
  return static_cast<DKind>(static_cast<int>(DKind::StoreI8) +
                            static_cast<int>(t));
}

/// IAdd..IAshr -> IAddRR.. block (RR/RI interleaved, same op order).
DKind intAluKind(MOp op, bool immForm) {
  const int idx = static_cast<int>(op) - static_cast<int>(MOp::IAdd);
  return static_cast<DKind>(static_cast<int>(DKind::IAddRR) + 2 * idx +
                            (immForm ? 1 : 0));
}

/// Narrow forms map into the IAdd32RR.. block, which omits the div/rem
/// slots (those stay in the 64-bit block with the width flag in sext).
DKind intAlu32Kind(MOp op, bool immForm) {
  int idx = static_cast<int>(op) - static_cast<int>(MOp::IAdd);
  if (op >= MOp::IAnd) idx -= 2;
  return static_cast<DKind>(static_cast<int>(DKind::IAdd32RR) + 2 * idx +
                            (immForm ? 1 : 0));
}

/// Predicate-specialized compare/branch blocks (CmpPred order; int forms
/// RR/RI interleaved).
DKind cmpKind(DKind base, std::uint8_t pred, bool immForm) {
  return static_cast<DKind>(static_cast<int>(base) + 2 * pred +
                            (immForm ? 1 : 0));
}

DKind fcmpKind(DKind base, std::uint8_t pred) {
  return static_cast<DKind>(static_cast<int>(base) + pred);
}

void decodeMem(const MInst& in, const LoadedModule& lm, DInst& d) {
  d.base = in.mem.base >= 0 ? in.mem.base : kZeroSlot;
  d.index = in.mem.index >= 0 ? in.mem.index : kZeroSlot;
  // Scales are pointee element sizes and therefore powers of two; the
  // interpreter applies them as shifts.
  if (in.mem.scale == 0 || (in.mem.scale & (in.mem.scale - 1)) != 0)
    raise("decodeImage: non-power-of-two memory scale");
  d.scale = static_cast<std::uint16_t>(
      std::countr_zero(static_cast<unsigned>(in.mem.scale)));
  d.disp = static_cast<std::uint64_t>(in.mem.disp);
  if (in.mem.globalIdx >= 0)
    d.disp += lm.globalAddr[static_cast<std::size_t>(in.mem.globalIdx)];
  d.memType = in.mem.type;
}

} // namespace

DecodedImage decodeImage(const Image& image) {
  DecodedImage out;
  out.funcs.resize(image.numModules());
  for (std::size_t m = 0; m < image.numModules(); ++m) {
    const LoadedModule& lm = image.module(m);
    const auto& fns = lm.mod->functions;
    out.funcs[m].resize(fns.size());
    for (std::size_t fi = 0; fi < fns.size(); ++fi) {
      const backend::MFunction& fn = fns[fi];
      DecodedFunction& df = out.funcs[m][fi];
      df.code.reserve(fn.code.size() + 1);
      for (std::size_t i = 0; i < fn.code.size(); ++i) {
        const MInst& in = fn.code[i];
        DInst d;
        d.sub = in.sub;
        d.sext = in.narrow ? 32 : 0;
        d.dst = in.dst;
        d.src1 = in.src1;
        d.src2 = in.src2;
        d.target = in.target;
        switch (in.op) {
        case MOp::Mov: d.kind = DKind::Mov; break;
        case MOp::MovImm:
          d.kind = DKind::MovImm;
          d.imm = in.imm;
          break;
        case MOp::FMov: d.kind = DKind::FMov; break;
        case MOp::FMovImm:
          d.kind = DKind::FMovImm;
          d.fimm = in.fimm;
          break;
        case MOp::Load:
          d.kind = loadKind(in.mem.type);
          decodeMem(in, lm, d);
          break;
        case MOp::Store:
          d.kind = storeKind(in.mem.type);
          decodeMem(in, lm, d);
          break;
        case MOp::Lea:
          d.kind = DKind::Lea;
          decodeMem(in, lm, d);
          break;
        case MOp::IAdd: case MOp::ISub: case MOp::IMul: case MOp::IDiv:
        case MOp::IRem: case MOp::IAnd: case MOp::IOr: case MOp::IXor:
        case MOp::IShl: case MOp::IAshr:
          d.kind = in.narrow && in.op != MOp::IDiv && in.op != MOp::IRem
                       ? intAlu32Kind(in.op, in.src2 == kNoReg)
                       : intAluKind(in.op, in.src2 == kNoReg);
          if (in.src2 == kNoReg) d.imm = in.imm;
          if (in.op == MOp::IShl || in.op == MOp::IAshr)
            d.scale = in.narrow ? 31 : 63; // shift-count mask
          break;
        case MOp::Sext32: d.kind = DKind::Sext32; break;
        case MOp::IAluMem:
          d.kind = DKind::IAluMem;
          d.sub = static_cast<std::uint8_t>(
              backend::aluOpcode(static_cast<MOp>(in.sub)));
          decodeMem(in, lm, d);
          break;
        case MOp::FAdd: d.kind = DKind::FAdd; break;
        case MOp::FSub: d.kind = DKind::FSub; break;
        case MOp::FMul: d.kind = DKind::FMul; break;
        case MOp::FDiv: d.kind = DKind::FDiv; break;
        case MOp::FAluMem:
          d.kind = DKind::FAluMem;
          d.sub = static_cast<std::uint8_t>(
              backend::aluOpcode(static_cast<MOp>(in.sub)));
          decodeMem(in, lm, d);
          break;
        case MOp::CvtSiToF: d.kind = DKind::CvtSiToF; break;
        case MOp::CvtFToSi: d.kind = DKind::CvtFToSi; break;
        case MOp::CvtF32F64: d.kind = DKind::CvtF32F64; break;
        case MOp::CvtF64F32: d.kind = DKind::CvtF64F32; break;
        case MOp::SetCmp:
          d.kind = cmpKind(DKind::SetEqRR, in.sub, in.src2 == kNoReg);
          if (in.src2 == kNoReg) d.imm = in.imm;
          break;
        case MOp::FSetCmp:
          d.kind = fcmpKind(DKind::FSetEq, in.sub);
          break;
        case MOp::BrCmp:
          d.kind = cmpKind(DKind::BrEqRR, in.sub, in.src2 == kNoReg);
          if (in.src2 == kNoReg) d.imm = in.imm;
          break;
        case MOp::FBrCmp:
          d.kind = fcmpKind(DKind::FBrEq, in.sub);
          break;
        case MOp::Jmp: d.kind = DKind::Jmp; break;
        case MOp::Call: {
          d.kind = DKind::Call;
          FuncRef target;
          if (in.externCall) {
            if (static_cast<std::size_t>(in.target) >=
                lm.externTargets.size())
              raise("decodeImage: unresolved extern call (image not linked)");
            target = lm.externTargets[static_cast<std::size_t>(in.target)];
          } else {
            target = {static_cast<std::int32_t>(m), in.target};
          }
          d.call = {target.module, target.func};
          d.retPC = image.pcOf(static_cast<std::int32_t>(m),
                               static_cast<std::int32_t>(fi),
                               static_cast<std::int32_t>(i) + 1);
          break;
        }
        case MOp::Ret: d.kind = DKind::Ret; break;
        case MOp::MathCall: d.kind = DKind::MathCall; break;
        case MOp::Emit: d.kind = DKind::Emit; break;
        case MOp::EmitI: d.kind = DKind::EmitI; break;
        case MOp::Abort: d.kind = DKind::Abort; break;
        case MOp::Barrier: d.kind = DKind::Barrier; break;
        case MOp::SentinelTrap: d.kind = DKind::SentinelTrap; break;
        }
        df.code.push_back(d);
      }
      DInst guard;
      guard.kind = DKind::OobGuard;
      df.code.push_back(guard);
    }
  }
  return out;
}

} // namespace care::vm
