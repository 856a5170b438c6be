#include "backend/isel.hpp"

#include "ir/scalar.hpp"
#include "support/error.hpp"

namespace care::backend {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Type;
using ir::Value;

namespace {

bool commutative(Opcode op) {
  switch (op) {
  case Opcode::Add:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::FAdd:
  case Opcode::FMul:
    return true;
  default:
    return false;
  }
}

class ISel {
public:
  ISel(const Function& f, const ModuleLowering& ml) : f_(f), ml_(ml) {}

  ISelResult run();

private:
  std::int16_t newVReg(bool fp) {
    const auto id = static_cast<std::int16_t>(
        kFirstVReg + static_cast<std::int16_t>(vregIsFP_.size()));
    vregIsFP_.push_back(fp);
    return id;
  }

  bool isFPValue(const Value* v) const { return v->type()->isFloat(); }

  MInst& emit(MInst in) {
    in.loc = curLoc_;
    code_.push_back(in);
    return code_.back();
  }

  /// Register holding `v`, materializing constants/globals as needed.
  std::int16_t regOf(const Value* v) {
    auto it = vregOf_.find(v);
    if (it != vregOf_.end()) return it->second;
    // Alloca used as a first-class pointer (e.g. a local array passed to a
    // call): rematerialize its address at each use so the def always
    // dominates.
    if (const auto* in = dynamic_cast<const Instruction*>(v);
        in && in->opcode() == Opcode::Alloca) {
      const std::int16_t r = newVReg(false);
      MInst lea;
      lea.op = MOp::Lea;
      lea.dst = r;
      lea.mem.base = kFP;
      lea.mem.disp = allocaOffset_.at(in);
      emit(lea);
      return r;
    }
    switch (v->kind()) {
    case ir::ValueKind::ConstantInt: {
      const std::int16_t r = newVReg(false);
      MInst in;
      in.op = MOp::MovImm;
      in.dst = r;
      in.imm = static_cast<const ir::ConstantInt*>(v)->value();
      emit(in);
      return r; // not cached: constants rematerialize at each use
    }
    case ir::ValueKind::ConstantFP: {
      const std::int16_t r = newVReg(true);
      MInst in;
      in.op = MOp::FMovImm;
      in.dst = r;
      in.fimm = static_cast<const ir::ConstantFP*>(v)->value();
      emit(in);
      return r;
    }
    case ir::ValueKind::GlobalVariable: {
      const std::int16_t r = newVReg(false);
      MInst in;
      in.op = MOp::Lea;
      in.dst = r;
      in.mem.globalIdx =
          ml_.globalIndex.at(static_cast<const ir::GlobalVariable*>(v));
      emit(in);
      return r;
    }
    default:
      CARE_UNREACHABLE("value has no register: " + v->name());
    }
  }

  void bind(const Value* v, std::int16_t reg) {
    vregOf_[v] = reg;
    if (!v->name().empty()) namedVRegs_[v->name()] = reg;
  }

  /// Build a memory operand for pointer `p` (+ elemSize-scaled folding of a
  /// gep). Never emits code for allocas/globals/geps-of-those.
  MemRef addrOf(const Value* p, MType type) {
    MemRef m;
    m.type = type;
    if (const auto* in = dynamic_cast<const Instruction*>(p)) {
      if (in->opcode() == Opcode::Alloca) {
        m.base = kFP;
        m.disp = allocaOffset_.at(in);
        return m;
      }
      if (in->opcode() == Opcode::Gep) {
        const Value* q = in->operand(0);
        const Value* idx = in->operand(1);
        const unsigned scale = in->type()->pointee()->sizeBytes();
        // Resolve the base part.
        if (const auto* qi = dynamic_cast<const Instruction*>(q);
            qi && qi->opcode() == Opcode::Alloca) {
          m.base = kFP;
          m.disp = allocaOffset_.at(qi);
        } else if (q->kind() == ir::ValueKind::GlobalVariable) {
          m.globalIdx =
              ml_.globalIndex.at(static_cast<const ir::GlobalVariable*>(q));
        } else {
          m.base = regOf(q);
        }
        // Fold the index.
        if (const auto* ci = dynamic_cast<const ir::ConstantInt*>(idx)) {
          m.disp += ci->value() * static_cast<std::int64_t>(scale);
        } else {
          m.index = regOf(idx);
          m.scale = static_cast<std::uint8_t>(scale);
        }
        return m;
      }
    }
    if (p->kind() == ir::ValueKind::GlobalVariable) {
      m.globalIdx =
          ml_.globalIndex.at(static_cast<const ir::GlobalVariable*>(p));
      return m;
    }
    m.base = regOf(p);
    return m;
  }

  void lowerArgs();
  void lowerBlock(const BasicBlock* bb);
  void lowerInst(const Instruction* in, const Instruction* next);
  void lowerCall(const Instruction* in);
  void lowerTerminator(const Instruction* in);
  void emitPhiMoves(const BasicBlock* from, const BasicBlock* to);

  /// True if `in` is a gep used only as load/store addresses (emit nothing).
  static bool gepFullyFolded(const Instruction* in) {
    for (const ir::Use& u : in->uses()) {
      if (!u.user->isMemAccess()) return false;
      if (u.user->pointerOperand() != in) return false; // stored as a value
    }
    return true;
  }

  const Function& f_;
  const ModuleLowering& ml_;
  std::vector<MInst> code_;
  std::vector<bool> vregIsFP_;
  std::map<const Value*, std::int16_t> vregOf_;
  std::map<const Instruction*, std::int64_t> allocaOffset_; // rbp-relative
  std::map<std::string, std::int16_t> namedVRegs_;
  std::uint32_t allocaBytes_ = 0;
  DebugLoc curLoc_;

  // Phi destruction state: phi -> (phiReg, tmpReg).
  std::map<const Instruction*, std::pair<std::int16_t, std::int16_t>> phiRegs_;
  // Loads fused into their immediately-following ALU user.
  std::map<const Instruction*, bool> fusedLoads_;
  // Compares fused into their condbr user.
  std::map<const Instruction*, bool> fusedCmps_;

  // Branch fixups: code index -> IR target block.
  std::vector<std::pair<std::size_t, const BasicBlock*>> fixups_;
  std::map<const BasicBlock*, std::int32_t> blockStart_;
  std::vector<std::uint32_t> callPositions_;
};

ISelResult ISel::run() {
  // Pre-assign frame slots to allocas and a virtual register to every
  // value-producing instruction. Doing this up front (rather than at each
  // def site) lets blocks reference values defined in later-ordered blocks,
  // which dominance allows and the inliner produces.
  for (const BasicBlock* bb : f_) {
    for (Instruction* in : *bb) {
      if (in->opcode() == Opcode::Alloca) {
        const std::uint64_t bytes =
            (in->allocaElemType()->sizeBytes() * in->allocaCount() + 7) & ~7ull;
        allocaBytes_ += static_cast<std::uint32_t>(bytes);
        allocaOffset_[in] = -static_cast<std::int64_t>(allocaBytes_);
      } else if (in->opcode() == Opcode::Phi) {
        const bool fp = isFPValue(in);
        phiRegs_[in] = {newVReg(fp), newVReg(fp)};
        bind(in, phiRegs_[in].first);
      } else if (!in->type()->isVoid()) {
        bind(in, newVReg(isFPValue(in)));
      }
    }
  }

  lowerArgs();
  for (const BasicBlock* bb : f_) lowerBlock(bb);

  // Resolve branch targets from block labels to instruction indices.
  for (const auto& [idx, bb] : fixups_) {
    auto it = blockStart_.find(bb);
    CARE_ASSERT(it != blockStart_.end(), "branch to unemitted block");
    code_[idx].target = it->second;
  }

  ISelResult res;
  res.fn.name = f_.name();
  res.fn.code = std::move(code_);
  for (unsigned i = 0; i < f_.numArgs(); ++i)
    res.fn.argTypes.push_back(mtypeFor(f_.arg(i)->type()));
  res.fn.hasRet = !f_.returnType()->isVoid();
  if (res.fn.hasRet) res.fn.retType = mtypeFor(f_.returnType());
  res.vregIsFP = std::move(vregIsFP_);
  res.allocaBytes = allocaBytes_;
  res.callPositions = std::move(callPositions_);
  res.namedVRegs = std::move(namedVRegs_);
  for (const auto& [inst, off] : allocaOffset_)
    if (!inst->name().empty()) res.allocaOffsets[inst->name()] = off;
  return res;
}

void ISel::lowerArgs() {
  // SysV-like: first 6 int-class and first 6 fp-class args in registers,
  // the rest on the caller's stack at [rbp + 16 + 8*k].
  int intN = 0, fpN = 0, stackN = 0;
  for (unsigned i = 0; i < f_.numArgs(); ++i) {
    const ir::Argument* a = f_.arg(i);
    const bool fp = isFPValue(a);
    const std::int16_t v = newVReg(fp);
    int& regN = fp ? fpN : intN;
    if (regN < kNumArgRegs)
      emit(copyReg(v, static_cast<std::int16_t>(kArg0 + regN++), fp));
    else
      emit(slotAccess(MOp::Load, v, fp, kFP, 16 + 8 * stackN++));
    bind(a, v);
  }
}

void ISel::lowerBlock(const BasicBlock* bb) {
  blockStart_[bb] = static_cast<std::int32_t>(code_.size());
  // Phi landing copies: phiReg <- tmpReg.
  for (const Instruction* in : *bb) {
    if (in->opcode() != Opcode::Phi) break;
    const auto [phiReg, tmpReg] = phiRegs_.at(in);
    curLoc_ = in->debugLoc();
    emit(copyReg(phiReg, tmpReg, isFPValue(in)));
  }
  for (std::size_t i = 0; i < bb->size(); ++i) {
    const Instruction* in = bb->inst(i);
    if (in->opcode() == Opcode::Phi) continue;
    const Instruction* next =
        i + 1 < bb->size() ? bb->inst(i + 1) : nullptr;
    curLoc_ = in->debugLoc();
    if (in->isTerminator())
      lowerTerminator(in);
    else
      lowerInst(in, next);
  }
}

void ISel::lowerInst(const Instruction* in, const Instruction* next) {
  switch (in->opcode()) {
  case Opcode::Alloca:
    return; // frame slot pre-assigned; materialized via Lea on demand below
  case Opcode::Load: {
    // CISC fusion: single-use load whose user is the *next* instruction,
    // an ALU op of matching class where the load can sit as the memory
    // operand. The fused instruction inherits this load's debug location
    // via the user's handling (Armor mirrors this: it attaches the memory
    // access's debug info to the direct user).
    if (next && in->uses().size() == 1 && in->uses()[0].user == next &&
        next->isBinaryOp() && !in->type()->isBool()) {
      const bool loadFP = in->type()->isFloat();
      const bool userFP = next->operand(0)->type()->isFloat();
      if (loadFP == userFP) {
        const bool isRhs = next->operand(1) == in;
        const bool isLhs = next->operand(0) == in;
        if ((isRhs && !isLhs) || (isLhs && commutative(next->opcode()))) {
          fusedLoads_[in] = true;
          return; // emitted as part of the user
        }
      }
    }
    MInst mi;
    mi.op = MOp::Load;
    mi.dst = vregOf_.at(in);
    mi.mem = addrOf(in->pointerOperand(), mtypeFor(in->type()));
    emit(mi);
    return;
  }
  case Opcode::Store: {
    const Value* v = in->operand(0);
    MInst mi;
    mi.op = MOp::Store;
    mi.src1 = regOf(v);
    mi.mem = addrOf(in->pointerOperand(), mtypeFor(v->type()));
    emit(mi);
    return;
  }
  case Opcode::Gep: {
    if (gepFullyFolded(in)) return;
    MInst mi;
    mi.op = MOp::Lea;
    mi.dst = vregOf_.at(in);
    mi.mem = addrOf(in->operand(0), MType::I64);
    const unsigned scale = in->type()->pointee()->sizeBytes();
    if (const auto* ci = dynamic_cast<const ir::ConstantInt*>(in->operand(1))) {
      mi.mem.disp += ci->value() * static_cast<std::int64_t>(scale);
    } else {
      CARE_ASSERT(mi.mem.index == kNoReg, "gep-of-gep with two indexes");
      mi.mem.index = regOf(in->operand(1));
      mi.mem.scale = static_cast<std::uint8_t>(scale);
    }
    emit(mi);
    return;
  }
  default:
    break;
  }

  if (in->isBinaryOp()) {
    const bool fp = in->type()->isFloat();
    MInst mi;
    // Fused-memory form?
    const Instruction* lhsLoad = dynamic_cast<const Instruction*>(in->operand(0));
    const Instruction* rhsLoad = dynamic_cast<const Instruction*>(in->operand(1));
    const Instruction* fused = nullptr;
    bool swapped = false;
    if (rhsLoad && fusedLoads_.count(rhsLoad)) {
      fused = rhsLoad;
    } else if (lhsLoad && fusedLoads_.count(lhsLoad)) {
      fused = lhsLoad;
      swapped = true;
    }
    if (fused) {
      mi.op = fp ? MOp::FAluMem : MOp::IAluMem;
      mi.sub = static_cast<std::uint8_t>(aluMOp(in->opcode()));
      mi.dst = vregOf_.at(in);
      mi.src1 = regOf(swapped ? in->operand(1) : in->operand(0));
      mi.mem = addrOf(fused->pointerOperand(), mtypeFor(fused->type()));
      mi.narrow = fp ? (in->type() == Type::f32())
                     : (in->type() == Type::i32());
      // x86 folds the load into the consumer; debug info for the memory
      // access must point at this instruction (paper §3.3).
      MInst& out = emit(mi);
      if (fused->debugLoc().valid()) out.loc = fused->debugLoc();
      return;
    }
    mi.op = aluMOp(in->opcode());
    mi.dst = vregOf_.at(in);
    mi.src1 = regOf(in->operand(0));
    mi.narrow =
        fp ? (in->type() == Type::f32()) : (in->type() == Type::i32());
    if (!fp) {
      if (const auto* ci =
              dynamic_cast<const ir::ConstantInt*>(in->operand(1))) {
        mi.src2 = kNoReg;
        mi.imm = ci->value();
      } else {
        mi.src2 = regOf(in->operand(1));
      }
    } else {
      mi.src2 = regOf(in->operand(1));
    }
    emit(mi);
    return;
  }

  switch (in->opcode()) {
  case Opcode::ICmp:
  case Opcode::FCmp: {
    // Fuse into a conditional branch when the single user is this block's
    // terminator.
    if (in->uses().size() == 1) {
      const Instruction* user = in->uses()[0].user;
      if (user->opcode() == Opcode::CondBr && user->parent() == in->parent()) {
        fusedCmps_[in] = true;
        return;
      }
    }
    MInst mi;
    mi.op = in->opcode() == Opcode::ICmp ? MOp::SetCmp : MOp::FSetCmp;
    mi.sub = static_cast<std::uint8_t>(in->pred());
    mi.dst = vregOf_.at(in);
    mi.src1 = regOf(in->operand(0));
    const auto* rc = dynamic_cast<const ir::ConstantInt*>(in->operand(1));
    if (mi.op == MOp::SetCmp && rc) {
      mi.src2 = kNoReg;
      mi.imm = rc->value();
    } else {
      mi.src2 = regOf(in->operand(1));
    }
    emit(mi);
    return;
  }
  case Opcode::Sext:
  case Opcode::Zext:
  case Opcode::Trunc:
  case Opcode::SIToFP:
  case Opcode::FPToSI:
  case Opcode::FPExt:
  case Opcode::FPTrunc: {
    // Indexed from Sext. Integer values are kept sign-extended in 64-bit
    // registers, so sext and zext are plain register copies.
    static constexpr MOp kCastMOp[] = {
        MOp::Mov,      MOp::Mov,      MOp::Sext32,    MOp::CvtSiToF,
        MOp::CvtFToSi, MOp::CvtF32F64, MOp::CvtF64F32,
    };
    MInst mi;
    mi.op = kCastMOp[static_cast<int>(in->opcode()) -
                     static_cast<int>(Opcode::Sext)];
    mi.dst = vregOf_.at(in);
    mi.src1 = regOf(in->operand(0));
    mi.narrow = (in->opcode() == Opcode::SIToFP ||
                 in->opcode() == Opcode::FPToSI) &&
                ir::isNarrow(in->type());
    emit(mi);
    return;
  }
  case Opcode::Call:
    lowerCall(in);
    return;
  default:
    CARE_UNREACHABLE(std::string("ISel: unsupported opcode ") +
                     ir::opcodeName(in->opcode()));
  }
}

void ISel::lowerCall(const Instruction* in) {
  const ir::Function* callee = in->callee();
  // Math intrinsics: register-to-register, no frame, no clobbers.
  if (callee->isIntrinsic()) {
    MInst mi;
    mi.op = MOp::MathCall;
    mi.sub = static_cast<std::uint8_t>(ir::mathFnByName(callee->name()));
    mi.dst = vregOf_.at(in);
    mi.src1 = regOf(in->operand(0));
    if (in->numOperands() > 1) mi.src2 = regOf(in->operand(1));
    emit(mi);
    return;
  }
  // Runtime services: one MIR op each, indexed by ir::RuntimeFn.
  if (const auto rt = ir::runtimeFnByName(callee->name())) {
    static constexpr MOp kRuntimeMOp[] = {MOp::Emit, MOp::EmitI, MOp::Abort,
                                          MOp::Barrier, MOp::SentinelTrap};
    MInst mi;
    mi.op = kRuntimeMOp[static_cast<int>(*rt)];
    if (in->numOperands() > 0) mi.src1 = regOf(in->operand(0));
    emit(mi);
    return;
  }

  // Regular call: classify args.
  int intN = 0, fpN = 0;
  std::vector<std::pair<const Value*, bool>> stackArgs; // (value, isFP)
  std::vector<MInst> regMoves;
  for (unsigned i = 0; i < in->numOperands(); ++i) {
    const Value* a = in->operand(i);
    const bool fp = isFPValue(a);
    int& regN = fp ? fpN : intN;
    if (regN < kNumArgRegs)
      regMoves.push_back(
          copyReg(static_cast<std::int16_t>(kArg0 + regN++), regOf(a), fp));
    else
      stackArgs.push_back({a, fp});
  }
  // Stack args: reserve space (16-aligned), store them, then the reg moves,
  // then the call, then release the space. Stack stores happen before the
  // register moves so no instruction sits inside the arg-register window.
  std::int64_t stackBytes = 0;
  if (!stackArgs.empty()) {
    stackBytes = static_cast<std::int64_t>((stackArgs.size() * 8 + 15) & ~15ull);
    emit(adjustSP(-stackBytes));
    for (std::size_t k = 0; k < stackArgs.size(); ++k)
      emit(slotAccess(MOp::Store, regOf(stackArgs[k].first),
                      stackArgs[k].second, kSP,
                      static_cast<std::int64_t>(8 * k)));
  }
  for (const MInst& mv : regMoves) emit(mv);

  MInst call;
  call.op = MOp::Call;
  auto fit = ml_.funcIndex.find(callee);
  if (fit != ml_.funcIndex.end()) {
    call.target = fit->second;
  } else {
    call.externCall = true;
    call.target = ml_.externIndex.at(callee);
  }
  callPositions_.push_back(static_cast<std::uint32_t>(code_.size()));
  emit(call);

  if (stackBytes > 0) emit(adjustSP(stackBytes));
  if (!in->type()->isVoid())
    emit(copyReg(vregOf_.at(in), kRet, isFPValue(in)));
}

void ISel::emitPhiMoves(const BasicBlock* from, const BasicBlock* to) {
  for (const Instruction* in : *to) {
    if (in->opcode() != Opcode::Phi) break;
    const Value* incoming = nullptr;
    for (unsigned i = 0; i < in->numPhiIncoming(); ++i)
      if (in->phiBlock(i) == from) incoming = in->operand(i);
    CARE_ASSERT(incoming, "phi missing incoming for predecessor");
    const auto [phiReg, tmpReg] = phiRegs_.at(in);
    (void)phiReg;
    MInst mv;
    if (const auto* c = dynamic_cast<const ir::ConstantFP*>(incoming)) {
      mv.op = MOp::FMovImm;
      mv.dst = tmpReg;
      mv.fimm = c->value();
    } else if (const auto* k = dynamic_cast<const ir::ConstantInt*>(incoming)) {
      mv.op = MOp::MovImm;
      mv.dst = tmpReg;
      mv.imm = k->value();
    } else {
      mv = copyReg(tmpReg, regOf(incoming), isFPValue(in));
    }
    emit(mv);
  }
}

void ISel::lowerTerminator(const Instruction* in) {
  switch (in->opcode()) {
  case Opcode::Br: {
    emitPhiMoves(in->parent(), in->succ(0));
    MInst mi;
    mi.op = MOp::Jmp;
    fixups_.push_back({code_.size(), in->succ(0)});
    emit(mi);
    return;
  }
  case Opcode::CondBr: {
    emitPhiMoves(in->parent(), in->succ(0));
    emitPhiMoves(in->parent(), in->succ(1));
    const Value* cond = in->operand(0);
    MInst br;
    const auto* cmp = dynamic_cast<const Instruction*>(cond);
    if (cmp && fusedCmps_.count(cmp)) {
      br.op = cmp->opcode() == Opcode::ICmp ? MOp::BrCmp : MOp::FBrCmp;
      br.sub = static_cast<std::uint8_t>(cmp->pred());
      br.src1 = regOf(cmp->operand(0));
      const auto* rc = dynamic_cast<const ir::ConstantInt*>(cmp->operand(1));
      if (br.op == MOp::BrCmp && rc) {
        br.src2 = kNoReg;
        br.imm = rc->value();
      } else {
        br.src2 = regOf(cmp->operand(1));
      }
      br.loc = cmp->debugLoc();
    } else {
      // Branch on a materialized boolean: cond != 0 (immediate compare).
      br.op = MOp::BrCmp;
      br.sub = static_cast<std::uint8_t>(ir::CmpPred::NE);
      br.src1 = regOf(cond);
      br.src2 = kNoReg;
      br.imm = 0;
    }
    fixups_.push_back({code_.size(), in->succ(0)});
    emit(br);
    MInst jmp;
    jmp.op = MOp::Jmp;
    fixups_.push_back({code_.size(), in->succ(1)});
    emit(jmp);
    return;
  }
  case Opcode::Ret: {
    if (in->numOperands() == 1) {
      const Value* v = in->operand(0);
      emit(copyReg(kRet, regOf(v), isFPValue(v)));
    }
    MInst mi;
    mi.op = MOp::Ret;
    emit(mi);
    return;
  }
  default:
    CARE_UNREACHABLE("bad terminator");
  }
}

} // namespace

ISelResult selectInstructions(const Function& f, const ModuleLowering& ml) {
  return ISel(f, ml).run();
}

} // namespace care::backend
