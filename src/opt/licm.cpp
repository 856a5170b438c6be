// Loop-invariant code motion.
//
// Hoists pure instructions (ir::isPure; a division only by a nonzero
// constant) whose operands are defined outside the loop into the
// preheader. For the paper's workloads this is what turns `mzeta + 1`-style
// subexpressions into long-lived register values that Armor can use as
// recovery-kernel parameters (extending kernel coverage scope at -O1).
#include <set>

#include "analysis/loopinfo.hpp"
#include "ir/scalar.hpp"
#include "opt/passes.hpp"

namespace care::opt {

using analysis::DominatorTree;
using analysis::Loop;
using analysis::LoopInfo;
using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Value;

namespace {

/// What the loop may write: the set of stored-to base objects, plus flags
/// for writes through unknown pointers and for calls that may write memory.
struct LoopMemSummary {
  std::set<const Value*> storedBases;
  bool unknownStore = false;
  bool opaqueCall = false;

  bool mayClobberGlobal(const Value* global) const {
    return unknownStore || opaqueCall || storedBases.count(global) > 0;
  }
};

LoopMemSummary summarizeLoopMemory(const Loop& loop) {
  LoopMemSummary s;
  for (const BasicBlock* bb : loop.blocks) {
    for (const Instruction* in : *bb) {
      if (in->opcode() == Opcode::Store) {
        const Value* base = ir::baseObject(in->pointerOperand());
        if (base)
          s.storedBases.insert(base);
        else
          s.unknownStore = true;
      } else if (in->opcode() == Opcode::Call && in->hasSideEffects()) {
        s.opaqueCall = true;
      }
    }
  }
  return s;
}

/// Loads of global scalars (or constant-indexed global cells) whose global
/// is never written inside the loop are loop-invariant and always safe to
/// execute in the preheader (globals are always mapped). Real compilers
/// register-promote these; without this, `mzeta`-style loads repeat every
/// iteration and distort both -O1 code and Table 5's statistics.
bool isInvariantGlobalLoad(const Instruction* in,
                           const LoopMemSummary& mem) {
  if (in->opcode() != Opcode::Load) return false;
  const Value* p = in->pointerOperand();
  const Value* base = ir::baseObject(p);
  if (!base || base->kind() != ir::ValueKind::GlobalVariable) return false;
  // Pointer must itself be loop-invariant: direct global or const-gep.
  if (p->kind() != ir::ValueKind::GlobalVariable) {
    const auto* gep = dynamic_cast<const Instruction*>(p);
    if (!gep || gep->opcode() != Opcode::Gep ||
        gep->operand(0)->kind() != ir::ValueKind::GlobalVariable ||
        !gep->operand(1)->isConstant())
      return false;
  }
  return !mem.mayClobberGlobal(base);
}

bool isHoistable(const Instruction* in) {
  // Division can trap; only hoist when the divisor is a nonzero constant.
  if (in->opcode() == Opcode::SDiv || in->opcode() == Opcode::SRem) {
    const auto* c = dynamic_cast<const ir::ConstantInt*>(in->operand(1));
    return c && c->value() != 0;
  }
  return ir::isPure(in);
}

bool operandsOutside(const Instruction* in, const Loop& loop) {
  for (unsigned i = 0; i < in->numOperands(); ++i) {
    const Value* op = in->operand(i);
    const auto* oi = dynamic_cast<const Instruction*>(op);
    if (oi && loop.contains(oi->parent())) return false;
  }
  return true;
}

bool hoistLoop(Function& f, Loop& loop) {
  BasicBlock* pre = loop.preheader();
  if (!pre) return false;
  const LoopMemSummary mem = summarizeLoopMemory(loop);
  bool changed = false;
  bool progress = true;
  while (progress) {
    progress = false;
    // Function block order, not loop.blocks' pointer order: the hoisting
    // order decides the preheader's instruction order, so it must not
    // depend on where the allocator placed the blocks.
    for (BasicBlock* bb : f) {
      if (!loop.contains(bb)) continue;
      for (std::size_t i = 0; i < bb->size();) {
        Instruction* in = bb->inst(i);
        if ((isHoistable(in) || isInvariantGlobalLoad(in, mem)) &&
            operandsOutside(in, loop)) {
          auto owned = bb->detach(i);
          // Insert before the preheader's terminator.
          pre->insertAt(pre->size() - 1, std::move(owned));
          progress = true;
          changed = true;
          continue;
        }
        ++i;
      }
    }
  }
  return changed;
}

} // namespace

bool licm(Function& f) {
  if (f.isDeclaration()) return false;
  DominatorTree dt(f);
  LoopInfo li(f, dt);
  bool changed = false;
  // Process inner loops first so invariants can bubble outwards across a
  // second pipeline iteration.
  for (const auto& l : li.loops()) changed |= hoistLoop(f, *l);
  return changed;
}

} // namespace care::opt
