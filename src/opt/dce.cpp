// Dead code elimination: drop unused instructions without side effects.
#include "opt/passes.hpp"

namespace care::opt {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;

namespace {

bool deletable(const Instruction* in) {
  if (in->hasUses()) return false;
  if (in->isTerminator()) return false;
  if (in->opcode() == Opcode::Alloca) return true; // unused stack slot
  if (in->opcode() == Opcode::Load) {
    // Our IR gives loads "may trap" side effects; an unused load from a
    // provably in-module object (alloca/global via geps) is still dead.
    const ir::Value* base = ir::baseObject(in->operand(0));
    return base && base->kind() != ir::ValueKind::Argument;
  }
  return !in->hasSideEffects();
}

} // namespace

bool dce(Function& f) {
  if (f.isDeclaration()) return false;
  bool anyChange = false;
  bool changed = true;
  while (changed) {
    changed = false;
    for (BasicBlock* bb : f) {
      for (std::size_t i = bb->size(); i-- > 0;) {
        Instruction* in = bb->inst(i);
        if (deletable(in)) {
          in->dropOperands();
          bb->erase(i);
          changed = true;
        }
      }
    }
    anyChange |= changed;
  }
  return anyChange;
}

} // namespace care::opt
