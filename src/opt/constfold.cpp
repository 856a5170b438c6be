// Constant folding and algebraic simplification. A pure op other than a gep
// folds on constant operands through ir::evalPure, the recovery kernels'
// evaluator, with the machine's own semantics; an op that would trap is
// kept.
#include "ir/scalar.hpp"
#include "opt/passes.hpp"

namespace care::opt {

using ir::ConstantFP;
using ir::ConstantInt;
using ir::Function;
using ir::Instruction;
using ir::Module;
using ir::Opcode;
using ir::Type;
using ir::Value;

namespace {

/// A constant's 64 bits as the machine holds them (FP as double bits).
bool constBits(const Value* v, std::uint64_t& out) {
  if (const auto* ci = dynamic_cast<const ConstantInt*>(v)) {
    out = static_cast<std::uint64_t>(ci->value());
    return true;
  }
  if (const auto* cf = dynamic_cast<const ConstantFP*>(v)) {
    out = ir::bitsOfFP(cf->value());
    return true;
  }
  return false;
}

Value* constOfBits(Module* m, Type* t, std::uint64_t bits) {
  if (t->isFloat()) return m->constFP(t, ir::fpOfBits(bits));
  return m->constInt(t, static_cast<std::int64_t>(bits));
}

/// Try to compute a replacement for `in`; null if nothing applies.
Value* simplify(Module* m, Instruction* in) {
  const Opcode op = in->opcode();
  auto asInt = [](Value* v) { return dynamic_cast<ConstantInt*>(v); };

  std::uint64_t ops[ir::kMaxPureOperands] = {};
  if (ir::isPure(in) && op != Opcode::Gep) {
    unsigned i = 0;
    while (i < in->numOperands() && constBits(in->operand(i), ops[i])) ++i;
    if (i == in->numOperands()) {
      std::uint64_t r = 0;
      if (!ir::evalPure(in, ops, r)) return nullptr; // keep a trapping op
      return constOfBits(m, in->type(), r);
    }
  }

  if (in->isBinaryOp()) {
    // Integer identities (exact; FP identities are skipped on purpose:
    // x+0.0 and x*1.0 are not identities under signed zero / NaN).
    Value* a = in->operand(0);
    Value* b = in->operand(1);
    auto* cb = asInt(b);
    auto* ca = asInt(a);
    switch (op) {
    case Opcode::Add:
      if (cb && cb->value() == 0) return a;
      if (ca && ca->value() == 0) return b;
      break;
    case Opcode::Sub:
      if (cb && cb->value() == 0) return a;
      break;
    case Opcode::Mul:
      if (cb && cb->value() == 1) return a;
      if (ca && ca->value() == 1) return b;
      if (cb && cb->value() == 0) return m->constInt(in->type(), 0);
      if (ca && ca->value() == 0) return m->constInt(in->type(), 0);
      break;
    case Opcode::SDiv:
      if (cb && cb->value() == 1) return a;
      break;
    default:
      break;
    }
    return nullptr;
  }

  if (op == Opcode::ICmp && in->operand(0) == in->operand(1)) {
    // x pred x is decidable for integers.
    switch (in->pred()) {
    case ir::CmpPred::EQ:
    case ir::CmpPred::LE:
    case ir::CmpPred::GE:
      return m->constBool(true);
    default:
      return m->constBool(false);
    }
  }

  if (op == Opcode::Select) {
    if (auto* c = asInt(in->operand(0)))
      return c->value() ? in->operand(1) : in->operand(2);
    if (in->operand(1) == in->operand(2)) return in->operand(1);
  }
  return nullptr;
}

} // namespace

bool constFold(Function& f) {
  if (f.isDeclaration()) return false;
  Module* m = f.parent();
  bool anyChange = false;
  bool changed = true;
  while (changed) {
    changed = false;
    for (ir::BasicBlock* bb : f) {
      for (std::size_t i = 0; i < bb->size();) {
        Instruction* in = bb->inst(i);
        Value* repl = simplify(m, in);
        if (repl && repl != in) {
          in->replaceAllUsesWith(repl);
          in->dropOperands();
          bb->erase(i);
          changed = true;
          continue;
        }
        ++i;
      }
    }
    anyChange |= changed;
  }
  return anyChange;
}

} // namespace care::opt
