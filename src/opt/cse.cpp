// Common-subexpression elimination.
//
// Two parts:
//  1. Dominator-scoped CSE of pure instructions (binary ops, casts,
//     compares, geps, selects, simple calls).
//  2. Block-local memory forwarding: a load observes the last store to the
//     same address in its block (and repeated loads fold), guarded by a
//     conservative base-object alias analysis. This is the optimization in
//     the paper's Fig. 8 that *extends* recovery-kernel coverage scopes.
#include <map>

#include "analysis/dominators.hpp"
#include "ir/scalar.hpp"
#include "opt/passes.hpp"

namespace care::opt {

using analysis::DominatorTree;
using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Value;

namespace {

bool isCsEable(const Instruction* in) {
  return ir::isPure(in) ||
         (in->opcode() == Opcode::Call && !in->hasSideEffects());
}

struct Key {
  Opcode op;
  ir::CmpPred pred;
  const void* callee;
  std::vector<const Value*> operands;

  bool operator<(const Key& o) const {
    if (op != o.op) return op < o.op;
    if (pred != o.pred) return pred < o.pred;
    if (callee != o.callee) return callee < o.callee;
    return operands < o.operands;
  }
};

Key keyFor(const Instruction* in) {
  Key k;
  k.op = in->opcode();
  k.pred = (in->opcode() == Opcode::ICmp || in->opcode() == Opcode::FCmp)
               ? in->pred()
               : ir::CmpPred::EQ;
  k.callee = in->opcode() == Opcode::Call ? in->callee() : nullptr;
  for (unsigned i = 0; i < in->numOperands(); ++i)
    k.operands.push_back(in->operand(i));
  return k;
}

/// May pointers a and b alias? Conservative.
bool mayAlias(const Value* a, const Value* b) {
  const Value* ba = ir::baseObject(a);
  const Value* bb = ir::baseObject(b);
  if (!ba || !bb) return true;
  // Distinct allocas / globals cannot alias; an argument may alias another
  // argument or a global (caller could pass a global's address) but not a
  // local alloca.
  auto isLocal = [](const Value* v) {
    const auto* in = dynamic_cast<const Instruction*>(v);
    return in && in->opcode() == Opcode::Alloca;
  };
  if (ba == bb) return true;
  if (isLocal(ba) || isLocal(bb)) return false; // distinct alloca vs anything
  if (ba->kind() == ir::ValueKind::GlobalVariable &&
      bb->kind() == ir::ValueKind::GlobalVariable)
    return false; // distinct globals
  return true;    // argument vs argument/global: assume aliasing
}

/// Block-local store->load and load->load forwarding.
bool forwardLoads(BasicBlock* bb) {
  bool changed = false;
  // Available memory values: pointer -> value currently in that cell.
  std::map<Value*, Value*> avail;
  for (std::size_t i = 0; i < bb->size();) {
    Instruction* in = bb->inst(i);
    switch (in->opcode()) {
    case Opcode::Load: {
      Value* p = in->operand(0);
      auto it = avail.find(p);
      if (it != avail.end() && it->second->type() == in->type()) {
        in->replaceAllUsesWith(it->second);
        in->dropOperands();
        bb->erase(i);
        changed = true;
        continue;
      }
      avail[p] = in;
      break;
    }
    case Opcode::Store: {
      Value* p = in->operand(1);
      // Invalidate entries that may alias the stored-to cell.
      for (auto it = avail.begin(); it != avail.end();) {
        if (it->first != p && mayAlias(it->first, p))
          it = avail.erase(it);
        else
          ++it;
      }
      avail[p] = in->operand(0);
      break;
    }
    case Opcode::Call:
      if (in->hasSideEffects()) avail.clear(); // callee may write anything
      break;
    default:
      break;
    }
    ++i;
  }
  return changed;
}

} // namespace

bool cse(Function& f) {
  if (f.isDeclaration()) return false;
  bool changed = false;

  // Part 1: dominator-scoped pure-expression CSE.
  DominatorTree dt(f);
  std::map<Key, std::vector<Instruction*>> table;
  for (BasicBlock* bb : dt.rpo()) {
    for (std::size_t i = 0; i < bb->size();) {
      Instruction* in = bb->inst(i);
      if (!isCsEable(in)) {
        ++i;
        continue;
      }
      Key k = keyFor(in);
      auto& cands = table[k];
      Instruction* found = nullptr;
      for (Instruction* c : cands)
        if (c != in && dt.dominates(c, in)) {
          found = c;
          break;
        }
      if (found) {
        in->replaceAllUsesWith(found);
        in->dropOperands();
        bb->erase(i);
        changed = true;
        continue;
      }
      cands.push_back(in);
      ++i;
    }
  }

  // Part 2: block-local memory forwarding.
  for (BasicBlock* bb : f) changed |= forwardLoads(bb);
  return changed;
}

} // namespace care::opt
