// Promote scalar allocas to SSA values: the classic phi-placement (iterated
// dominance frontier) + dominator-tree renaming algorithm.
//
// This pass is the main source of the paper's -O1 behaviour: after it runs,
// loop induction variables live in (virtual, later physical) registers and
// are updated in place — exactly the situation in which CARE cannot recover
// a corrupted induction variable (paper §5.6).
#include <map>
#include <set>

#include "analysis/dominators.hpp"
#include "ir/irbuilder.hpp"
#include "opt/passes.hpp"

namespace care::opt {

using analysis::DominatorTree;
using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Value;

namespace {

bool isPromotable(const Instruction* alloca) {
  if (alloca->opcode() != Opcode::Alloca) return false;
  if (alloca->allocaCount() != 1) return false; // arrays stay in memory
  for (const ir::Use& u : alloca->uses()) {
    const Instruction* user = u.user;
    if (user->opcode() == Opcode::Load) continue;
    if (user->opcode() == Opcode::Store &&
        user->operand(1) == alloca && user->operand(0) != alloca)
      continue;
    return false; // address escapes (gep, call arg, stored value, ...)
  }
  return true;
}

} // namespace

bool mem2reg(Function& f) {
  if (f.isDeclaration()) return false;
  DominatorTree dt(f);

  // Dominator-tree children lists for the renaming walk.
  std::map<const BasicBlock*, std::vector<BasicBlock*>> domChildren;
  for (BasicBlock* bb : dt.rpo()) {
    if (BasicBlock* p = dt.idom(bb)) domChildren[p].push_back(bb);
  }

  // Collect promotable allocas (they all live in the entry block in code
  // produced by our front end, but accept any position).
  std::vector<Instruction*> allocas;
  for (BasicBlock* bb : f)
    for (Instruction* in : *bb)
      if (isPromotable(in)) allocas.push_back(in);
  if (allocas.empty()) return false;

  std::map<const Instruction*, unsigned> allocaIndex;
  for (unsigned i = 0; i < allocas.size(); ++i) allocaIndex[allocas[i]] = i;

  // Phi placement at iterated dominance frontiers of defining blocks. Each
  // new phi goes to the top of its block, ahead of earlier ones.
  std::map<const Instruction*, unsigned> phiFor; // phi -> alloca index
  ir::IRBuilder b(f.parent());
  for (unsigned ai = 0; ai < allocas.size(); ++ai) {
    Instruction* a = allocas[ai];
    b.setDebugLoc(a->debugLoc());
    std::vector<BasicBlock*> work;
    std::set<BasicBlock*> defBlocks;
    for (const ir::Use& u : a->uses())
      if (u.user->opcode() == Opcode::Store)
        if (defBlocks.insert(u.user->parent()).second)
          work.push_back(u.user->parent());
    std::set<BasicBlock*> hasPhi;
    while (!work.empty()) {
      BasicBlock* bb = work.back();
      work.pop_back();
      if (!dt.reachable(bb)) continue;
      for (BasicBlock* df : dt.frontier(bb)) {
        if (!hasPhi.insert(df).second) continue;
        b.setInsertPoint(df, 0);
        phiFor[b.phi(a->allocaElemType(), a->name() + ".phi")] = ai;
        if (!defBlocks.count(df)) work.push_back(df);
      }
    }
  }

  // Renaming walk over the dominator tree.
  std::vector<std::vector<Value*>> stacks(allocas.size());
  ir::Module* mod = f.parent();
  auto currentDef = [&](unsigned ai) -> Value* {
    if (!stacks[ai].empty()) return stacks[ai].back();
    // Use before any store: defined as zero (our IR's "undef").
    ir::Type* t = allocas[ai]->allocaElemType();
    if (t->isFloat()) return mod->constFP(t, 0.0);
    if (t->isInteger()) return mod->constInt(t, 0);
    // Pointer-typed local without a store: materialize null-ish zero via
    // an i64 0 is not typeable; keep the load (shouldn't happen in
    // front-end output). Fall back to the alloca itself to stay type-safe.
    return nullptr;
  };

  struct Frame {
    BasicBlock* bb;
    std::size_t childIdx;
    std::vector<std::pair<unsigned, std::size_t>> pushed; // (alloca, depth)
  };

  // Recursive lambda via explicit stack to avoid deep recursion.
  std::vector<Frame> walk;
  auto enterBlock = [&](BasicBlock* bb, Frame& fr) {
    // Process instructions in order.
    for (std::size_t i = 0; i < bb->size();) {
      Instruction* in = bb->inst(i);
      if (in->opcode() == Opcode::Phi && phiFor.count(in)) {
        const unsigned ai = phiFor[in];
        stacks[ai].push_back(in);
        fr.pushed.push_back({ai, stacks[ai].size()});
        ++i;
        continue;
      }
      if (in->opcode() == Opcode::Load) {
        auto it = allocaIndex.find(
            dynamic_cast<Instruction*>(in->operand(0)));
        if (in->operand(0)->isInstruction() &&
            it != allocaIndex.end()) {
          Value* def = currentDef(it->second);
          if (def) {
            in->replaceAllUsesWith(def);
            in->dropOperands();
            bb->erase(i);
            continue;
          }
        }
      }
      if (in->opcode() == Opcode::Store && in->operand(1)->isInstruction()) {
        auto it = allocaIndex.find(
            static_cast<Instruction*>(in->operand(1)));
        if (it != allocaIndex.end()) {
          const unsigned ai = it->second;
          stacks[ai].push_back(in->operand(0));
          fr.pushed.push_back({ai, stacks[ai].size()});
          in->dropOperands();
          bb->erase(i);
          continue;
        }
      }
      ++i;
    }
    // Fill phi incomings of successors.
    for (BasicBlock* s : bb->successors()) {
      for (Instruction* in : *s) {
        if (in->opcode() != Opcode::Phi) break;
        auto it = phiFor.find(in);
        if (it == phiFor.end()) continue;
        Value* def = currentDef(it->second);
        if (!def) def = mod->constInt(ir::Type::i64(), 0); // unreachable path
        // A block can be a successor twice only via condbr with equal
        // targets; our builder never produces that.
        in->addPhiIncoming(def, bb);
      }
    }
  };

  walk.push_back({f.entry(), 0, {}});
  {
    Frame& fr = walk.back();
    enterBlock(fr.bb, fr);
  }
  while (!walk.empty()) {
    Frame& fr = walk.back();
    auto& children = domChildren[fr.bb];
    if (fr.childIdx < children.size()) {
      BasicBlock* child = children[fr.childIdx++];
      walk.push_back({child, 0, {}});
      Frame& nf = walk.back();
      enterBlock(nf.bb, nf);
      continue;
    }
    // Unwind: pop stack entries pushed by this block.
    for (auto it = fr.pushed.rbegin(); it != fr.pushed.rend(); ++it)
      stacks[it->first].pop_back();
    walk.pop_back();
  }

  // Remove the promoted allocas (now dead).
  for (Instruction* a : allocas) {
    CARE_ASSERT(!a->hasUses(), "promoted alloca still has uses");
    BasicBlock* bb = a->parent();
    bb->erase(bb->indexOf(a));
  }
  return true;
}

} // namespace care::opt
