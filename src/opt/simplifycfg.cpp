#include <set>

#include "ir/irbuilder.hpp"
#include "opt/passes.hpp"

namespace care::opt {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Value;

namespace {

/// Drop phi-incoming entries flowing in from `pred` into `bb`.
void removePhiIncomingFrom(BasicBlock* bb, BasicBlock* pred) {
  for (Instruction* in : *bb) {
    if (in->opcode() != Opcode::Phi) break;
    for (unsigned i = 0; i < in->numPhiIncoming();) {
      if (in->phiBlock(i) == pred) {
        // Remove operand i and its block entry: swap-with-last then pop via
        // rebuilding (operand lists have no random erase; rebuild).
        std::vector<Value*> vals;
        std::vector<BasicBlock*> blocks;
        for (unsigned j = 0; j < in->numPhiIncoming(); ++j) {
          if (j == i) continue;
          vals.push_back(in->operand(j));
          blocks.push_back(in->phiBlock(j));
        }
        in->dropOperands();
        for (unsigned j = 0; j < vals.size(); ++j)
          in->addPhiIncoming(vals[j], blocks[j]);
      } else {
        ++i;
      }
    }
  }
}

/// Replace single-entry phis with their value.
bool foldTrivialPhis(BasicBlock* bb) {
  bool changed = false;
  for (std::size_t i = 0; i < bb->size();) {
    Instruction* in = bb->inst(i);
    if (in->opcode() != Opcode::Phi) break;
    if (in->numPhiIncoming() == 1) {
      in->replaceAllUsesWith(in->operand(0));
      in->dropOperands();
      bb->erase(i);
      changed = true;
      continue;
    }
    // All-same-value phi.
    bool allSame = in->numPhiIncoming() > 0;
    for (unsigned j = 1; j < in->numPhiIncoming(); ++j)
      if (in->operand(j) != in->operand(0)) allSame = false;
    if (allSame && in->operand(0) != in) {
      Value* v = in->operand(0);
      in->replaceAllUsesWith(v);
      in->dropOperands();
      bb->erase(i);
      changed = true;
      continue;
    }
    ++i;
  }
  return changed;
}

} // namespace

bool simplifyCfg(Function& f) {
  bool anyChange = false;
  bool changed = true;
  while (changed) {
    changed = false;

    // 1. Fold constant conditional branches.
    for (BasicBlock* bb : f) {
      Instruction* t = bb->terminator();
      if (!t || t->opcode() != Opcode::CondBr) continue;
      auto* c = dynamic_cast<ir::ConstantInt*>(t->operand(0));
      if (!c) continue;
      BasicBlock* taken = c->value() ? t->succ(0) : t->succ(1);
      BasicBlock* dead = c->value() ? t->succ(1) : t->succ(0);
      const std::size_t ti = bb->indexOf(t);
      t->dropOperands();
      t->setSuccs({});
      bb->erase(ti);
      ir::IRBuilder b(f.parent());
      b.setInsertPoint(bb);
      b.br(taken);
      if (dead != taken) removePhiIncomingFrom(dead, bb);
      changed = true;
    }

    // 2. Remove unreachable blocks.
    std::set<BasicBlock*> reachable;
    std::vector<BasicBlock*> stack{f.entry()};
    while (!stack.empty()) {
      BasicBlock* bb = stack.back();
      stack.pop_back();
      if (!reachable.insert(bb).second) continue;
      for (BasicBlock* s : bb->successors()) stack.push_back(s);
    }
    for (std::size_t i = 0; i < f.numBlocks();) {
      BasicBlock* bb = f.block(i);
      if (reachable.count(bb)) {
        ++i;
        continue;
      }
      for (BasicBlock* s : bb->successors())
        if (reachable.count(s)) removePhiIncomingFrom(s, bb);
      // Detach value flow before deletion.
      for (Instruction* in : *bb) {
        if (in->hasUses()) {
          // Uses can only be in other unreachable blocks or this one; break
          // the cycle by replacing with a zero constant of matching type.
          Value* zero = nullptr;
          ir::Module* m = f.parent();
          if (in->type()->isFloat())
            zero = m->constFP(in->type(), 0.0);
          else if (in->type()->isInteger())
            zero = m->constInt(in->type(), 0);
          if (zero) in->replaceAllUsesWith(zero);
        }
      }
      f.eraseBlock(i);
      changed = true;
    }

    // 3. Fold trivial phis (blocks that lost predecessors).
    for (BasicBlock* bb : f) changed |= foldTrivialPhis(bb);

    // 4. Merge bb -> succ when bb's only successor has bb as only pred.
    for (BasicBlock* bb : f) {
      Instruction* t = bb->terminator();
      if (!t || t->opcode() != Opcode::Br) continue;
      BasicBlock* succ = t->succ(0);
      if (succ == bb || succ == f.entry()) continue;
      auto preds = succ->predecessors();
      if (preds.size() != 1) continue;
      // Splice: kill bb's terminator, then move succ's instructions in.
      foldTrivialPhis(succ); // single-pred phis become direct values
      const std::size_t ti = bb->indexOf(t);
      t->setSuccs({});
      bb->erase(ti);
      while (!succ->empty()) {
        auto in = succ->detach(0);
        bb->append(std::move(in));
      }
      // Successor blocks of the moved terminator may have phis naming succ.
      for (BasicBlock* s2 : bb->successors()) s2->repointPhis(succ, bb);
      f.eraseBlock(f.indexOfBlock(succ));
      changed = true;
      break; // block list mutated; restart scan
    }

    anyChange |= changed;
  }
  return anyChange;
}

} // namespace care::opt
