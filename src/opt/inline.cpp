// Function inlining.
//
// Real -O1 pipelines inline small callees; without it, tiny helpers (the
// minimum-image computation in MD codes, index helpers in PIC codes) put
// call/prologue traffic in the hottest loops, distorting both performance
// and the fault-injection profile (frame-pointer faults are never
// CARE-recoverable). The heuristic is deliberately simple: inline defined
// callees below a size threshold, bottom-up, never recursive calls.
#include "ir/irbuilder.hpp"
#include "opt/passes.hpp"

namespace care::opt {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Value;

namespace {

constexpr std::size_t kMaxCalleeInstrs = 40;

std::size_t functionSize(const Function& f) {
  std::size_t n = 0;
  for (const BasicBlock* bb : f) n += bb->size();
  return n;
}

bool callsSelf(const Function& f) {
  for (const BasicBlock* bb : f)
    for (const Instruction* in : *bb)
      if (in->opcode() == Opcode::Call && in->callee() == &f) return true;
  return false;
}

/// Inline one call site. `callBB` is split after the call; the callee body
/// is cloned between the halves with arguments substituted; returns become
/// branches to the continuation block and feed a phi there.
void inlineCall(Function& caller, BasicBlock* callBB, std::size_t callIdx) {
  Instruction* call = callBB->inst(callIdx);
  const Function* callee = call->callee();
  BasicBlock* cont = callBB->splitAt(callIdx + 1, callee->name() + ".cont");

  // Constants, globals and callees are the caller module's own.
  const auto bmap = ir::cloneBody(
      *callee, caller, callee->name() + ".", [&](const Value* v) -> Value* {
        if (v->kind() == ir::ValueKind::Argument)
          return call->operand(static_cast<const ir::Argument*>(v)->index());
        return const_cast<Value*>(v);
      });

  ir::IRBuilder b(caller.parent());
  std::vector<std::pair<Value*, BasicBlock*>> returns;
  for (const BasicBlock* bb : *callee) {
    BasicBlock* nb = bmap.at(bb);
    Instruction* ret = nb->terminator();
    if (ret->opcode() != Opcode::Ret) continue;
    returns.push_back({ret->numOperands() ? ret->operand(0) : nullptr, nb});
    b.setDebugLoc(ret->debugLoc());
    ret->dropOperands();
    nb->erase(nb->size() - 1);
    b.setInsertPoint(nb);
    b.br(cont);
  }

  // Replace the call's result with the merged return value.
  if (!call->type()->isVoid()) {
    Value* result = returns[0].first;
    if (returns.size() > 1) {
      b.setInsertPoint(cont, 0);
      b.setDebugLoc(call->debugLoc());
      Instruction* phi = b.phi(call->type(), callee->name() + ".ret");
      for (auto& [v, bb] : returns) phi->addPhiIncoming(v, bb);
      result = phi;
    }
    call->replaceAllUsesWith(result);
  }
  // Delete the call; end callBB with a branch to the cloned entry.
  call->dropOperands();
  callBB->erase(callIdx);
  b.setInsertPoint(callBB);
  b.setDebugLoc({});
  b.br(bmap.at(callee->entry()));
}

} // namespace

bool inlineFunctions(ir::Module& m) {
  bool changed = false;
  for (Function* caller : m) {
    if (caller->isDeclaration()) continue;
    bool progress = true;
    int guard = 0;
    while (progress && guard++ < 64) {
      progress = false;
      for (std::size_t bi = 0; bi < caller->numBlocks() && !progress; ++bi) {
        BasicBlock* bb = caller->block(bi);
        for (std::size_t i = 0; i < bb->size(); ++i) {
          Instruction* in = bb->inst(i);
          if (in->opcode() != Opcode::Call) continue;
          const Function* callee = in->callee();
          if (!callee || callee->isDeclaration() || callee->isIntrinsic() ||
              callee == caller || callsSelf(*callee))
            continue;
          if (functionSize(*callee) > kMaxCalleeInstrs) continue;
          inlineCall(*caller, bb, i);
          progress = true;
          changed = true;
          break;
        }
      }
    }
  }
  return changed;
}

} // namespace care::opt
