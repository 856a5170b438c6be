#include "ir/irbuilder.hpp"

namespace care::ir {

std::string IRBuilder::autoName(const std::string& name) {
  if (!name.empty()) return name;
  return "t" + std::to_string(bb_->parent()->nextValueId());
}

Instruction* IRBuilder::place(std::unique_ptr<Instruction> in) {
  CARE_ASSERT(bb_, "no insertion point");
  if (pos_ == kAtEnd) return bb_->append(std::move(in));
  return bb_->insertAt(pos_++, std::move(in));
}

Instruction* IRBuilder::finish(std::unique_ptr<Instruction> in) {
  in->setDebugLoc(loc_);
  return place(std::move(in));
}

Instruction* IRBuilder::alloca_(Type* elemType, std::uint64_t count,
                                const std::string& name) {
  auto in = std::make_unique<Instruction>(Opcode::Alloca,
                                          Type::ptrTo(elemType),
                                          autoName(name));
  in->setAllocaInfo(elemType, count);
  return finish(std::move(in));
}

Instruction* IRBuilder::load(Value* ptr, const std::string& name) {
  CARE_ASSERT(ptr->type()->isPointer(), "load from non-pointer");
  auto in = std::make_unique<Instruction>(
      Opcode::Load, ptr->type()->pointee(), autoName(name));
  in->addOperand(ptr);
  return finish(std::move(in));
}

Instruction* IRBuilder::store(Value* val, Value* ptr) {
  CARE_ASSERT(ptr->type()->isPointer(), "store to non-pointer");
  CARE_ASSERT(ptr->type()->pointee() == val->type(),
              "store type mismatch: " + val->type()->str() + " to " +
                  ptr->type()->str());
  auto in = std::make_unique<Instruction>(Opcode::Store, Type::voidTy(), "");
  in->addOperand(val);
  in->addOperand(ptr);
  return finish(std::move(in));
}

Instruction* IRBuilder::gep(Value* ptr, Value* index,
                            const std::string& name) {
  CARE_ASSERT(ptr->type()->isPointer(), "gep on non-pointer");
  CARE_ASSERT(index->type() == Type::i64(), "gep index must be i64");
  auto in =
      std::make_unique<Instruction>(Opcode::Gep, ptr->type(), autoName(name));
  in->addOperand(ptr);
  in->addOperand(index);
  return finish(std::move(in));
}

Instruction* IRBuilder::binary(Opcode op, Value* a, Value* b,
                               const std::string& name) {
  CARE_ASSERT(a->type() == b->type(), "binary operand type mismatch");
  const bool isFP = op >= Opcode::FAdd && op <= Opcode::FDiv;
  CARE_ASSERT(isFP ? a->type()->isFloat() : a->type()->isInteger(),
              "binary op / operand class mismatch");
  auto in = std::make_unique<Instruction>(op, a->type(), autoName(name));
  in->addOperand(a);
  in->addOperand(b);
  return finish(std::move(in));
}

Instruction* IRBuilder::icmp(CmpPred p, Value* a, Value* b,
                             const std::string& name) {
  CARE_ASSERT(a->type() == b->type() &&
                  (a->type()->isInteger() || a->type()->isPointer()),
              "icmp operand mismatch");
  auto in =
      std::make_unique<Instruction>(Opcode::ICmp, Type::i1(), autoName(name));
  in->setPred(p);
  in->addOperand(a);
  in->addOperand(b);
  return finish(std::move(in));
}

Instruction* IRBuilder::fcmp(CmpPred p, Value* a, Value* b,
                             const std::string& name) {
  CARE_ASSERT(a->type() == b->type() && a->type()->isFloat(),
              "fcmp operand mismatch");
  auto in =
      std::make_unique<Instruction>(Opcode::FCmp, Type::i1(), autoName(name));
  in->setPred(p);
  in->addOperand(a);
  in->addOperand(b);
  return finish(std::move(in));
}

Instruction* IRBuilder::cast(Opcode op, Value* v, Type* to,
                             const std::string& name) {
  auto in = std::make_unique<Instruction>(op, to, autoName(name));
  in->addOperand(v);
  return finish(std::move(in));
}

Instruction* IRBuilder::phi(Type* type, const std::string& name) {
  CARE_ASSERT(bb_, "no insertion point");
  auto in = std::make_unique<Instruction>(Opcode::Phi, type, autoName(name));
  in->setDebugLoc(loc_);
  // Phis belong at the top of the block, before any non-phi.
  if (pos_ == kAtEnd) return bb_->insertAt(bb_->firstNonPhi(), std::move(in));
  CARE_ASSERT(pos_ <= bb_->firstNonPhi(), "phi after a non-phi");
  return place(std::move(in));
}

Instruction* IRBuilder::call(Function* callee,
                             const std::vector<Value*>& args,
                             const std::string& name) {
  CARE_ASSERT(callee->numArgs() == args.size(), "call arity mismatch");
  for (unsigned i = 0; i < args.size(); ++i)
    CARE_ASSERT(args[i]->type() == callee->arg(i)->type(),
                "call argument type mismatch in call to " + callee->name());
  auto in = std::make_unique<Instruction>(
      Opcode::Call, callee->returnType(),
      callee->returnType()->isVoid() ? "" : autoName(name));
  in->setCallee(callee);
  for (Value* a : args) in->addOperand(a);
  return finish(std::move(in));
}

Instruction* IRBuilder::select(Value* cond, Value* t, Value* f,
                               const std::string& name) {
  CARE_ASSERT(cond->type()->isBool(), "select condition must be i1");
  CARE_ASSERT(t->type() == f->type(), "select arm type mismatch");
  auto in =
      std::make_unique<Instruction>(Opcode::Select, t->type(), autoName(name));
  in->addOperand(cond);
  in->addOperand(t);
  in->addOperand(f);
  return finish(std::move(in));
}

Instruction* IRBuilder::br(BasicBlock* dest) {
  auto in = std::make_unique<Instruction>(Opcode::Br, Type::voidTy(), "");
  in->setSuccs({dest});
  return finish(std::move(in));
}

Instruction* IRBuilder::condBr(Value* cond, BasicBlock* ifTrue,
                               BasicBlock* ifFalse) {
  CARE_ASSERT(cond->type()->isBool(), "condbr condition must be i1");
  auto in = std::make_unique<Instruction>(Opcode::CondBr, Type::voidTy(), "");
  in->addOperand(cond);
  in->setSuccs({ifTrue, ifFalse});
  return finish(std::move(in));
}

Instruction* IRBuilder::ret(Value* v) {
  auto in = std::make_unique<Instruction>(Opcode::Ret, Type::voidTy(), "");
  if (v) in->addOperand(v);
  return finish(std::move(in));
}

Instruction* IRBuilder::clone(const Instruction& in, const std::string& name) {
  auto ni = std::make_unique<Instruction>(in.opcode(), in.type(), name);
  ni->setAllocaInfo(in.allocaElemType(), in.allocaCount());
  ni->setPred(in.pred());
  ni->setCallee(in.callee());
  ni->setDebugLoc(in.debugLoc());
  return place(std::move(ni));
}

std::map<const BasicBlock*, BasicBlock*> cloneBody(
    const Function& src, Function& dst, const std::string& blockPrefix,
    const std::function<Value*(const Value*)>& outside) {
  std::map<const BasicBlock*, BasicBlock*> bmap;
  for (const BasicBlock* bb : src)
    bmap[bb] = dst.addBlock(blockPrefix + bb->name());
  std::map<const Value*, Value*> vmap;
  IRBuilder b(dst.parent());
  for (const BasicBlock* bb : src) {
    b.setInsertPoint(bmap[bb]);
    for (const Instruction* in : *bb) {
      Instruction* ni = b.clone(*in, in->name());
      if (const Function* callee = in->callee()) {
        Value* mapped = outside(callee);
        CARE_ASSERT(mapped->kind() == ValueKind::Function,
                    "callee mapped to a non-function");
        ni->setCallee(static_cast<Function*>(mapped));
      }
      vmap[in] = ni;
    }
  }
  auto map = [&](const Value* v) {
    auto it = vmap.find(v);
    return it != vmap.end() ? it->second : outside(v);
  };
  for (const BasicBlock* bb : src) {
    for (const Instruction* in : *bb) {
      auto* ni = static_cast<Instruction*>(vmap[in]);
      if (in->opcode() == Opcode::Phi) {
        for (unsigned i = 0; i < in->numPhiIncoming(); ++i)
          ni->addPhiIncoming(map(in->operand(i)), bmap.at(in->phiBlock(i)));
      } else {
        for (unsigned i = 0; i < in->numOperands(); ++i)
          ni->addOperand(map(in->operand(i)));
      }
      if (in->numSuccs() > 0) {
        std::vector<BasicBlock*> succs;
        for (unsigned i = 0; i < in->numSuccs(); ++i)
          succs.push_back(bmap.at(in->succ(i)));
        ni->setSuccs(std::move(succs));
      }
    }
  }
  return bmap;
}

} // namespace care::ir
