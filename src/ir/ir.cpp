// Implementation of Value/Instruction/BasicBlock/Function/Module.
#include <algorithm>
#include <cstring>

#include "ir/module.hpp"
#include "ir/scalar.hpp"

namespace care::ir {

// --------------------------------------------------------------------------
// Value
// --------------------------------------------------------------------------

void Value::replaceAllUsesWith(Value* repl) {
  CARE_ASSERT(repl != this, "RAUW with self");
  // setOperand mutates our use list; drain from a copy.
  std::vector<Use> snapshot = uses_;
  for (const Use& u : snapshot) u.user->setOperand(u.index, repl);
  CARE_ASSERT(uses_.empty(), "RAUW left dangling uses");
}

void Value::removeUse(Instruction* user, unsigned idx) {
  auto it = std::find_if(uses_.begin(), uses_.end(), [&](const Use& u) {
    return u.user == user && u.index == idx;
  });
  CARE_ASSERT(it != uses_.end(), "removeUse: edge not found");
  *it = uses_.back();
  uses_.pop_back();
}

// --------------------------------------------------------------------------
// Instruction
// --------------------------------------------------------------------------

Instruction::~Instruction() { dropOperands(); }

void Instruction::setOperand(unsigned i, Value* v) {
  CARE_ASSERT(i < operands_.size(), "operand index out of range");
  if (operands_[i]) operands_[i]->removeUse(this, i);
  operands_[i] = v;
  if (v) v->addUse(this, i);
}

void Instruction::addOperand(Value* v) {
  operands_.push_back(nullptr);
  setOperand(static_cast<unsigned>(operands_.size() - 1), v);
}

void Instruction::dropOperands() {
  for (unsigned i = 0; i < operands_.size(); ++i)
    if (operands_[i]) operands_[i]->removeUse(this, i);
  operands_.clear();
  phiBlocks_.clear();
}

Function* Instruction::function() const {
  return parent_ ? parent_->parent() : nullptr;
}

bool Instruction::hasSideEffects() const {
  switch (op_) {
  case Opcode::Store:
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
    return true;
  case Opcode::Call:
    // Intrinsics and "simple" callees are pure; everything else may write
    // memory or emit output.
    return !(callee_ && (callee_->isIntrinsic() || callee_->isSimpleCall()));
  case Opcode::SDiv:
  case Opcode::SRem:
    return true; // may trap (divide by zero)
  case Opcode::Load:
    return true; // may trap (invalid address); keep loads unless proven dead
  default:
    return false;
  }
}

const Value* baseObject(const Value* p) {
  for (;;) {
    if (p->kind() == ValueKind::GlobalVariable ||
        p->kind() == ValueKind::Argument)
      return p;
    const auto* in = dynamic_cast<const Instruction*>(p);
    if (!in) return nullptr;
    if (in->opcode() == Opcode::Alloca) return p;
    if (in->opcode() != Opcode::Gep) return nullptr;
    p = in->operand(0);
  }
}

const char* opcodeName(Opcode op) {
  switch (op) {
  case Opcode::Alloca: return "alloca";
  case Opcode::Load: return "load";
  case Opcode::Store: return "store";
  case Opcode::Gep: return "gep";
  case Opcode::Add: return "add";
  case Opcode::Sub: return "sub";
  case Opcode::Mul: return "mul";
  case Opcode::SDiv: return "sdiv";
  case Opcode::SRem: return "srem";
  case Opcode::And: return "and";
  case Opcode::Or: return "or";
  case Opcode::Xor: return "xor";
  case Opcode::Shl: return "shl";
  case Opcode::AShr: return "ashr";
  case Opcode::FAdd: return "fadd";
  case Opcode::FSub: return "fsub";
  case Opcode::FMul: return "fmul";
  case Opcode::FDiv: return "fdiv";
  case Opcode::ICmp: return "icmp";
  case Opcode::FCmp: return "fcmp";
  case Opcode::Sext: return "sext";
  case Opcode::Zext: return "zext";
  case Opcode::Trunc: return "trunc";
  case Opcode::SIToFP: return "sitofp";
  case Opcode::FPToSI: return "fptosi";
  case Opcode::FPExt: return "fpext";
  case Opcode::FPTrunc: return "fptrunc";
  case Opcode::Phi: return "phi";
  case Opcode::Call: return "call";
  case Opcode::Select: return "select";
  case Opcode::Br: return "br";
  case Opcode::CondBr: return "condbr";
  case Opcode::Ret: return "ret";
  }
  CARE_UNREACHABLE("bad opcode");
}

const char* predName(CmpPred p) {
  switch (p) {
  case CmpPred::EQ: return "eq";
  case CmpPred::NE: return "ne";
  case CmpPred::LT: return "lt";
  case CmpPred::LE: return "le";
  case CmpPred::GT: return "gt";
  case CmpPred::GE: return "ge";
  }
  CARE_UNREACHABLE("bad pred");
}

// --------------------------------------------------------------------------
// BasicBlock
// --------------------------------------------------------------------------

Instruction* BasicBlock::append(std::unique_ptr<Instruction> in) {
  in->setParent(this);
  insts_.push_back(std::move(in));
  return insts_.back().get();
}

Instruction* BasicBlock::insertAt(std::size_t idx,
                                  std::unique_ptr<Instruction> in) {
  CARE_ASSERT(idx <= insts_.size(), "insert index out of range");
  in->setParent(this);
  auto it = insts_.insert(insts_.begin() + static_cast<std::ptrdiff_t>(idx),
                          std::move(in));
  return it->get();
}

void BasicBlock::erase(std::size_t idx) {
  CARE_ASSERT(idx < insts_.size(), "erase index out of range");
  CARE_ASSERT(!insts_[idx]->hasUses(), "erasing instruction with uses");
  insts_.erase(insts_.begin() + static_cast<std::ptrdiff_t>(idx));
}

std::unique_ptr<Instruction> BasicBlock::detach(std::size_t idx) {
  CARE_ASSERT(idx < insts_.size(), "detach index out of range");
  std::unique_ptr<Instruction> out = std::move(insts_[idx]);
  insts_.erase(insts_.begin() + static_cast<std::ptrdiff_t>(idx));
  out->setParent(nullptr);
  return out;
}

std::size_t BasicBlock::indexOf(const Instruction* in) const {
  for (std::size_t i = 0; i < insts_.size(); ++i)
    if (insts_[i].get() == in) return i;
  CARE_UNREACHABLE("instruction not in block");
}

std::size_t BasicBlock::firstNonPhi() const {
  std::size_t i = 0;
  while (i < insts_.size() && insts_[i]->opcode() == Opcode::Phi) ++i;
  return i;
}

std::vector<BasicBlock*> BasicBlock::successors() const {
  std::vector<BasicBlock*> out;
  if (Instruction* t = terminator())
    for (unsigned i = 0; i < t->numSuccs(); ++i) out.push_back(t->succ(i));
  return out;
}

std::vector<BasicBlock*> BasicBlock::predecessors() const {
  std::vector<BasicBlock*> out;
  for (BasicBlock* bb : *parent_) {
    for (BasicBlock* s : bb->successors()) {
      if (s == this) {
        out.push_back(bb);
        break;
      }
    }
  }
  return out;
}

BasicBlock* BasicBlock::splitAt(std::size_t idx, std::string name) {
  CARE_ASSERT(idx <= insts_.size(), "split index out of range");
  BasicBlock* tail = parent_->addBlock(std::move(name));
  while (insts_.size() > idx) tail->append(detach(idx));
  for (BasicBlock* s : tail->successors()) s->repointPhis(this, tail);
  return tail;
}

void BasicBlock::repointPhis(BasicBlock* from, BasicBlock* to) {
  for (Instruction* phi : *this) {
    if (phi->opcode() != Opcode::Phi) break;
    for (unsigned i = 0; i < phi->numPhiIncoming(); ++i)
      if (phi->phiBlock(i) == from) phi->setPhiBlock(i, to);
  }
}

// --------------------------------------------------------------------------
// Function
// --------------------------------------------------------------------------

Function::Function(std::string name, Type* retType,
                   std::vector<Type*> paramTypes, Module* parent)
    : Value(ValueKind::Function, Type::voidTy(), std::move(name)),
      parent_(parent), retType_(retType) {
  args_.reserve(paramTypes.size());
  for (unsigned i = 0; i < paramTypes.size(); ++i) {
    args_.push_back(std::make_unique<Argument>(
        paramTypes[i], "arg" + std::to_string(i), this, i));
  }
}

BasicBlock* Function::addBlock(std::string name) {
  blocks_.push_back(std::make_unique<BasicBlock>(std::move(name), this));
  return blocks_.back().get();
}

void Function::eraseBlock(std::size_t idx) {
  CARE_ASSERT(idx < blocks_.size(), "eraseBlock out of range");
  BasicBlock* bb = blocks_[idx].get();
  // Destroy instructions back-to-front so use edges unwind cleanly.
  while (!bb->empty()) {
    Instruction* last = bb->inst(bb->size() - 1);
    last->dropOperands();
    CARE_ASSERT(!last->hasUses(), "erasing block whose values are still used");
    bb->erase(bb->size() - 1);
  }
  blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(idx));
}

std::size_t Function::indexOfBlock(const BasicBlock* bb) const {
  for (std::size_t i = 0; i < blocks_.size(); ++i)
    if (blocks_[i].get() == bb) return i;
  CARE_UNREACHABLE("block not in function");
}

// --------------------------------------------------------------------------
// Module
// --------------------------------------------------------------------------

Function* Module::addFunction(std::string name, Type* retType,
                              std::vector<Type*> paramTypes) {
  CARE_ASSERT(!findFunction(name), "duplicate function: " + name);
  funcs_.push_back(std::make_unique<Function>(std::move(name), retType,
                                              std::move(paramTypes), this));
  return funcs_.back().get();
}

Function* Module::findFunction(const std::string& name) const {
  for (const auto& f : funcs_)
    if (f->name() == name) return f.get();
  return nullptr;
}

GlobalVariable* Module::addGlobal(Type* elemType, std::uint64_t count,
                                  std::string name) {
  CARE_ASSERT(!findGlobal(name), "duplicate global: " + name);
  globals_.push_back(
      std::make_unique<GlobalVariable>(elemType, count, std::move(name)));
  return globals_.back().get();
}

GlobalVariable* Module::findGlobal(const std::string& name) const {
  for (const auto& g : globals_)
    if (g->name() == name) return g.get();
  return nullptr;
}

ConstantInt* Module::constInt(Type* type, std::int64_t v) {
  auto key = std::make_pair(type, v);
  auto it = intConsts_.find(key);
  if (it == intConsts_.end())
    it = intConsts_.emplace(key, std::make_unique<ConstantInt>(type, v)).first;
  return it->second.get();
}

ConstantFP* Module::constFP(Type* type, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  auto key = std::make_pair(type, bits);
  auto it = fpConsts_.find(key);
  if (it == fpConsts_.end())
    it = fpConsts_.emplace(key, std::make_unique<ConstantFP>(type, v)).first;
  return it->second.get();
}

std::uint32_t Module::internFile(const std::string& path) {
  for (std::size_t i = 0; i < files_.size(); ++i)
    if (files_[i] == path) return static_cast<std::uint32_t>(i + 1);
  files_.push_back(path);
  return static_cast<std::uint32_t>(files_.size());
}

const std::string& Module::fileName(std::uint32_t id) const {
  static const std::string kUnknown = "<unknown>";
  if (id == 0 || id > files_.size()) return kUnknown;
  return files_[id - 1];
}

Function* Module::intrinsic(const std::string& name) {
  if (Function* f = findFunction(name)) return f;
  Type* d = Type::f64();
  Function* f = addFunction(
      name, d, std::vector<Type*>(mathFnArity(mathFnByName(name)), d));
  f->setIntrinsic(true);
  f->setSimpleCall(true);
  return f;
}

} // namespace care::ir
