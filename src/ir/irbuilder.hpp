// Convenience builder for CARE-IR, mirroring llvm::IRBuilder, and the one
// place passes create, clone and re-wire instructions.
//
// All create* methods insert at the current insertion point (the end of a
// block, or a position inside it that advances past each new instruction),
// type-check their operands, attach the builder's current DebugLoc, and
// auto-name the result ("tN") when no name is given.
#pragma once

#include <functional>
#include <map>

#include "ir/module.hpp"

namespace care::ir {

class IRBuilder {
public:
  explicit IRBuilder(Module* mod) : mod_(mod) {}

  Module* module() const { return mod_; }
  BasicBlock* insertBlock() const { return bb_; }
  /// Append at the end of `bb`.
  void setInsertPoint(BasicBlock* bb) {
    bb_ = bb;
    pos_ = kAtEnd;
  }
  /// Insert before index `idx` of `bb`; the index advances after each
  /// insert, so a sequence of creates lands in program order.
  void setInsertPoint(BasicBlock* bb, std::size_t idx) {
    bb_ = bb;
    pos_ = idx;
  }
  /// Index the next instruction goes to.
  std::size_t insertIndex() const {
    return pos_ == kAtEnd ? bb_->size() : pos_;
  }

  void setDebugLoc(DebugLoc loc) { loc_ = loc; }
  const DebugLoc& debugLoc() const { return loc_; }

  // --- memory ---------------------------------------------------------
  Instruction* alloca_(Type* elemType, std::uint64_t count = 1,
                       const std::string& name = "");
  Instruction* load(Value* ptr, const std::string& name = "");
  Instruction* store(Value* val, Value* ptr);
  /// gep: pointer + i64 index -> pointer to element.
  Instruction* gep(Value* ptr, Value* index, const std::string& name = "");

  // --- arithmetic -----------------------------------------------------
  Instruction* binary(Opcode op, Value* a, Value* b,
                      const std::string& name = "");
  Instruction* add(Value* a, Value* b, const std::string& n = "") {
    return binary(Opcode::Add, a, b, n);
  }
  Instruction* sub(Value* a, Value* b, const std::string& n = "") {
    return binary(Opcode::Sub, a, b, n);
  }
  Instruction* mul(Value* a, Value* b, const std::string& n = "") {
    return binary(Opcode::Mul, a, b, n);
  }
  Instruction* sdiv(Value* a, Value* b, const std::string& n = "") {
    return binary(Opcode::SDiv, a, b, n);
  }
  Instruction* srem(Value* a, Value* b, const std::string& n = "") {
    return binary(Opcode::SRem, a, b, n);
  }
  Instruction* fadd(Value* a, Value* b, const std::string& n = "") {
    return binary(Opcode::FAdd, a, b, n);
  }
  Instruction* fsub(Value* a, Value* b, const std::string& n = "") {
    return binary(Opcode::FSub, a, b, n);
  }
  Instruction* fmul(Value* a, Value* b, const std::string& n = "") {
    return binary(Opcode::FMul, a, b, n);
  }
  Instruction* fdiv(Value* a, Value* b, const std::string& n = "") {
    return binary(Opcode::FDiv, a, b, n);
  }

  // --- comparisons / conversions ---------------------------------------
  Instruction* icmp(CmpPred p, Value* a, Value* b,
                    const std::string& name = "");
  Instruction* fcmp(CmpPred p, Value* a, Value* b,
                    const std::string& name = "");
  Instruction* cast(Opcode op, Value* v, Type* to,
                    const std::string& name = "");
  Instruction* sext(Value* v, Type* to, const std::string& n = "") {
    return cast(Opcode::Sext, v, to, n);
  }
  Instruction* sitofp(Value* v, Type* to, const std::string& n = "") {
    return cast(Opcode::SIToFP, v, to, n);
  }

  // --- other ------------------------------------------------------------
  /// At the end of the block's phis, or exactly at a positional insertion
  /// point, which must lie among them.
  Instruction* phi(Type* type, const std::string& name = "");
  Instruction* call(Function* callee, const std::vector<Value*>& args,
                    const std::string& name = "");
  Instruction* select(Value* cond, Value* t, Value* f,
                      const std::string& name = "");

  // --- terminators --------------------------------------------------------
  Instruction* br(BasicBlock* dest);
  Instruction* condBr(Value* cond, BasicBlock* ifTrue, BasicBlock* ifFalse);
  Instruction* ret(Value* v = nullptr);

  // --- cloning --------------------------------------------------------
  /// A copy of `in` named `name`: opcode, type, predicate, alloca info,
  /// callee and `in`'s own debug location. The caller maps operands, phi
  /// blocks and successors.
  Instruction* clone(const Instruction& in, const std::string& name);

private:
  static constexpr std::size_t kAtEnd = ~std::size_t{0};

  Instruction* place(std::unique_ptr<Instruction> in);
  Instruction* finish(std::unique_ptr<Instruction> in);
  std::string autoName(const std::string& name);

  Module* mod_;
  BasicBlock* bb_ = nullptr;
  std::size_t pos_ = kAtEnd;
  DebugLoc loc_;
};

/// Clone every block of `src` onto the end of `dst` (block names get
/// `blockPrefix`, values keep theirs), in two passes so phis and operands
/// may refer forward. Operands, phi values and callees defined outside the
/// body (arguments, constants, globals, functions) go through `outside`.
/// Returns the block map.
std::map<const BasicBlock*, BasicBlock*> cloneBody(
    const Function& src, Function& dst, const std::string& blockPrefix,
    const std::function<Value*(const Value*)>& outside);

} // namespace care::ir
