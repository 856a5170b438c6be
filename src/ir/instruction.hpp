// CARE-IR instructions.
//
// One concrete Instruction class carrying an Opcode plus the few fields that
// only some opcodes use (alloca element type, compare predicate, phi
// incoming blocks, call target, branch successors). Keeping a single class
// makes serialization, interpretation and pass-writing straightforward while
// preserving the LLVM surface the CARE paper's algorithms are phrased in.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/value.hpp"

namespace care::ir {

class BasicBlock;
class Function;

enum class Opcode : std::uint8_t {
  // Memory
  Alloca, Load, Store, Gep,
  // Integer arithmetic
  Add, Sub, Mul, SDiv, SRem,
  And, Or, Xor, Shl, AShr,
  // FP arithmetic
  FAdd, FSub, FMul, FDiv,
  // Comparisons
  ICmp, FCmp,
  // Conversions
  Sext, Zext, Trunc, SIToFP, FPToSI, FPExt, FPTrunc,
  // Other
  Phi, Call, Select,
  // Terminators
  Br, CondBr, Ret,
};

enum class CmpPred : std::uint8_t { EQ, NE, LT, LE, GT, GE };

const char* opcodeName(Opcode op);
const char* predName(CmpPred p);

/// Source location attached to instructions. The CARE Recovery Table key is
/// the MD5 of this (file,line,col) tuple. `line == 0` means "no location";
/// Armor assigns synthetic unique locations to memory accesses that lack one
/// (the paper's "fake debug data").
struct DebugLoc {
  std::uint32_t file = 0;
  std::uint32_t line = 0;
  std::uint32_t col = 0;

  bool valid() const { return line != 0; }
  bool operator==(const DebugLoc&) const = default;
};

class Instruction : public Value {
public:
  Instruction(Opcode op, Type* type, std::string name)
      : Value(ValueKind::Instruction, type, std::move(name)), op_(op) {}
  ~Instruction() override;

  Opcode opcode() const { return op_; }
  BasicBlock* parent() const { return parent_; }
  void setParent(BasicBlock* bb) { parent_ = bb; }
  Function* function() const;

  // --- operands -----------------------------------------------------------
  unsigned numOperands() const {
    return static_cast<unsigned>(operands_.size());
  }
  Value* operand(unsigned i) const { return operands_[i]; }
  void setOperand(unsigned i, Value* v);
  /// Append an operand (registers the use edge).
  void addOperand(Value* v);
  /// Drop all operands (unregisters use edges). Used before erasing.
  void dropOperands();

  // --- opcode-specific state ----------------------------------------------
  // Alloca
  Type* allocaElemType() const { return allocaElemType_; }
  std::uint64_t allocaCount() const { return allocaCount_; }
  void setAllocaInfo(Type* elem, std::uint64_t count) {
    allocaElemType_ = elem;
    allocaCount_ = count;
  }

  // ICmp / FCmp
  CmpPred pred() const { return pred_; }
  void setPred(CmpPred p) { pred_ = p; }

  // Call
  Function* callee() const { return callee_; }
  void setCallee(Function* f) { callee_ = f; }

  // Phi: operand i flows in from phiBlock(i).
  BasicBlock* phiBlock(unsigned i) const { return phiBlocks_[i]; }
  unsigned numPhiIncoming() const {
    return static_cast<unsigned>(phiBlocks_.size());
  }
  void addPhiIncoming(Value* v, BasicBlock* from) {
    addOperand(v);
    phiBlocks_.push_back(from);
  }
  void setPhiBlock(unsigned i, BasicBlock* bb) { phiBlocks_[i] = bb; }

  // Br / CondBr successors.
  BasicBlock* succ(unsigned i) const { return succs_[i]; }
  unsigned numSuccs() const { return static_cast<unsigned>(succs_.size()); }
  void setSuccs(std::vector<BasicBlock*> s) { succs_ = std::move(s); }
  void setSucc(unsigned i, BasicBlock* bb) { succs_[i] = bb; }

  // Debug location.
  const DebugLoc& debugLoc() const { return loc_; }
  void setDebugLoc(DebugLoc l) { loc_ = l; }

  // --- classification -----------------------------------------------------
  bool isTerminator() const {
    return op_ == Opcode::Br || op_ == Opcode::CondBr || op_ == Opcode::Ret;
  }
  bool isBinaryOp() const {
    return op_ >= Opcode::Add && op_ <= Opcode::FDiv;
  }
  bool isCast() const {
    return op_ >= Opcode::Sext && op_ <= Opcode::FPTrunc;
  }
  bool isMemAccess() const {
    return op_ == Opcode::Load || op_ == Opcode::Store;
  }
  /// True if removing this instruction can change observable behaviour.
  bool hasSideEffects() const;

  /// Pointer operand of a Load/Store (LLVM convention: load[0], store[1]).
  Value* pointerOperand() const {
    CARE_ASSERT(isMemAccess(), "not a memory access");
    return op_ == Opcode::Load ? operand(0) : operand(1);
  }

private:
  Opcode op_;
  BasicBlock* parent_ = nullptr;
  std::vector<Value*> operands_;

  Type* allocaElemType_ = nullptr;
  std::uint64_t allocaCount_ = 0;
  CmpPred pred_ = CmpPred::EQ;
  Function* callee_ = nullptr;
  std::vector<BasicBlock*> phiBlocks_;
  std::vector<BasicBlock*> succs_;
  DebugLoc loc_;
};

/// The object pointer `p` is based on: the alloca, global or argument a
/// gep chain starts from, or null when it starts anywhere else (a load, a
/// phi, a select).
const Value* baseObject(const Value* p);

} // namespace care::ir
