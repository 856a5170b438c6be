// CARE-IR basic blocks: an owned, ordered list of instructions ending in a
// terminator, plus CFG predecessor/successor queries derived on demand.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/instruction.hpp"

namespace care::ir {

class Function;

class BasicBlock : public Value {
public:
  BasicBlock(std::string name, Function* parent)
      : Value(ValueKind::BasicBlock, Type::voidTy(), std::move(name)),
        parent_(parent) {}

  Function* parent() const { return parent_; }

  // --- instruction list ---------------------------------------------------
  std::size_t size() const { return insts_.size(); }
  bool empty() const { return insts_.empty(); }
  Instruction* inst(std::size_t i) const { return insts_[i].get(); }
  Instruction* front() const { return insts_.front().get(); }
  Instruction* back() const { return insts_.back().get(); }

  /// Append, taking ownership.
  Instruction* append(std::unique_ptr<Instruction> in);
  /// Insert before position `idx`.
  Instruction* insertAt(std::size_t idx, std::unique_ptr<Instruction> in);
  /// Remove and destroy the instruction at `idx` (drops its operand uses).
  void erase(std::size_t idx);
  /// Remove the instruction at `idx` without destroying it.
  std::unique_ptr<Instruction> detach(std::size_t idx);
  /// Index of `in` within this block. Aborts if absent.
  std::size_t indexOf(const Instruction* in) const;
  /// Index of the first instruction that is not a phi.
  std::size_t firstNonPhi() const;

  /// Iteration support (over raw pointers, stable across no mutation).
  struct Iter {
    const std::vector<std::unique_ptr<Instruction>>* v;
    std::size_t i;
    Instruction* operator*() const { return (*v)[i].get(); }
    Iter& operator++() { ++i; return *this; }
    bool operator!=(const Iter& o) const { return i != o.i; }
  };
  Iter begin() const { return {&insts_, 0}; }
  Iter end() const { return {&insts_, insts_.size()}; }

  // --- CFG ----------------------------------------------------------------
  Instruction* terminator() const {
    return (!insts_.empty() && insts_.back()->isTerminator())
               ? insts_.back().get()
               : nullptr;
  }
  std::vector<BasicBlock*> successors() const;
  /// Predecessors, computed by scanning the parent function (O(blocks)).
  std::vector<BasicBlock*> predecessors() const;

  // --- CFG edits ----------------------------------------------------------
  /// Move [idx, end) into a new block `name` appended to the function, and
  /// repoint the phis of the moved terminator's successors to it. The caller
  /// re-terminates this block.
  BasicBlock* splitAt(std::size_t idx, std::string name);
  /// Phi entries flowing in from `from` now flow in from `to`.
  void repointPhis(BasicBlock* from, BasicBlock* to);

private:
  Function* parent_;
  std::vector<std::unique_ptr<Instruction>> insts_;
};

} // namespace care::ir
