// CARE-IR module: owns functions, globals, interned constants and the file
// table used by debug locations.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/function.hpp"

namespace care::ir {

enum class RuntimeFn : std::uint8_t; // ir/scalar.hpp

class Module {
public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  /// Functions are destroyed first: instruction destructors unregister use
  /// edges on constants/globals, which must still be alive at that point.
  ~Module() { funcs_.clear(); }

  const std::string& name() const { return name_; }

  // --- functions ----------------------------------------------------------
  Function* addFunction(std::string name, Type* retType,
                        std::vector<Type*> paramTypes);
  Function* findFunction(const std::string& name) const;
  std::size_t numFunctions() const { return funcs_.size(); }
  Function* function(std::size_t i) const { return funcs_[i].get(); }

  struct FnIter {
    const std::vector<std::unique_ptr<Function>>* v;
    std::size_t i;
    Function* operator*() const { return (*v)[i].get(); }
    FnIter& operator++() { ++i; return *this; }
    bool operator!=(const FnIter& o) const { return i != o.i; }
  };
  FnIter begin() const { return {&funcs_, 0}; }
  FnIter end() const { return {&funcs_, funcs_.size()}; }

  // --- globals ------------------------------------------------------------
  GlobalVariable* addGlobal(Type* elemType, std::uint64_t count,
                            std::string name);
  GlobalVariable* findGlobal(const std::string& name) const;
  std::size_t numGlobals() const { return globals_.size(); }
  GlobalVariable* global(std::size_t i) const { return globals_[i].get(); }

  // --- constants (interned per module) ------------------------------------
  ConstantInt* constInt(Type* type, std::int64_t v);
  ConstantFP* constFP(Type* type, double v);
  ConstantInt* constI32(std::int32_t v) { return constInt(Type::i32(), v); }
  ConstantInt* constI64(std::int64_t v) { return constInt(Type::i64(), v); }
  ConstantFP* constF64(double v) { return constFP(Type::f64(), v); }
  ConstantInt* constBool(bool v) { return constInt(Type::i1(), v ? 1 : 0); }

  // --- debug file table ---------------------------------------------------
  /// Intern a file name; returns its id (ids start at 1; 0 = unknown).
  std::uint32_t internFile(const std::string& path);
  const std::string& fileName(std::uint32_t id) const;
  std::uint32_t numFiles() const {
    return static_cast<std::uint32_t>(files_.size());
  }

  /// Ensure the standard math intrinsics (sqrt, fabs, sin, cos, exp, floor,
  /// fmin, fmax) are declared; returns the named one.
  Function* intrinsic(const std::string& name);

  /// Ensure runtime service `fn` (ir/scalar.hpp) is declared; returns it.
  Function* runtime(RuntimeFn fn);

private:
  std::string name_;
  std::vector<std::unique_ptr<Function>> funcs_;
  std::vector<std::unique_ptr<GlobalVariable>> globals_;
  std::map<std::pair<Type*, std::int64_t>, std::unique_ptr<ConstantInt>>
      intConsts_;
  std::map<std::pair<Type*, std::uint64_t>, std::unique_ptr<ConstantFP>>
      fpConsts_;
  std::vector<std::string> files_; // index 0 reserved for "<unknown>"
};

} // namespace care::ir
