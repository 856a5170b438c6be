#include "ir/scalar.hpp"

#include <cmath>

#include "ir/module.hpp"

namespace care::ir {

namespace {

struct MathFnInfo {
  const char* name;
  unsigned arity;
};

// Indexed by MathFn.
constexpr MathFnInfo kMathFns[] = {
    {"sqrt", 1}, {"fabs", 1}, {"sin", 1},   {"cos", 1},  {"exp", 1},
    {"log", 1},  {"floor", 1}, {"ceil", 1}, {"fmin", 2}, {"fmax", 2},
    {"pow", 2},
};

struct RuntimeFnInfo {
  const char* name;
  Type* (*param)(); // null: no parameter
};

// Indexed by RuntimeFn.
constexpr RuntimeFnInfo kRuntimeFns[] = {
    {"emit", &Type::f64},    {"emiti", &Type::i64},
    {"__abort", nullptr},    {"mpi_barrier", nullptr},
    {"__sentinel_trap", nullptr},
};

} // namespace

std::optional<RuntimeFn> runtimeFnByName(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kRuntimeFns); ++i)
    if (name == kRuntimeFns[i].name) return static_cast<RuntimeFn>(i);
  return std::nullopt;
}

Function* Module::runtime(RuntimeFn fn) {
  const RuntimeFnInfo& info = kRuntimeFns[static_cast<std::size_t>(fn)];
  if (Function* f = findFunction(info.name)) return f;
  std::vector<Type*> params;
  if (info.param) params.push_back(info.param());
  return addFunction(info.name, Type::voidTy(), std::move(params));
}

bool isMathFn(const std::string& name) {
  for (const MathFnInfo& f : kMathFns)
    if (name == f.name) return true;
  return false;
}

MathFn mathFnByName(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kMathFns); ++i)
    if (name == kMathFns[i].name) return static_cast<MathFn>(i);
  raise("unknown math intrinsic: " + name);
}

unsigned mathFnArity(MathFn fn) {
  return kMathFns[static_cast<std::size_t>(fn)].arity;
}

double evalMathFn(MathFn fn, double a, double b) {
  switch (fn) {
  case MathFn::Sqrt: return std::sqrt(a);
  case MathFn::Fabs: return std::fabs(a);
  case MathFn::Sin: return std::sin(a);
  case MathFn::Cos: return std::cos(a);
  case MathFn::Exp: return std::exp(a);
  case MathFn::Log: return std::log(a);
  case MathFn::Floor: return std::floor(a);
  case MathFn::Ceil: return std::ceil(a);
  case MathFn::Fmin: return std::fmin(a, b);
  case MathFn::Fmax: return std::fmax(a, b);
  case MathFn::Pow: return std::pow(a, b);
  }
  CARE_UNREACHABLE("bad math fn");
}

bool isPure(const Instruction* in) {
  if (in->isBinaryOp() || in->isCast()) return true;
  switch (in->opcode()) {
  case Opcode::ICmp:
  case Opcode::FCmp:
  case Opcode::Select:
  case Opcode::Gep:
    return true;
  case Opcode::Call:
    return in->callee() && in->callee()->isIntrinsic();
  default:
    return false;
  }
}

bool evalPure(const Instruction* in, const std::uint64_t* ops,
              std::uint64_t& out) {
  const Opcode op = in->opcode();
  const bool narrow = isNarrow(in->type());
  switch (op) {
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
    out = bitsOfFP(
        evalFPBinary(op, fpOfBits(ops[0]), fpOfBits(ops[1]), narrow));
    return true;
  // Integers are kept sign-extended, so sext and zext copy the bits.
  case Opcode::Sext:
  case Opcode::Zext:
  case Opcode::FPExt: out = ops[0]; return true;
  case Opcode::Trunc: out = norm32(ops[0]); return true;
  case Opcode::SIToFP: out = bitsOfFP(siToFp(ops[0], narrow)); return true;
  case Opcode::FPToSI: out = fpToSi(fpOfBits(ops[0]), narrow); return true;
  case Opcode::FPTrunc: out = bitsOfFP(roundF32(fpOfBits(ops[0]))); return true;
  case Opcode::ICmp:
    out = cmpHolds(in->pred(), static_cast<std::int64_t>(ops[0]),
                   static_cast<std::int64_t>(ops[1]));
    return true;
  case Opcode::FCmp:
    out = cmpHolds(in->pred(), fpOfBits(ops[0]), fpOfBits(ops[1]));
    return true;
  case Opcode::Select: out = ops[0] ? ops[1] : ops[2]; return true;
  case Opcode::Gep:
    out = ops[0] + ops[1] * in->type()->pointee()->sizeBytes();
    return true;
  case Opcode::Call:
    out = bitsOfFP(evalMathFn(mathFnByName(in->callee()->name()),
                              fpOfBits(ops[0]),
                              in->numOperands() > 1 ? fpOfBits(ops[1]) : 0.0));
    return true;
  default: return evalIntBinary(op, ops[0], ops[1], narrow, out);
  }
}

} // namespace care::ir
