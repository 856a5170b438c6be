#include "ir/scalar.hpp"

#include <cmath>

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

} // namespace

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

} // namespace care::ir
