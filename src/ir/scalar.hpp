// CARE-IR's scalar semantics, defined once.
//
// What an integer or FP operation, a compare, a cast or a math intrinsic
// computes, bit for bit. The VM's reference loop and the fast loop's
// out-of-line paths execute MIR with it; the -O1 constant folder and
// Safeguard's recovery kernels evaluate CARE-IR through evalPure. A kernel
// recomputes the address the faulting instruction meant to use, so all
// three must agree exactly (paper §3.4). The fast loop's inline handlers and the JIT's
// templates spell the same rules out by hand; vm_diff_test holds them equal
// to the reference loop.
//
// Every scalar is 64 bits wide: integers and pointers sign-extended, FP
// values as doubles. The narrow forms (i32, f32) wrap an integer result
// through norm32 and round an FP result through float.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "ir/instruction.hpp"
#include "ir/type.hpp"
#include "support/error.hpp"

namespace care::ir {

/// Sign-extend the low 32 bits (x86 "movslq"; also what every 32-bit ALU
/// result is wrapped through).
inline std::uint64_t norm32(std::uint64_t v) {
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
}

inline double roundF32(double v) {
  return static_cast<double>(static_cast<float>(v));
}

inline std::uint64_t bitsOfFP(double d) {
  std::uint64_t v;
  std::memcpy(&v, &d, 8);
  return v;
}
inline double fpOfBits(std::uint64_t v) {
  double d;
  std::memcpy(&d, &v, 8);
  return d;
}

/// The narrow width of `t`'s class: i32 among integers, f32 among FP.
inline bool isNarrow(const Type* t) {
  return t == Type::i32() || t == Type::f32();
}

/// Integer ALU, `op` in Add..AShr. Arithmetic wraps, shift counts are
/// masked by the operand width, and i32 division is done at 32 bits.
/// Returns false, leaving `out` untouched, when the op traps (SIGFPE):
/// division by zero or MIN / -1 at the op's width.
inline bool evalIntBinary(Opcode op, std::uint64_t a, std::uint64_t b,
                          bool narrow, std::uint64_t& out) {
  const std::uint64_t shiftMask = narrow ? 31 : 63;
  std::uint64_t r = 0;
  switch (op) {
  case Opcode::Add: r = a + b; break;
  case Opcode::Sub: r = a - b; break;
  case Opcode::Mul: r = a * b; break;
  case Opcode::SDiv:
  case Opcode::SRem: {
    const std::int64_t x = narrow ? static_cast<std::int32_t>(a)
                                  : static_cast<std::int64_t>(a);
    const std::int64_t y = narrow ? static_cast<std::int32_t>(b)
                                  : static_cast<std::int64_t>(b);
    if (y == 0 || (y == -1 && x == (narrow ? INT32_MIN : INT64_MIN)))
      return false;
    r = static_cast<std::uint64_t>(op == Opcode::SDiv ? x / y : x % y);
    break;
  }
  case Opcode::And: r = a & b; break;
  case Opcode::Or: r = a | b; break;
  case Opcode::Xor: r = a ^ b; break;
  case Opcode::Shl: r = a << (b & shiftMask); break;
  case Opcode::AShr:
    r = static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >>
                                   (b & shiftMask));
    break;
  default: CARE_UNREACHABLE("not an integer ALU op");
  }
  out = narrow ? norm32(r) : r;
  return true;
}

/// FP ALU, `op` in FAdd..FDiv; `narrow` rounds the result through f32.
inline double evalFPBinary(Opcode op, double a, double b, bool narrow) {
  double r = 0;
  switch (op) {
  case Opcode::FAdd: r = a + b; break;
  case Opcode::FSub: r = a - b; break;
  case Opcode::FMul: r = a * b; break;
  case Opcode::FDiv: r = a / b; break;
  default: CARE_UNREACHABLE("not an FP ALU op");
  }
  return narrow ? roundF32(r) : r;
}

/// The six predicates, on signed integers or on doubles (every predicate
/// but NE is false on a NaN).
template <class T> bool cmpHolds(CmpPred p, T a, T b) {
  switch (p) {
  case CmpPred::EQ: return a == b;
  case CmpPred::NE: return a != b;
  case CmpPred::LT: return a < b;
  case CmpPred::LE: return a <= b;
  case CmpPred::GT: return a > b;
  case CmpPred::GE: return a >= b;
  }
  return false;
}

inline double siToFp(std::uint64_t v, bool narrow) {
  const double r = static_cast<double>(static_cast<std::int64_t>(v));
  return narrow ? roundF32(r) : r;
}

/// Truncating conversion. A NaN or out-of-range input gives INT64_MIN,
/// the "integer indefinite" value of x86's cvttsd2si; the i32 form then
/// wraps through norm32 like every 32-bit result.
inline std::uint64_t fpToSi(double v, bool narrow) {
  const std::uint64_t r =
      v >= -0x1p63 && v < 0x1p63
          ? static_cast<std::uint64_t>(static_cast<std::int64_t>(v))
          : static_cast<std::uint64_t>(INT64_MIN);
  return narrow ? norm32(r) : r;
}

/// The math intrinsics (Module::intrinsic); MIR's MathCall carries one in
/// its `sub` field.
enum class MathFn : std::uint8_t {
  Sqrt, Fabs, Sin, Cos, Exp, Log, Floor, Ceil, Fmin, Fmax, Pow,
};
bool isMathFn(const std::string& name);
/// Throws care::Error on a name that is not an intrinsic.
MathFn mathFnByName(const std::string& name);
/// 1 or 2.
unsigned mathFnArity(MathFn fn);
/// `b` is ignored by the unary functions.
double evalMathFn(MathFn fn, double a, double b);

/// The runtime services: calls the backend lowers to one dedicated MIR op
/// each instead of a call. Each returns void and takes at most one
/// scalar; Module::runtime declares them.
enum class RuntimeFn : std::uint8_t {
  Emit, EmitI, Abort, Barrier, SentinelTrap,
};
/// nullopt for a name that is not a runtime service.
std::optional<RuntimeFn> runtimeFnByName(const std::string& name);

/// Ops whose result depends on their operands alone and that touch no
/// memory: binary ops, casts, compares, selects, geps and math-intrinsic
/// calls. At most kMaxPureOperands operands.
bool isPure(const Instruction* in);
constexpr unsigned kMaxPureOperands = 3;

/// What pure `in` computes from its operands' 64-bit scalars `ops` (FP as
/// double bits; narrow forms follow in's type). Returns false, leaving
/// `out` untouched, when the op traps: only an integer division can.
bool evalPure(const Instruction* in, const std::uint64_t* ops,
              std::uint64_t& out);

} // namespace care::ir
