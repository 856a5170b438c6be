// Recovery-kernel interpreter tests: straight-line address recomputation,
// process-memory reads, the no-writes rule, control flow in cloned helper
// functions, resource limits, and agreement with the constant folder.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>

#include "care/kernel_interp.hpp"
#include "ir/irbuilder.hpp"
#include "ir/scalar.hpp"
#include "ir/verifier.hpp"
#include "opt/passes.hpp"

namespace care::test {
namespace {

using namespace ir;
using core::KernelResult;
using core::RawValue;
using core::runRecoveryKernel;

RawValue f2b(double d) {
  RawValue v;
  std::memcpy(&v, &d, 8);
  return v;
}
double b2f(RawValue v) {
  double d;
  std::memcpy(&d, &v, 8);
  return d;
}

TEST(KernelInterp, RecomputesAddressArithmetic) {
  // care_k(base i64*, i i32, k i32) = &base[(i+1)*8 + k]
  Module m("k");
  Type* pd = Type::ptrTo(Type::f64());
  Function* k = m.addFunction("k", pd, {pd, Type::i32(), Type::i32()});
  IRBuilder b(&m);
  BasicBlock* bb = k->addBlock("entry");
  b.setInsertPoint(bb);
  Instruction* i1 = b.add(k->arg(1), m.constI32(1));
  Instruction* mul = b.mul(i1, m.constI32(8));
  Instruction* sum = b.add(mul, k->arg(2));
  Instruction* idx = b.sext(sum, Type::i64());
  Instruction* gep = b.gep(k->arg(0), idx);
  b.ret(gep);
  verifyOrDie(m);

  vm::Memory mem;
  const KernelResult r =
      runRecoveryKernel(*k, {0x10000, 3, 5}, mem);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 0x10000 + ((3 + 1) * 8 + 5) * 8u);

  // i64 arithmetic computes what the machine computes: a product wraps,
  // and a division that would trap fails the kernel, not the host.
  Function* mulK = m.addFunction("mul", Type::i64(), {Type::i64(), Type::i64()});
  b.setInsertPoint(mulK->addBlock("entry"));
  b.ret(b.mul(mulK->arg(0), mulK->arg(1)));
  Function* divK = m.addFunction("div", Type::i64(), {Type::i64(), Type::i64()});
  b.setInsertPoint(divK->addBlock("entry"));
  b.ret(b.sdiv(divK->arg(0), divK->arg(1)));
  verifyOrDie(m);
  const RawValue kMin = static_cast<RawValue>(INT64_MIN);
  const RawValue kMinusOne = static_cast<RawValue>(-1);
  const KernelResult wrapped =
      runRecoveryKernel(*mulK, {static_cast<RawValue>(INT64_MAX), 2}, mem);
  ASSERT_TRUE(wrapped.ok) << wrapped.error;
  EXPECT_EQ(wrapped.value, static_cast<RawValue>(-2));
  const KernelResult overflow =
      runRecoveryKernel(*divK, {kMin, kMinusOne}, mem);
  EXPECT_FALSE(overflow.ok);
  EXPECT_STREQ(overflow.error, "kernel division overflow");
  const KernelResult byZero = runRecoveryKernel(*divK, {kMin, 0}, mem);
  EXPECT_FALSE(byZero.ok);
  EXPECT_STREQ(byZero.error, "kernel divide by zero");
}

TEST(KernelInterp, ReadsProcessMemory) {
  // care_k(tbl i32*, i i32) = &tbl[tbl[i]]
  Module m("k");
  Type* pi = Type::ptrTo(Type::i32());
  Function* k = m.addFunction("k", pi, {pi, Type::i32()});
  IRBuilder b(&m);
  BasicBlock* bb = k->addBlock("entry");
  b.setInsertPoint(bb);
  Instruction* idx = b.sext(k->arg(1), Type::i64());
  Instruction* p = b.gep(k->arg(0), idx);
  Instruction* v = b.load(p);
  Instruction* idx2 = b.sext(v, Type::i64());
  Instruction* p2 = b.gep(k->arg(0), idx2);
  b.ret(p2);
  verifyOrDie(m);

  vm::Memory mem;
  mem.map(0x4000, 4096);
  mem.store(0x4000 + 4 * 7, backend::MType::I32, 42);
  const KernelResult r = runRecoveryKernel(*k, {0x4000, 7}, mem);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 0x4000 + 42 * 4u);
}

TEST(KernelInterp, UnmappedReadFails) {
  Module m("k");
  Type* pi = Type::ptrTo(Type::i32());
  Function* k = m.addFunction("k", pi, {pi});
  IRBuilder b(&m);
  b.setInsertPoint(k->addBlock("entry"));
  Instruction* v = b.load(k->arg(0));
  Instruction* idx = b.sext(v, Type::i64());
  b.ret(b.gep(k->arg(0), idx));
  vm::Memory mem; // nothing mapped
  const KernelResult r = runRecoveryKernel(*k, {0x9000}, mem);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(std::string(r.error).find("unmapped"), std::string::npos);
}

TEST(KernelInterp, WritesToProcessMemoryRejected) {
  Module m("k");
  Type* pi = Type::ptrTo(Type::i32());
  Function* k = m.addFunction("k", pi, {pi});
  IRBuilder b(&m);
  b.setInsertPoint(k->addBlock("entry"));
  b.store(m.constI32(1), k->arg(0)); // illegal: mutating the process
  b.ret(k->arg(0));
  vm::Memory mem;
  mem.map(0x4000, 4096);
  const KernelResult r = runRecoveryKernel(*k, {0x4000}, mem);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(std::string(r.error).find("write process memory"),
            std::string::npos);
}

TEST(KernelInterp, LocalAllocasWithControlFlow) {
  // A cloned "simple" helper with a loop and local state:
  // f(n) = sum of squares 0..n-1, via a local accumulator slot.
  Module m("k");
  Function* f = m.addFunction("f", Type::i64(), {Type::i64()});
  IRBuilder b(&m);
  BasicBlock* entry = f->addBlock("entry");
  BasicBlock* header = f->addBlock("header");
  BasicBlock* body = f->addBlock("body");
  BasicBlock* exit = f->addBlock("exit");
  b.setInsertPoint(entry);
  Instruction* acc = b.alloca_(Type::i64());
  b.store(m.constI64(0), acc);
  b.br(header);
  b.setInsertPoint(header);
  Instruction* i = b.phi(Type::i64(), "i");
  Instruction* c = b.icmp(CmpPred::LT, i, f->arg(0));
  b.condBr(c, body, exit);
  b.setInsertPoint(body);
  Instruction* sq = b.mul(i, i);
  Instruction* cur = b.load(acc);
  b.store(b.add(cur, sq), acc);
  Instruction* next = b.add(i, m.constI64(1));
  i->addPhiIncoming(m.constI64(0), entry);
  i->addPhiIncoming(next, body);
  b.br(header);
  b.setInsertPoint(exit);
  b.ret(b.load(acc));
  verifyOrDie(m);

  vm::Memory mem;
  const KernelResult r = runRecoveryKernel(*f, {5}, mem);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 0u + 1 + 4 + 9 + 16);
}

TEST(KernelInterp, IntrinsicCalls) {
  Module m("k");
  Function* k = m.addFunction("k", Type::f64(), {Type::f64()});
  IRBuilder b(&m);
  b.setInsertPoint(k->addBlock("entry"));
  Instruction* s = b.call(m.intrinsic("sqrt"), {k->arg(0)});
  Instruction* r2 = b.call(m.intrinsic("pow"), {s, m.constF64(3.0)});
  b.ret(r2);
  vm::Memory mem;
  const KernelResult r = runRecoveryKernel(*k, {f2b(16.0)}, mem);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(b2f(r.value), 64.0);
}

TEST(KernelInterp, RecursionDepthCapped) {
  Module m("k");
  Function* f = m.addFunction("f", Type::i64(), {Type::i64()});
  IRBuilder b(&m);
  b.setInsertPoint(f->addBlock("entry"));
  Instruction* r = b.call(f, {f->arg(0)}); // infinite recursion
  b.ret(r);
  vm::Memory mem;
  const KernelResult res = runRecoveryKernel(*f, {1}, mem);
  EXPECT_FALSE(res.ok);
}

TEST(KernelInterp, StepBudgetCapped) {
  Module m("k");
  Function* f = m.addFunction("f", Type::i64(), {Type::i64()});
  IRBuilder b(&m);
  BasicBlock* entry = f->addBlock("entry");
  BasicBlock* loop = f->addBlock("loop");
  b.setInsertPoint(entry);
  b.br(loop);
  b.setInsertPoint(loop);
  Instruction* phi = b.phi(Type::i64());
  Instruction* next = b.add(phi, m.constI64(1));
  phi->addPhiIncoming(m.constI64(0), entry);
  phi->addPhiIncoming(next, loop);
  b.br(loop); // never exits
  vm::Memory mem;
  const KernelResult res = runRecoveryKernel(*f, {0}, mem);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(std::string(res.error).find("budget"), std::string::npos);
}

TEST(KernelInterp, ArityMismatchRejected) {
  Module m("k");
  Function* f = m.addFunction("f", Type::i64(), {Type::i64(), Type::i64()});
  IRBuilder b(&m);
  b.setInsertPoint(f->addBlock("entry"));
  b.ret(b.add(f->arg(0), f->arg(1)));
  vm::Memory mem;
  const KernelResult res = runRecoveryKernel(*f, {1}, mem);
  EXPECT_FALSE(res.ok);
}

/// One pure op: `build` emits it on operands of types `argTypes`, whose
/// values are `bits`.
struct PureCase {
  std::string what;
  Type* result;
  std::vector<Type*> argTypes;
  std::vector<RawValue> bits;
  std::function<Instruction*(IRBuilder&, const std::vector<Value*>&)> build;
};

Value* constOfBits(Module& m, Type* t, RawValue bits) {
  if (t->isFloat()) return m.constFP(t, fpOfBits(bits));
  return m.constInt(t, static_cast<std::int64_t>(bits));
}

/// Runs `c` as a kernel on argument registers and folds it on constants.
/// Returns the kernel's result; `folded` is the folder's constant, or null
/// when the folder kept the op.
KernelResult kernelAndFolder(const PureCase& c, const Value*& folded,
                             Module& m) {
  IRBuilder b(&m);
  Function* k = m.addFunction("k_" + c.what, c.result, c.argTypes);
  b.setInsertPoint(k->addBlock("entry"));
  std::vector<Value*> args;
  for (unsigned i = 0; i < k->numArgs(); ++i) args.push_back(k->arg(i));
  b.ret(c.build(b, args));

  Function* f = m.addFunction("f_" + c.what, c.result, {});
  b.setInsertPoint(f->addBlock("entry"));
  std::vector<Value*> consts;
  for (std::size_t i = 0; i < c.bits.size(); ++i)
    consts.push_back(constOfBits(m, c.argTypes[i], c.bits[i]));
  b.ret(c.build(b, consts));
  verifyOrDie(m);
  opt::constFold(*f);
  const Value* r = f->entry()->inst(f->entry()->size() - 1)->operand(0);
  folded = r->isConstant() ? r : nullptr;

  vm::Memory mem;
  return runRecoveryKernel(*k, c.bits, mem);
}

RawValue bitsOf(const Value* c) {
  if (const auto* ci = dynamic_cast<const ConstantInt*>(c))
    return static_cast<RawValue>(ci->value());
  return f2b(static_cast<const ConstantFP*>(c)->value());
}

TEST(KernelInterp, AgreesWithTheConstantFolderOnEveryPureOp) {
  Type* i1 = Type::i1();
  Type* i32 = Type::i32();
  Type* i64 = Type::i64();
  Type* f32 = Type::f32();
  Type* f64 = Type::f64();
  auto I = [](std::int64_t v) { return static_cast<RawValue>(v); };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Module m("agree");
  std::vector<PureCase> cases;

  auto binary = [&](Opcode op, Type* t, RawValue a, RawValue b) {
    cases.push_back({std::string(opcodeName(op)) + "_" + t->str() + "_" +
                         std::to_string(cases.size()),
                     t, {t, t}, {a, b},
                     [op](IRBuilder& b, const std::vector<Value*>& v) {
                       return b.binary(op, v[0], v[1]);
                     }});
  };
  for (Opcode op : {Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::SDiv,
                    Opcode::SRem, Opcode::And, Opcode::Or, Opcode::Xor,
                    Opcode::Shl, Opcode::AShr}) {
    binary(op, i64, I(INT64_MAX - 3), I(-7));
    binary(op, i64, I(-1234567), I(67));
    binary(op, i32, I(INT32_MAX), I(35)); // wraps; shift count masked
    binary(op, i32, I(-98765), I(-3));
  }
  for (Opcode op : {Opcode::FAdd, Opcode::FSub, Opcode::FMul, Opcode::FDiv}) {
    binary(op, f64, f2b(0.1), f2b(3.0));
    binary(op, f32, f2b(1.5), f2b(0.1f)); // rounds through float
    binary(op, f64, f2b(nan), f2b(-2.0));
  }

  auto cast = [&](Opcode op, Type* from, Type* to, RawValue v) {
    cases.push_back({std::string(opcodeName(op)) + "_" +
                         std::to_string(cases.size()),
                     to, {from}, {v},
                     [op, to](IRBuilder& b, const std::vector<Value*>& x) {
                       return b.cast(op, x[0], to);
                     }});
  };
  cast(Opcode::Sext, i32, i64, I(-5));
  cast(Opcode::Zext, i1, i32, 1);
  cast(Opcode::Trunc, i64, i32, I(0x1234567890ll));
  cast(Opcode::SIToFP, i64, f64, I(-(1ll << 60) - 1));
  cast(Opcode::SIToFP, i32, f32, I(16777217)); // rounds through float
  cast(Opcode::FPToSI, f64, i64, f2b(-3.99));
  cast(Opcode::FPToSI, f64, i32, f2b(4294967296.0 + 7)); // wraps to 7
  cast(Opcode::FPToSI, f64, i64, f2b(nan));               // INT64_MIN
  cast(Opcode::FPExt, f32, f64, f2b(0.1f));
  cast(Opcode::FPTrunc, f64, f32, f2b(0.1));

  for (CmpPred p : {CmpPred::EQ, CmpPred::NE, CmpPred::LT, CmpPred::LE,
                    CmpPred::GT, CmpPred::GE}) {
    auto compare = [&](Opcode op, Type* t, RawValue a, RawValue b) {
      cases.push_back({std::string(opcodeName(op)) + predName(p) +
                           std::to_string(cases.size()),
                       i1, {t, t}, {a, b},
                       [op, p](IRBuilder& b, const std::vector<Value*>& v) {
                         return op == Opcode::ICmp ? b.icmp(p, v[0], v[1])
                                                   : b.fcmp(p, v[0], v[1]);
                       }});
    };
    compare(Opcode::ICmp, i64, I(-3), I(2));
    compare(Opcode::ICmp, i64, I(7), I(7));
    compare(Opcode::FCmp, f64, f2b(2.5), f2b(-1.0));
    compare(Opcode::FCmp, f64, f2b(nan), f2b(nan));
  }

  for (RawValue cond : {RawValue{0}, RawValue{1}})
    cases.push_back({"select" + std::to_string(cond), f64, {i1, f64, f64},
                     {cond, f2b(1.25), f2b(-8.0)},
                     [](IRBuilder& b, const std::vector<Value*>& v) {
                       return b.select(v[0], v[1], v[2]);
                     }});

  for (const char* fn : {"sqrt", "fabs", "sin", "cos", "exp", "log", "floor",
                         "ceil", "fmin", "fmax", "pow"}) {
    const unsigned arity = mathFnArity(mathFnByName(fn));
    std::vector<Type*> types(arity, f64);
    std::vector<RawValue> bits = {f2b(2.75), f2b(-1.5)};
    bits.resize(arity);
    cases.push_back({fn, f64, types, bits,
                     [fn, &m](IRBuilder& b, const std::vector<Value*>& v) {
                       return b.call(m.intrinsic(fn), v);
                     }});
  }

  for (const PureCase& c : cases) {
    const Value* folded = nullptr;
    const KernelResult r = kernelAndFolder(c, folded, m);
    ASSERT_TRUE(r.ok) << c.what << ": " << r.error;
    ASSERT_NE(folded, nullptr) << c.what << " was not folded";
    EXPECT_EQ(r.value, bitsOf(folded)) << c.what;
  }

  // The folder leaves a gep alone (no pointer constants); the kernel
  // computes base + index * element size, as ir::evalPure does.
  Type* pd = Type::ptrTo(f64);
  Function* g = m.addFunction("gep", pd, {pd, i64});
  IRBuilder b(&m);
  b.setInsertPoint(g->addBlock("entry"));
  Instruction* gep = b.gep(g->arg(0), g->arg(1));
  b.ret(gep);
  vm::Memory mem;
  const RawValue gepOps[] = {0x40000, I(-3)};
  RawValue expect = 0;
  ASSERT_TRUE(evalPure(gep, gepOps, expect));
  EXPECT_EQ(expect, 0x40000u - 24);
  const KernelResult gr = runRecoveryKernel(*g, {0x40000, I(-3)}, mem);
  ASSERT_TRUE(gr.ok) << gr.error;
  EXPECT_EQ(gr.value, expect);

  // A trapping division is kept by the folder and fails the kernel with
  // the reason a CARE record serializes.
  struct Trap {
    Opcode op;
    Type* t;
    RawValue a, b;
    const char* error;
  };
  const Trap traps[] = {
      {Opcode::SDiv, i32, I(9), 0, "kernel divide by zero"},
      {Opcode::SDiv, i64, I(9), 0, "kernel divide by zero"},
      {Opcode::SRem, i64, I(-9), 0, "kernel divide by zero"},
      {Opcode::SDiv, i32, I(INT32_MIN), I(-1), "kernel division overflow"},
      {Opcode::SRem, i32, I(INT32_MIN), I(-1), "kernel division overflow"},
      {Opcode::SDiv, i64, I(INT64_MIN), I(-1), "kernel division overflow"},
  };
  for (const Trap& t : traps) {
    const PureCase c{std::string("trap") + opcodeName(t.op) + t.t->str() +
                         std::to_string(t.a),
                     t.t, {t.t, t.t}, {t.a, t.b},
                     [op = t.op](IRBuilder& b, const std::vector<Value*>& v) {
                       return b.binary(op, v[0], v[1]);
                     }};
    const Value* folded = nullptr;
    const KernelResult r = kernelAndFolder(c, folded, m);
    EXPECT_EQ(folded, nullptr) << c.what << " was folded";
    EXPECT_FALSE(r.ok) << c.what;
    EXPECT_STREQ(r.error, t.error) << c.what;
  }
}

} // namespace
} // namespace care::test
