// Recovery-kernel interpreter tests: straight-line address recomputation,
// process-memory reads, the no-writes rule, control flow in cloned helper
// functions, and resource limits.
#include <gtest/gtest.h>

#include <cstring>

#include "care/kernel_interp.hpp"
#include "ir/irbuilder.hpp"
#include "ir/verifier.hpp"

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

} // namespace
} // namespace care::test
