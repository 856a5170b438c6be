// Unit tests for the CARE-IR core: types, values, def-use, builder,
// cloning and block splits, verifier, printer, serialization.
#include <gtest/gtest.h>

#include "ir/irbuilder.hpp"
#include "ir/names.hpp"
#include "ir/printer.hpp"
#include "ir/serialize.hpp"
#include "ir/verifier.hpp"

namespace care::test {
namespace {

using namespace ir;

TEST(Types, ScalarSingletonsAndSizes) {
  EXPECT_EQ(Type::i32(), Type::i32());
  EXPECT_EQ(Type::i32()->sizeBytes(), 4u);
  EXPECT_EQ(Type::i64()->sizeBytes(), 8u);
  EXPECT_EQ(Type::f32()->sizeBytes(), 4u);
  EXPECT_EQ(Type::f64()->sizeBytes(), 8u);
  EXPECT_EQ(Type::i1()->sizeBytes(), 1u);
  EXPECT_TRUE(Type::i1()->isBool());
  EXPECT_TRUE(Type::i1()->isInteger());
  EXPECT_FALSE(Type::f32()->isInteger());
}

TEST(Types, PointerInterning) {
  Type* p1 = Type::ptrTo(Type::f64());
  Type* p2 = Type::ptrTo(Type::f64());
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, Type::ptrTo(Type::f32()));
  EXPECT_EQ(p1->pointee(), Type::f64());
  EXPECT_EQ(Type::ptrTo(p1)->str(), "f64**");
  EXPECT_EQ(p1->sizeBytes(), 8u);
}

TEST(Constants, InternedPerModule) {
  Module m("t");
  EXPECT_EQ(m.constI32(7), m.constI32(7));
  EXPECT_NE(m.constI32(7), m.constI32(8));
  EXPECT_NE(static_cast<Value*>(m.constI32(7)),
            static_cast<Value*>(m.constI64(7)));
  EXPECT_EQ(m.constF64(1.5), m.constF64(1.5));
  // -0.0 and +0.0 are distinct bit patterns and distinct constants.
  EXPECT_NE(m.constF64(0.0), m.constF64(-0.0));
}

TEST(DefUse, OperandEdgesMaintained) {
  Module m("t");
  Function* f = m.addFunction("f", Type::i32(), {Type::i32()});
  BasicBlock* bb = f->addBlock("entry");
  IRBuilder b(&m);
  b.setInsertPoint(bb);
  Instruction* add = b.add(f->arg(0), m.constI32(1));
  Instruction* mul = b.mul(add, add);
  b.ret(mul);
  EXPECT_EQ(add->uses().size(), 2u); // both mul operands
  EXPECT_EQ(f->arg(0)->uses().size(), 1u);

  // RAUW rewires all uses.
  Instruction* sub = b.insertBlock()->inst(0); // placeholder; build new value
  (void)sub;
  add->replaceAllUsesWith(f->arg(0));
  EXPECT_TRUE(add->uses().empty());
  EXPECT_EQ(mul->operand(0), f->arg(0));
  EXPECT_EQ(mul->operand(1), f->arg(0));
  EXPECT_EQ(f->arg(0)->uses().size(), 3u);
}

TEST(DefUse, DropOperandsUnregisters) {
  Module m("t");
  Function* f = m.addFunction("f", Type::voidTy(), {Type::i32()});
  BasicBlock* bb = f->addBlock("entry");
  IRBuilder b(&m);
  b.setInsertPoint(bb);
  Instruction* add = b.add(f->arg(0), f->arg(0));
  EXPECT_EQ(f->arg(0)->uses().size(), 2u);
  add->dropOperands();
  EXPECT_EQ(f->arg(0)->uses().size(), 0u);
  bb->erase(0);
  b.setInsertPoint(bb);
  b.ret();
}

TEST(Verifier, AcceptsWellFormedFunction) {
  Module m("t");
  Function* f = m.addFunction("f", Type::i32(), {Type::i32()});
  IRBuilder b(&m);
  BasicBlock* entry = f->addBlock("entry");
  BasicBlock* thenB = f->addBlock("then");
  BasicBlock* elseB = f->addBlock("else");
  b.setInsertPoint(entry);
  Instruction* cmp = b.icmp(CmpPred::GT, f->arg(0), m.constI32(0));
  b.condBr(cmp, thenB, elseB);
  b.setInsertPoint(thenB);
  b.ret(m.constI32(1));
  b.setInsertPoint(elseB);
  b.ret(m.constI32(0));
  EXPECT_TRUE(verify(m).empty());
}

TEST(Verifier, RejectsMissingTerminator) {
  Module m("t");
  Function* f = m.addFunction("f", Type::voidTy(), {});
  BasicBlock* bb = f->addBlock("entry");
  IRBuilder b(&m);
  b.setInsertPoint(bb);
  b.add(m.constI32(1), m.constI32(2));
  const auto errs = verify(m);
  ASSERT_FALSE(errs.empty());
  EXPECT_NE(errs[0].find("terminator"), std::string::npos);
}

TEST(Verifier, RejectsPhiPredMismatch) {
  Module m("t");
  Function* f = m.addFunction("f", Type::i32(), {});
  BasicBlock* entry = f->addBlock("entry");
  BasicBlock* next = f->addBlock("next");
  BasicBlock* other = f->addBlock("other");
  IRBuilder b(&m);
  b.setInsertPoint(entry);
  b.br(next);
  b.setInsertPoint(next);
  Instruction* phi = b.phi(Type::i32());
  phi->addPhiIncoming(m.constI32(1), other); // wrong: other is not a pred
  b.ret(phi);
  b.setInsertPoint(other);
  b.ret(m.constI32(0));
  EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, RejectsTypeMismatchedStore) {
  Module m("t");
  Function* f = m.addFunction("f", Type::voidTy(), {});
  BasicBlock* bb = f->addBlock("entry");
  IRBuilder b(&m);
  b.setInsertPoint(bb);
  Instruction* slot = b.alloca_(Type::f64());
  // Bypass the builder's checks to produce a bad store.
  auto bad = std::make_unique<Instruction>(Opcode::Store, Type::voidTy(), "");
  bad->addOperand(m.constI32(7));
  bad->addOperand(slot);
  bb->append(std::move(bad));
  b.ret();
  EXPECT_FALSE(verify(m).empty());
}

TEST(Builder, InsertsMidBlockInProgramOrder) {
  Module m("t");
  Function* f = m.addFunction("f", Type::i32(), {Type::i32()});
  BasicBlock* entry = f->addBlock("entry");
  BasicBlock* loop = f->addBlock("loop");
  IRBuilder b(&m);
  b.setInsertPoint(entry);
  Instruction* add = b.add(f->arg(0), m.constI32(1), "add");
  b.br(loop);
  b.setInsertPoint(loop);
  Instruction* ret = b.ret(add);

  // Between the add and the branch: each create advances the index.
  b.setInsertPoint(entry, 1);
  b.setDebugLoc({1, 7, 3});
  Instruction* mul = b.mul(add, add, "mul");
  Instruction* cmp = b.icmp(CmpPred::LT, mul, m.constI32(9), "cmp");
  EXPECT_EQ(b.insertIndex(), 3u);
  ASSERT_EQ(entry->size(), 4u);
  EXPECT_EQ(entry->inst(1), mul);
  EXPECT_EQ(entry->inst(2), cmp);
  EXPECT_EQ(entry->inst(3)->opcode(), Opcode::Br);
  EXPECT_EQ(cmp->debugLoc(), (DebugLoc{1, 7, 3}));

  // Phis: appended after the block's phis, or exactly at a position.
  b.setInsertPoint(loop);
  Instruction* p1 = b.phi(Type::i32(), "p1");
  b.setInsertPoint(loop, 0);
  Instruction* p0 = b.phi(Type::i32(), "p0");
  EXPECT_EQ(loop->inst(0), p0);
  EXPECT_EQ(loop->inst(1), p1);
  EXPECT_EQ(loop->inst(2), ret);
  EXPECT_EQ(loop->firstNonPhi(), 2u);
  p0->addPhiIncoming(mul, entry);
  p1->addPhiIncoming(add, entry);
  EXPECT_TRUE(verify(m).empty());
}

TEST(Clone, BodyPrintsEqualToTheOriginal) {
  Module m("t");
  const std::uint32_t file = m.internFile("clone.c");
  Function* sq = m.addFunction("sq", Type::f64(), {Type::f64()});
  Function* f = m.addFunction("f", Type::i32(), {Type::i32(), Type::f64()});
  f->setArgName(0, "n");
  f->setArgName(1, "x");
  IRBuilder b(&m);
  b.setInsertPoint(sq->addBlock("entry"));
  b.ret(b.fmul(sq->arg(0), sq->arg(0), "y"));

  BasicBlock* entry = f->addBlock("entry");
  BasicBlock* left = f->addBlock("left");
  BasicBlock* join = f->addBlock("join");
  b.setInsertPoint(entry);
  b.setDebugLoc({file, 2, 5});
  Instruction* cell = b.alloca_(Type::i32(), 4, "cell");
  b.store(f->arg(0), cell);
  Instruction* big = b.icmp(CmpPred::GT, f->arg(0), m.constI32(10), "big");
  b.condBr(big, left, join);
  b.setInsertPoint(left);
  b.setDebugLoc({file, 3, 9});
  Instruction* y = b.call(sq, {f->arg(1)}, "y");
  Instruction* neg = b.fcmp(CmpPred::LT, y, m.constF64(0.5), "neg");
  Instruction* v = b.select(neg, m.constI32(1), b.load(cell, "ld"), "v");
  b.br(join);
  b.setInsertPoint(join);
  b.setDebugLoc({});
  Instruction* phi = b.phi(Type::i32(), "r");
  phi->addPhiIncoming(m.constI32(0), entry);
  phi->addPhiIncoming(v, left);
  b.ret(phi);
  ASSERT_TRUE(verify(m).empty());

  // Into a second module: arguments, constants and the callee map across.
  Module m2("t2");
  m2.internFile("clone.c");
  Function* sq2 = m2.addFunction("sq", Type::f64(), {Type::f64()});
  Function* f2 = m2.addFunction("f", Type::i32(), {Type::i32(), Type::f64()});
  f2->setArgName(0, "n");
  f2->setArgName(1, "x");
  const auto bmap = cloneBody(*f, *f2, "", [&](const Value* v) -> Value* {
    if (v->kind() == ValueKind::Argument)
      return f2->arg(static_cast<const Argument*>(v)->index());
    if (v == sq) return sq2;
    if (const auto* c = dynamic_cast<const ConstantInt*>(v))
      return m2.constInt(c->type(), c->value());
    if (const auto* c = dynamic_cast<const ConstantFP*>(v))
      return m2.constFP(c->type(), c->value());
    ADD_FAILURE() << "unexpected outside value " << toString(v);
    return nullptr;
  });
  EXPECT_EQ(bmap.at(join), f2->block(2));
  IRBuilder b2(&m2);
  b2.setInsertPoint(sq2->addBlock("entry"));
  b2.ret(b2.fmul(sq2->arg(0), sq2->arg(0), "y"));
  EXPECT_TRUE(verify(m2).empty());
  EXPECT_EQ(toString(f2), toString(f));
}

TEST(Split, RepointsTheSuccessorsPhis) {
  Module m("t");
  Function* f = m.addFunction("f", Type::i32(), {Type::i32()});
  BasicBlock* entry = f->addBlock("entry");
  BasicBlock* loop = f->addBlock("loop");
  BasicBlock* exit = f->addBlock("exit");
  IRBuilder b(&m);
  b.setInsertPoint(entry);
  b.br(loop);
  b.setInsertPoint(loop);
  Instruction* i = b.phi(Type::i32(), "i");
  Instruction* next = b.add(i, m.constI32(1), "next");
  Instruction* more = b.icmp(CmpPred::LT, next, f->arg(0), "more");
  b.condBr(more, loop, exit);
  b.setInsertPoint(exit);
  Instruction* out = b.phi(Type::i32(), "out");
  b.ret(out);
  i->addPhiIncoming(m.constI32(0), entry);
  i->addPhiIncoming(next, loop);
  out->addPhiIncoming(next, loop);
  ASSERT_TRUE(verify(m).empty());

  // Split the loop body after the add: the condbr moves to the new block,
  // which becomes the predecessor of both the header (back edge) and exit.
  BasicBlock* tail = loop->splitAt(loop->indexOf(next) + 1, "tail");
  b.setInsertPoint(loop);
  b.br(tail);
  EXPECT_EQ(tail->size(), 2u);
  EXPECT_EQ(more->parent(), tail);
  EXPECT_EQ(i->phiBlock(0), entry);
  EXPECT_EQ(i->phiBlock(1), tail);
  EXPECT_EQ(out->phiBlock(0), tail);
  EXPECT_TRUE(verify(m).empty());

  // And back: phis that named `tail` name `loop` again.
  exit->repointPhis(tail, loop);
  EXPECT_EQ(out->phiBlock(0), loop);
}

TEST(Names, UniquifyMakesNamesUniqueAndNonEmpty) {
  Module m("t");
  Function* f = m.addFunction("f", Type::i32(), {Type::i32(), Type::i32()});
  f->setArgName(0, "x");
  f->setArgName(1, "x"); // duplicate on purpose
  BasicBlock* bb = f->addBlock("entry");
  IRBuilder b(&m);
  b.setInsertPoint(bb);
  Instruction* a = b.add(f->arg(0), f->arg(1), "x"); // clashes with args
  Instruction* c = b.mul(a, a, "");
  b.ret(c);
  uniquifyNames(*f);
  std::set<std::string> seen;
  seen.insert(f->arg(0)->name());
  seen.insert(f->arg(1)->name());
  seen.insert(a->name());
  seen.insert(c->name());
  EXPECT_EQ(seen.size(), 4u);
  for (const auto& n : seen) EXPECT_FALSE(n.empty());
}

TEST(Printer, MentionsOpcodeAndOperands) {
  Module m("t");
  Function* f = m.addFunction("f", Type::f64(), {Type::f64()});
  f->setArgName(0, "x");
  BasicBlock* bb = f->addBlock("entry");
  IRBuilder b(&m);
  b.setInsertPoint(bb);
  Instruction* sq = b.fmul(f->arg(0), f->arg(0), "sq");
  b.ret(sq);
  const std::string s = toString(f);
  EXPECT_NE(s.find("fmul"), std::string::npos);
  EXPECT_NE(s.find("%sq"), std::string::npos);
  EXPECT_NE(s.find("%x"), std::string::npos);
}

TEST(Serialize, RoundTripPreservesStructureAndSemantics) {
  Module m("round");
  m.internFile("a.c");
  GlobalVariable* g = m.addGlobal(Type::f64(), 16, "data");
  g->setInit({1.0, 2.0, 3.0});
  Function* helper = m.addFunction("helper", Type::f64(), {Type::f64()});
  helper->setSimpleCall(true);
  {
    IRBuilder b(&m);
    BasicBlock* bb = helper->addBlock("entry");
    b.setInsertPoint(bb);
    b.ret(b.fmul(helper->arg(0), m.constF64(2.0)));
  }
  Function* f = m.addFunction("main", Type::f64(), {Type::i32()});
  {
    IRBuilder b(&m);
    BasicBlock* entry = f->addBlock("entry");
    BasicBlock* loop = f->addBlock("loop");
    BasicBlock* exit = f->addBlock("exit");
    b.setInsertPoint(entry);
    b.setDebugLoc({1, 10, 3});
    b.br(loop);
    b.setInsertPoint(loop);
    Instruction* i = b.phi(Type::i32(), "i");
    Instruction* idx = b.sext(i, Type::i64());
    Instruction* p = b.gep(g, idx);
    Instruction* v = b.load(p, "v");
    Instruction* dbl = b.call(helper, {v});
    Instruction* next = b.add(i, m.constI32(1));
    i->addPhiIncoming(m.constI32(0), entry);
    i->addPhiIncoming(next, loop);
    Instruction* done = b.icmp(CmpPred::GE, next, m.constI32(3));
    b.condBr(done, exit, loop);
    b.setInsertPoint(exit);
    b.ret(dbl);
  }
  verifyOrDie(m);

  ByteWriter w;
  writeModule(m, w);
  ByteReader r{std::vector<std::uint8_t>(w.data())};
  auto m2 = readModule(r);
  verifyOrDie(*m2);
  EXPECT_EQ(toString(&m), toString(m2.get()));
  EXPECT_EQ(m2->findGlobal("data")->init().size(), 3u);
  EXPECT_TRUE(m2->findFunction("helper")->isSimpleCall());
  // Debug locations survive.
  EXPECT_EQ(m2->findFunction("main")->entry()->inst(0)->debugLoc().line,
            10u);
  EXPECT_EQ(m2->fileName(1), "a.c");
}

TEST(Serialize, RejectsGarbage) {
  ByteReader r{std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}};
  EXPECT_THROW(readModule(r), Error);
}

} // namespace
} // namespace care::test
