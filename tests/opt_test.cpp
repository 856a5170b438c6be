// Optimizer tests: unit behaviour per pass + the global safety property
// that every pass preserves program output on every workload.
#include <gtest/gtest.h>

#include "analysis/loopinfo.hpp"
#include "ir/irbuilder.hpp"
#include "ir/printer.hpp"
#include "opt/passes.hpp"
#include "testutil.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

using namespace ir;
using opt::OptLevel;

std::unique_ptr<Module> compile(const std::string& src) {
  auto m = std::make_unique<Module>("t");
  lang::compileIntoModule(src, "t.c", *m);
  verifyOrDie(*m);
  return m;
}

int countOpcode(const Function& f, Opcode op) {
  int n = 0;
  for (const BasicBlock* bb : f)
    for (const Instruction* in : *bb)
      if (in->opcode() == op) ++n;
  return n;
}

TEST(Mem2Reg, PromotesScalarsEliminatesArrays) {
  auto mp = compile(R"(
    int main() {
      int x = 1;
      int buf[4];
      buf[0] = x;
      for (int i = 1; i < 4; i = i + 1) { buf[i] = buf[i - 1] * 2; }
      return buf[3];
    })");
  Module& m = *mp;
  Function* f = m.findFunction("main");
  opt::simplifyCfg(*f);
  const int allocasBefore = countOpcode(*f, Opcode::Alloca);
  EXPECT_GE(allocasBefore, 3); // x, i, buf
  opt::mem2reg(*f);
  verifyOrDie(m);
  // Scalars promoted; the array alloca must remain.
  EXPECT_EQ(countOpcode(*f, Opcode::Alloca), 1);
  EXPECT_GT(countOpcode(*f, Opcode::Phi), 0);
}

TEST(Mem2Reg, EscapedAllocaNotPromoted) {
  auto mp = compile(R"(
    double id(double* p) { return p[0]; }
    int main() {
      double v[1];
      v[0] = 3.5;
      emit(id(v));
      return 0;
    })");
  Module& m = *mp;
  Function* f = m.findFunction("main");
  opt::simplifyCfg(*f);
  opt::mem2reg(*f);
  verifyOrDie(m);
  EXPECT_EQ(countOpcode(*f, Opcode::Alloca), 1); // v escapes into the call
}

TEST(ConstFold, FoldsArithmeticChains) {
  auto mp = compile("int main() { return (3 + 4) * (10 - 8) / 2; }");
  Module& m = *mp;
  Function* f = m.findFunction("main");
  opt::constFold(*f);
  verifyOrDie(m);
  EXPECT_EQ(countOpcode(*f, Opcode::Add), 0);
  EXPECT_EQ(countOpcode(*f, Opcode::Mul), 0);
  const Instruction* ret = f->entry()->terminator();
  const auto* c = dynamic_cast<const ConstantInt*>(ret->operand(0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 7);
}

TEST(ConstFold, KeepsTrappingDivByZero) {
  auto mp = compile("int main() { return 1 / 0; }");
  Module& m = *mp;
  Function* f = m.findFunction("main");
  opt::constFold(*f);
  EXPECT_EQ(countOpcode(*f, Opcode::SDiv), 1); // must still trap at runtime

  // MIN / -1 traps too, at either width, and the folder computes what the
  // VM computes: an i32 shift count is masked to 5 bits, so 1 << 33 is 2.
  Function* g = m.addFunction("g", Type::i32(), {});
  IRBuilder b(&m);
  b.setInsertPoint(g->addBlock("entry"));
  b.sdiv(m.constI32(INT32_MIN), m.constI32(-1));
  b.sdiv(m.constI64(INT64_MIN), m.constI64(-1));
  b.ret(b.binary(Opcode::Shl, m.constI32(1), m.constI32(33)));
  verifyOrDie(m);
  opt::constFold(*g);
  EXPECT_EQ(countOpcode(*g, Opcode::SDiv), 2);
  const auto* shl =
      dynamic_cast<const ConstantInt*>(g->entry()->terminator()->operand(0));
  ASSERT_NE(shl, nullptr);
  EXPECT_EQ(shl->value(), 2);
}

TEST(ConstFold, IntegerIdentities) {
  // x+0, x*1, x*0, x/1 — applied to a non-constant x.
  Module m("t");
  Function* f = m.addFunction("f", Type::i32(), {Type::i32()});
  IRBuilder b(&m);
  BasicBlock* bb = f->addBlock("entry");
  b.setInsertPoint(bb);
  Value* x = f->arg(0);
  Instruction* a1 = b.add(x, m.constI32(0));
  Instruction* a2 = b.mul(a1, m.constI32(1));
  Instruction* a3 = b.sdiv(a2, m.constI32(1));
  Instruction* z = b.mul(a3, m.constI32(0));
  Instruction* r = b.add(a3, z);
  b.ret(r);
  opt::constFold(*f);
  verifyOrDie(m);
  // Everything reduces to ret x.
  EXPECT_EQ(f->entry()->terminator()->operand(0), x);
}

TEST(Cse, DominatorScopedDeduplication) {
  auto mp = compile(R"(
    int main() {
      int a = 5;
      int b = 7;
      int x = a * b + 1;
      int y = a * b + 1;
      return x - y;
    })");
  Module& m = *mp;
  Function* f = m.findFunction("main");
  opt::simplifyCfg(*f);
  opt::mem2reg(*f);
  const int before = countOpcode(*f, Opcode::Mul);
  opt::cse(*f);
  verifyOrDie(m);
  EXPECT_LT(countOpcode(*f, Opcode::Mul), before);
}

TEST(Cse, LoadForwardingRespectsAliasing) {
  // g and h are distinct globals: a store to h must not kill g's forwarded
  // value; a store through an unknown pointer must.
  auto mp = compile(R"(
    double g[4];
    double h[4];
    double touch(double* p, int i) {
      double a = g[1];
      p[i] = 9.0;     // may alias g (p is an argument)
      return a + g[1];
    }
    double safe(int i) {
      double a = g[1];
      h[i] = 9.0;     // distinct global: cannot alias g
      return a + g[1];
    }
    int main() { return 0; }
  )");
  Module& m = *mp;
  Function* fTouch = m.findFunction("touch");
  Function* fSafe = m.findFunction("safe");
  for (Function* f : {fTouch, fSafe}) {
    opt::simplifyCfg(*f);
    opt::mem2reg(*f);
  }
  const int loadsTouchBefore = countOpcode(*fTouch, Opcode::Load);
  opt::cse(*fTouch);
  opt::cse(*fSafe);
  verifyOrDie(m);
  // touch: both loads of g[1] must survive (p[i] may alias).
  EXPECT_EQ(countOpcode(*fTouch, Opcode::Load), loadsTouchBefore);
  // safe: the second g[1] load is forwarded away.
  EXPECT_EQ(countOpcode(*fSafe, Opcode::Load), 1);
}

TEST(Licm, HoistsInvariantArithmetic) {
  auto mp = compile(R"(
    double data[64];
    double run(int n, int stride) {
      double s = 0.0;
      for (int i = 0; i < n; i = i + 1) {
        s = s + data[(stride + 1) * 2 + i];
      }
      return s;
    }
    int main() { return 0; }
  )");
  Module& m = *mp;
  Function* f = m.findFunction("run");
  opt::simplifyCfg(*f);
  opt::mem2reg(*f);
  opt::constFold(*f);
  opt::licm(*f);
  verifyOrDie(m);
  // (stride+1)*2 must now be outside the loop: find the add/mul on stride
  // and check its block has no back edge into it.
  analysis::DominatorTree dt(*f);
  analysis::LoopInfo li(*f, dt);
  ASSERT_FALSE(li.loops().empty());
  for (BasicBlock* bb : *f) {
    for (Instruction* in : *bb) {
      if (in->opcode() == Opcode::Mul &&
          !dynamic_cast<ConstantInt*>(in->operand(0))) {
        EXPECT_EQ(li.loopFor(in->parent()), nullptr)
            << "invariant mul still inside a loop";
      }
    }
  }
}

TEST(Dce, RemovesUnusedComputation) {
  auto mp = compile(R"(
    int main() {
      int unused = 3 * 4 + 5;
      return 0;
    })");
  Module& m = *mp;
  Function* f = m.findFunction("main");
  opt::simplifyCfg(*f);
  opt::mem2reg(*f);
  opt::dce(*f);
  verifyOrDie(m);
  EXPECT_EQ(countOpcode(*f, Opcode::Mul), 0);
  EXPECT_EQ(countOpcode(*f, Opcode::Add), 0);
}

TEST(Licm, OutputIndependentOfHeapLayout) {
  // LICM once hoisted in the pointer order of the loop's block set, so the
  // same source compiled to different -O1 code depending on where earlier
  // allocations had left the allocator. Compile every workload twice with
  // heap churn in between; the optimized IR must match.
  for (const workloads::Workload* w : workloads::allWorkloads()) {
    std::string first;
    std::vector<std::unique_ptr<char[]>> churn;
    for (int round = 0; round < 2; ++round) {
      for (int j = 0; j < 500; ++j)
        churn.emplace_back(new char[16 + (j * 7919) % 300]);
      Module m(w->name);
      for (const core::SourceFile& src : w->sources)
        lang::compileIntoModule(src.content, src.name, m);
      opt::optimize(m, OptLevel::O1);
      const std::string text = toString(&m);
      if (round == 0)
        first = text;
      else
        EXPECT_EQ(text, first) << w->name;
    }
  }
}

TEST(SimplifyCfg, FoldsConstantBranchesAndDeadBlocks) {
  auto mp = compile(R"(
    int main() {
      if (1) { return 5; }
      return 9;
    })");
  Module& m = *mp;
  Function* f = m.findFunction("main");
  opt::mem2reg(*f);
  opt::constFold(*f);
  opt::simplifyCfg(*f);
  verifyOrDie(m);
  // Collapses to a single block returning 5.
  EXPECT_EQ(f->numBlocks(), 1u);
  const auto* c =
      dynamic_cast<const ConstantInt*>(f->entry()->terminator()->operand(0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 5);
}

// --- global safety property -------------------------------------------------
// Every individual pass, applied alone after mem2reg, must preserve each
// workload's output.

struct PassCase {
  const char* name;
  bool (*run)(Function&);
};

class PassPreservesSemantics
    : public ::testing::TestWithParam<
          std::tuple<const workloads::Workload*, PassCase>> {};

TEST_P(PassPreservesSemantics, OutputUnchanged) {
  const auto& [w, pass] = GetParam();
  // Reference: O0 output.
  auto baseline = [&] {
    Program p;
    p.irMod = std::make_unique<Module>("base");
    for (const auto& s : w->sources)
      lang::compileIntoModule(s.content, s.name, *p.irMod);
    p.mMod = backend::lowerModule(*p.irMod);
    p.image = std::make_unique<vm::Image>();
    p.image->load(p.mMod.get());
    p.image->link();
    return runProgram(p, 500'000'000);
  }();
  ASSERT_EQ(baseline.result.status, vm::RunStatus::Done);

  Program p;
  p.irMod = std::make_unique<Module>("opt");
  for (const auto& s : w->sources)
    lang::compileIntoModule(s.content, s.name, *p.irMod);
  for (Function* f : *p.irMod) {
    if (f->isDeclaration()) continue;
    opt::simplifyCfg(*f);
    opt::mem2reg(*f);
    pass.run(*f);
    opt::simplifyCfg(*f);
  }
  verifyOrDie(*p.irMod);
  p.mMod = backend::lowerModule(*p.irMod);
  p.image = std::make_unique<vm::Image>();
  p.image->load(p.mMod.get());
  p.image->link();
  RunOutput out = runProgram(p, 500'000'000);
  ASSERT_EQ(out.result.status, vm::RunStatus::Done) << pass.name;
  EXPECT_EQ(out.output, baseline.output) << pass.name << " changed output";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PassPreservesSemantics,
    ::testing::Combine(
        ::testing::Values(&workloads::hpccg(), &workloads::minife(),
                          &workloads::gtcp()),
        ::testing::Values(PassCase{"constfold", opt::constFold},
                          PassCase{"cse", opt::cse},
                          PassCase{"licm", opt::licm},
                          PassCase{"dce", opt::dce})),
    [](const auto& info) {
      std::string n = std::get<0>(info.param)->name;
      n += "_";
      n += std::get<1>(info.param).name;
      for (char& c : n)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

} // namespace
} // namespace care::test
