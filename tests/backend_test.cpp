// Backend tests: lowering invariants, register allocation discipline,
// addressing-mode folding, CISC load-op fusion, debug-info emission.
#include <gtest/gtest.h>

#include "care/armor.hpp"
#include "ir/names.hpp"
#include "testutil.hpp"

namespace care::test {
namespace {

using namespace backend;

std::unique_ptr<MModule> lower(const std::string& src,
                               opt::OptLevel level) {
  auto m = std::make_unique<ir::Module>("t");
  lang::compileIntoModule(src, "t.c", *m);
  ir::verifyOrDie(*m);
  opt::optimize(*m, level);
  ir::uniquifyNames(*m);
  return lowerModule(*m);
}

/// Every register field in finalized code must be a physical register.
void expectAllPhysical(const MFunction& f) {
  for (const MInst& in : f.code) {
    for (std::int16_t r : {in.dst, in.src1, in.src2, in.mem.base,
                           in.mem.index}) {
      EXPECT_TRUE(r == kNoReg || (r >= 0 && r < kNumRegs))
          << f.name << ": " << toString(in);
    }
  }
}

class RegAllocAllPhysical
    : public ::testing::TestWithParam<opt::OptLevel> {};

TEST_P(RegAllocAllPhysical, NoVirtualRegistersSurvive) {
  auto mm = lower(R"(
    double data[256];
    double work(int n, double scale) {
      double acc = 0.0;
      for (int i = 0; i < n; i = i + 1) {
        for (int j = 0; j < n; j = j + 1) {
          acc = acc + data[i * 16 + j] * scale - data[j] / (scale + 1.0);
        }
      }
      return acc;
    }
    int main() {
      for (int i = 0; i < 256; i = i + 1) { data[i] = i; }
      emit(work(16, 1.5));
      return 0;
    })", GetParam());
  for (const MFunction& f : mm->functions) expectAllPhysical(f);
}

INSTANTIATE_TEST_SUITE_P(Levels, RegAllocAllPhysical,
                         ::testing::Values(opt::OptLevel::O0,
                                           opt::OptLevel::O1));

TEST(Backend, LineTableCoversEveryInstruction) {
  auto mm = lower("int main() { int x = 1; return x + 2; }",
                  opt::OptLevel::O0);
  for (const MFunction& f : mm->functions)
    EXPECT_EQ(f.lineTable.size(), f.code.size());
}

TEST(Backend, GlobalAddressingFoldsIntoMemoryOperand) {
  auto mm = lower(R"(
    double g[32];
    int main() {
      int i = 3;
      g[i] = 2.0;
      return 0;
    })", opt::OptLevel::O0);
  bool sawGlobalStore = false;
  for (const MInst& in : mm->functions[0].code) {
    if (in.op == MOp::Store && in.mem.globalIdx == 0 &&
        in.mem.index != kNoReg && in.mem.scale == 8)
      sawGlobalStore = true;
  }
  EXPECT_TRUE(sawGlobalStore)
      << "expected a store with [g0 + idx*8] addressing";
}

TEST(Backend, CiscLoadOpFusionAtO1) {
  // s += a[i] * b[i]: at O1 one of the loads should fuse into an FAluMem.
  auto mm = lower(R"(
    double a[64];
    double b[64];
    int main() {
      double s = 0.0;
      for (int i = 0; i < 64; i = i + 1) { s = s + a[i] * b[i]; }
      emit(s);
      return 0;
    })", opt::OptLevel::O1);
  int fused = 0;
  for (const MInst& in : mm->functions[0].code)
    if (in.op == MOp::FAluMem) ++fused;
  EXPECT_GT(fused, 0) << "no CISC memory-operand ALU instruction emitted";
}

TEST(Backend, FusedInstructionCarriesLoadDebugLoc) {
  // The paper attaches the memory access's debug info to the instruction it
  // fuses into (§3.3). The fused FAluMem's loc must be a load's location,
  // which Armor made unique.
  auto m = std::make_unique<ir::Module>("t");
  lang::compileIntoModule(R"(
    double a[64];
    int main() {
      double s = 0.0;
      for (int i = 0; i < 64; i = i + 1) { s = s + a[i * 2]; }
      emit(s);
      return 0;
    })", "t.c", *m);
  opt::optimize(*m, opt::OptLevel::O1);
  core::ArmorResult armor = core::runArmor(*m);
  auto mm = lowerModule(*m);
  // Collect the debug tuples Armor registered.
  std::set<std::uint64_t> keys;
  bool sawFusedWithKey = false;
  for (const MFunction& f : mm->functions) {
    for (const MInst& in : f.code) {
      if (in.op != MOp::FAluMem && in.op != MOp::IAluMem) continue;
      ASSERT_TRUE(in.loc.valid());
      const std::uint64_t key = core::recoveryKey(
          m->fileName(in.loc.file), in.loc.line, in.loc.col);
      if (armor.table.find(key)) sawFusedWithKey = true;
    }
  }
  EXPECT_TRUE(sawFusedWithKey)
      << "fused memory op not resolvable through the recovery table";
}

TEST(Backend, VarLocsEmittedForNamedValues) {
  auto mm = lower(R"(
    double buf[16];
    double f(int base, int stride) {
      return buf[base * stride + 1];
    }
    int main() { emit(f(1, 2)); return 0; }
  )", opt::OptLevel::O1);
  const MFunction* f = nullptr;
  for (const MFunction& fn : mm->functions)
    if (fn.name == "f") f = &fn;
  ASSERT_NE(f, nullptr);
  std::set<std::string> names;
  for (const VarLoc& vl : f->varLocs) {
    EXPECT_LE(vl.beginIdx, vl.endIdx);
    EXPECT_LE(vl.endIdx, f->code.size());
    names.insert(vl.name);
  }
  EXPECT_TRUE(names.count("base"));
  EXPECT_TRUE(names.count("stride"));
}

TEST(Backend, FrameAddrVarLocsForAllocas) {
  auto mm = lower(R"(
    double f() {
      double local[8];
      for (int i = 0; i < 8; i = i + 1) { local[i] = i; }
      return local[3];
    }
    int main() { emit(f()); return 0; }
  )", opt::OptLevel::O0);
  const MFunction* f = nullptr;
  for (const MFunction& fn : mm->functions)
    if (fn.name == "f") f = &fn;
  ASSERT_NE(f, nullptr);
  bool sawFrameAddr = false;
  for (const VarLoc& vl : f->varLocs)
    if (vl.kind == LocKind::FrameAddr && vl.name == "local") {
      sawFrameAddr = true;
      EXPECT_LT(vl.regOrOffset, 0); // below the frame pointer
    }
  EXPECT_TRUE(sawFrameAddr);
}

TEST(Backend, FrameSizeIsAligned) {
  auto mm = lower(R"(
    int main() {
      double a[3];
      a[0] = 1.0;
      return (int)(a[0]);
    })", opt::OptLevel::O0);
  for (const MFunction& f : mm->functions) EXPECT_EQ(f.frameSize % 16, 0u);
}

TEST(Backend, MTypeMapping) {
  EXPECT_EQ(mtypeFor(ir::Type::i1()), MType::I8);
  EXPECT_EQ(mtypeFor(ir::Type::i32()), MType::I32);
  EXPECT_EQ(mtypeFor(ir::Type::i64()), MType::I64);
  EXPECT_EQ(mtypeFor(ir::Type::f32()), MType::F32);
  EXPECT_EQ(mtypeFor(ir::Type::f64()), MType::F64);
  EXPECT_EQ(mtypeFor(ir::Type::ptrTo(ir::Type::f64())), MType::I64);
  EXPECT_TRUE(mtypeIsFP(MType::F32));
  EXPECT_FALSE(mtypeIsFP(MType::I32));
}

TEST(Backend, DisassemblerPrintsOperands) {
  MInst in;
  in.op = MOp::Load;
  in.dst = 6;
  in.mem.base = 13;
  in.mem.index = 8;
  in.mem.scale = 8;
  in.mem.disp = -16;
  in.mem.type = MType::F64;
  const std::string s = toString(in);
  EXPECT_NE(s.find("load"), std::string::npos);
  EXPECT_NE(s.find("r13"), std::string::npos);
  EXPECT_NE(s.find("r8*8"), std::string::npos);
}

TEST(Backend, DisassemblerPrintsEachOperandInItsClass) {
  // A conversion's source is in the other class from its destination; a
  // runtime service's operand follows the service, not a destination.
  MInst in;
  in.dst = 6;
  in.src1 = 7;
  in.op = MOp::CvtSiToF;
  EXPECT_EQ(toString(in), "cvtsi2f f6, r7");
  in.op = MOp::CvtFToSi;
  EXPECT_EQ(toString(in), "cvtf2si r6, f7");
  in.op = MOp::FSetCmp;
  in.src2 = 8;
  EXPECT_EQ(toString(in), "fsetcmp r6 eq, f7, f8");
  // An immediate compare prints its immediate.
  in.op = MOp::BrCmp;
  in.src2 = kNoReg;
  in.imm = 4;
  in.target = 9;
  EXPECT_EQ(toString(in), "brcmp eq r7, $4 -> 9");
  MInst out;
  out.src1 = 7;
  out.op = MOp::Emit;
  EXPECT_EQ(toString(out), "emit f7");
  out.op = MOp::EmitI;
  EXPECT_EQ(toString(out), "emiti r7");
  out.op = MOp::Store;
  out.mem.base = kFP;
  out.mem.disp = -8;
  out.mem.type = MType::F64;
  EXPECT_EQ(toString(out), "store [r13 -8], f7");
}

} // namespace
} // namespace care::test
