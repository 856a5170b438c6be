// Fault-injector unit tests: destination classification, corruption
// mechanics, sampling determinism and weighting — for the register model
// and the memory-resident models (DESIGN.md §4i).
#include <gtest/gtest.h>

#include <algorithm>

#include "backend/mir.hpp"
#include "inject/injector.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"

namespace care::test {
namespace {

using backend::MInst;
using backend::MOp;
using inject::Campaign;
using inject::CampaignConfig;
using inject::FaultModel;

/// Register-model config on top of the CI env legs: the reg-model
/// assertions below (valid pt.loc, profiled nth, operand bit widths) must
/// not be reshaped by a leg's CARE_FAULT / CARE_ECC.
CampaignConfig regConfig() {
  CampaignConfig cfg;
  runEnv().apply(cfg);
  cfg.fault = FaultModel::Reg;
  cfg.ecc = vm::EccMode::Off;
  return cfg;
}

TEST(Injectable, ClassifiesByDestination) {
  MInst in;
  in.op = MOp::IAdd;
  EXPECT_TRUE(Campaign::injectable(in));
  in.op = MOp::Load;
  EXPECT_TRUE(Campaign::injectable(in));
  in.op = MOp::Store;
  EXPECT_TRUE(Campaign::injectable(in)); // destination = memory cell
  in.op = MOp::FMul;
  EXPECT_TRUE(Campaign::injectable(in));
  in.op = MOp::Jmp;
  EXPECT_FALSE(Campaign::injectable(in));
  in.op = MOp::BrCmp;
  EXPECT_FALSE(Campaign::injectable(in)); // no architectural destination
  in.op = MOp::Ret;
  EXPECT_FALSE(Campaign::injectable(in));
  in.op = MOp::Call;
  EXPECT_FALSE(Campaign::injectable(in));
  in.op = MOp::Barrier;
  EXPECT_FALSE(Campaign::injectable(in));
}

struct CorpusEnv {
  Program p;
  CorpusEnv()
      : p(buildProgram(R"(
          double acc[256];
          int main() {
            double s = 0.0;
            for (int i = 0; i < 200; i = i + 1) {
              acc[i % 256] = i * 0.5;
              s = s + acc[i % 256];
            }
            emit(s);
            return 0;
          })", opt::OptLevel::O0)) {}
};

TEST(Sampling, DeterministicForSeed) {
  CorpusEnv env;
  CampaignConfig cfg = regConfig();
  Campaign c(env.p.image.get(), cfg);
  ASSERT_TRUE(c.profile());
  Rng a(5), b(5);
  for (int i = 0; i < 50; ++i) {
    const auto pa = c.sample(a);
    const auto pb = c.sample(b);
    EXPECT_EQ(pa.loc.func, pb.loc.func);
    EXPECT_EQ(pa.loc.instr, pb.loc.instr);
    EXPECT_EQ(pa.nth, pb.nth);
    EXPECT_EQ(pa.bits, pb.bits);
  }
}

TEST(Sampling, ExecutionWeighted) {
  // Instructions inside the 200-iteration loop must be sampled far more
  // often than one-shot prologue instructions.
  CorpusEnv env;
  CampaignConfig cfg = regConfig();
  Campaign c(env.p.image.get(), cfg);
  ASSERT_TRUE(c.profile());
  Rng rng(17);
  int hot = 0;
  const int kSamples = 400;
  for (int i = 0; i < kSamples; ++i) {
    const auto pt = c.sample(rng);
    // "hot" proxy: the sampled dynamic occurrence is beyond the first.
    if (pt.nth > 1) ++hot;
  }
  EXPECT_GT(hot, kSamples / 2);
}

TEST(Sampling, NthWithinProfiledCount) {
  CorpusEnv env;
  CampaignConfig cfg = regConfig();
  Campaign c(env.p.image.get(), cfg);
  ASSERT_TRUE(c.profile());
  Rng rng(23);
  vm::Executor prof(env.p.image.get());
  prof.enableProfiling();
  ASSERT_EQ(vm::runToCompletion(prof, "main").status, vm::RunStatus::Done);
  for (int i = 0; i < 200; ++i) {
    const auto pt = c.sample(rng);
    EXPECT_GE(pt.nth, 1u);
    EXPECT_LE(pt.nth, prof.profileCount(pt.loc));
  }
}

TEST(Sampling, DoubleBitFlipsAreDistinctBits) {
  CorpusEnv env;
  CampaignConfig cfg = regConfig();
  cfg.bitsToFlip = 2;
  Campaign c(env.p.image.get(), cfg);
  ASSERT_TRUE(c.profile());
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    const auto pt = c.sample(rng);
    ASSERT_EQ(pt.bits.size(), 2u);
    EXPECT_NE(pt.bits[0], pt.bits[1]);
    EXPECT_LT(pt.bits[0], 64u);
    EXPECT_LT(pt.bits[1], 64u);
  }
}

TEST(CorruptDestination, FlipsIntRegister) {
  CorpusEnv env;
  vm::Executor ex(env.p.image.get());
  // Find an IAdd with a register destination to corrupt.
  const auto& code = env.p.image->module(0).mod->functions[0].code;
  std::int32_t site = -1;
  for (std::size_t i = 0; i < code.size(); ++i)
    if (code[i].op == MOp::IAdd && code[i].dst >= 0) {
      site = static_cast<std::int32_t>(i);
      break;
    }
  ASSERT_GE(site, 0);
  const std::int16_t dst = code[static_cast<std::size_t>(site)].dst;
  ex.state().g[dst] = 0x100;
  Campaign::corruptDestination(ex, {0, 0, site}, {3});
  EXPECT_EQ(ex.state().g[dst], 0x108u);
  Campaign::corruptDestination(ex, {0, 0, site}, {3});
  EXPECT_EQ(ex.state().g[dst], 0x100u);
}

TEST(CorruptDestination, FlipsStoredMemoryCell) {
  CorpusEnv env;
  vm::Executor ex(env.p.image.get());
  const auto& lm = env.p.image->module(0);
  // Find a store to the global (acc) and corrupt its cell post-hoc.
  const auto& code = lm.mod->functions[0].code;
  std::int32_t site = -1;
  for (std::size_t i = 0; i < code.size(); ++i)
    if (code[i].op == MOp::Store && code[i].mem.globalIdx >= 0) {
      site = static_cast<std::int32_t>(i);
      break;
    }
  ASSERT_GE(site, 0);
  const MInst& st = code[static_cast<std::size_t>(site)];
  // Make the effective address point at the global's first element.
  if (st.mem.base >= 0) ex.state().g[st.mem.base] = 0;
  if (st.mem.index >= 0) ex.state().g[st.mem.index] = 0;
  const std::uint64_t addr =
      lm.globalAddr[static_cast<std::size_t>(st.mem.globalIdx)] +
      static_cast<std::uint64_t>(st.mem.disp);
  ex.memory().storeF(addr, backend::MType::F64, 1.0);
  Campaign::corruptDestination(ex, {0, 0, site}, {63});
  double after = 0;
  ASSERT_EQ(ex.memory().loadF(addr, backend::MType::F64, after),
            vm::MemStatus::Ok);
  EXPECT_EQ(after, -1.0); // sign bit flipped
}

TEST(Injection, PointBeyondProfileCountCompletesWithoutHang) {
  // An `nth` past the instruction's dynamic execution count is simply never
  // reached: the run must finish its golden path (no hang, no fault) and
  // report injected=false.
  CorpusEnv env;
  CampaignConfig cfg = regConfig();
  cfg.hangFactor = 4;
  Campaign c(env.p.image.get(), cfg);
  ASSERT_TRUE(c.profile());
  vm::Executor prof(env.p.image.get());
  prof.enableProfiling();
  ASSERT_EQ(vm::runToCompletion(prof, "main").status, vm::RunStatus::Done);
  Rng rng(41);
  inject::InjectionPoint pt = c.sample(rng);
  pt.nth = prof.profileCount(pt.loc) + 1000;
  const inject::InjectionResult r = c.runInjection(pt);
  EXPECT_FALSE(r.injected);
  EXPECT_EQ(r.outcome, inject::Outcome::Benign);
  EXPECT_TRUE(r.survived);
  EXPECT_TRUE(r.outputMatchesGolden);
}

TEST(Injection, DoubleBitPointFiresWithDistinctBits) {
  CorpusEnv env;
  CampaignConfig cfg = regConfig();
  cfg.bitsToFlip = 2;
  Campaign c(env.p.image.get(), cfg);
  ASSERT_TRUE(c.profile());
  Rng rng(43);
  const inject::InjectionPoint pt = c.sample(rng);
  ASSERT_EQ(pt.bits.size(), 2u);
  EXPECT_NE(pt.bits[0], pt.bits[1]);
  // Sampled nth is within the profiled count, so the point is reached.
  EXPECT_TRUE(c.runInjection(pt).injected);
}

TEST(CorruptDestination, DoubleBitFlipTouchesBothPositions) {
  CorpusEnv env;
  vm::Executor ex(env.p.image.get());
  const auto& code = env.p.image->module(0).mod->functions[0].code;
  std::int32_t site = -1;
  for (std::size_t i = 0; i < code.size(); ++i)
    if (code[i].op == MOp::IAdd && code[i].dst >= 0) {
      site = static_cast<std::int32_t>(i);
      break;
    }
  ASSERT_GE(site, 0);
  const std::int16_t dst = code[static_cast<std::size_t>(site)].dst;
  ex.state().g[dst] = 0;
  Campaign::corruptDestination(ex, {0, 0, site}, {3, 5});
  EXPECT_EQ(ex.state().g[dst], 0x28u); // bits 3 and 5, both flipped once
  Campaign::corruptDestination(ex, {0, 0, site}, {3, 5});
  EXPECT_EQ(ex.state().g[dst], 0u);
}

// Regression for the double-bit degeneration fix: bit positions are drawn
// within the destination operand's width, so a 2-bit flip into an i32 (or
// i8) store cell can never fold both draws onto one physical bit the way
// the old `bit % width` reduction could.
TEST(Sampling, DoubleBitStaysWithinDestinationWidth) {
  Program p = buildProgram(R"(
      int small[64];
      double wide[64];
      int main() {
        int s = 0;
        double d = 0.0;
        for (int i = 0; i < 150; i = i + 1) {
          small[i % 64] = i * 3;
          wide[i % 64] = i * 0.5;
          s = s + small[i % 64];
          d = d + wide[i % 64];
        }
        emiti(s);
        emit(d);
        return 0;
      })", opt::OptLevel::O0);
  CampaignConfig cfg = regConfig();
  cfg.bitsToFlip = 2;
  Campaign c(p.image.get(), cfg);
  ASSERT_TRUE(c.profile());
  Rng rng(97);
  int narrow = 0;
  for (int i = 0; i < 300; ++i) {
    const auto pt = c.sample(rng);
    ASSERT_EQ(pt.bits.size(), 2u);
    EXPECT_NE(pt.bits[0], pt.bits[1]); // the regression: never degenerate
    const MInst& in = p.image->instruction(pt.loc);
    const unsigned width =
        in.op == MOp::Store ? 8u * backend::mtypeSize(in.mem.type) : 64u;
    EXPECT_LT(pt.bits[0], width);
    EXPECT_LT(pt.bits[1], width);
    if (in.op == MOp::Store && width < 64) ++narrow;
  }
  EXPECT_GT(narrow, 0) << "sweep never hit a narrow store cell";
}

// --- memory-resident models (DESIGN.md §4i) ---------------------------------

TEST(Sampling, MemoryModelsShapeTheirFaults) {
  CorpusEnv env;
  vm::Executor probe(env.p.image.get());
  const std::vector<std::uint64_t> pages = probe.memory().pageNumbers();
  ASSERT_FALSE(pages.empty());
  for (FaultModel m :
       {FaultModel::Mem1, FaultModel::Mem2Adj, FaultModel::Burst}) {
    CampaignConfig cfg = regConfig();
    cfg.fault = m;
    Campaign c(env.p.image.get(), cfg);
    ASSERT_TRUE(c.profile());
    Rng rng(59);
    for (int i = 0; i < 100; ++i) {
      const auto pt = c.sample(rng);
      EXPECT_EQ(pt.model, m);
      EXPECT_LT(pt.nth, c.goldenInstrs());
      EXPECT_EQ(pt.memAddr % 8, 0u) << "unaligned fault word";
      const std::uint64_t page = pt.memAddr / vm::Memory::kPageSize;
      EXPECT_TRUE(std::binary_search(pages.begin(), pages.end(), page))
          << "fault site outside the mapped image";
      switch (m) {
      case FaultModel::Mem1:
        ASSERT_EQ(pt.bits.size(), 1u);
        EXPECT_LT(pt.bits[0], 64u);
        break;
      case FaultModel::Mem2Adj:
        ASSERT_EQ(pt.bits.size(), 2u);
        EXPECT_EQ(pt.bits[1], pt.bits[0] + 1);
        EXPECT_LT(pt.bits[1], 64u);
        break;
      case FaultModel::Burst: {
        ASSERT_EQ(pt.bits.size(), 8u);
        EXPECT_EQ(pt.bits[0] % 8, 0u); // lane-aligned
        for (unsigned b = 0; b < 8; ++b)
          EXPECT_EQ(pt.bits[b], pt.bits[0] + b);
        EXPECT_LT(pt.bits[7], 64u);
        break;
      }
      case FaultModel::Reg:
        FAIL() << "reg model in the memory sweep";
      }
    }
  }
}

TEST(Sampling, FaultModelParsingRoundTrips) {
  EXPECT_EQ(inject::parseFaultModel("reg"), FaultModel::Reg);
  EXPECT_EQ(inject::parseFaultModel("mem1"), FaultModel::Mem1);
  EXPECT_EQ(inject::parseFaultModel("mem2adj"), FaultModel::Mem2Adj);
  EXPECT_EQ(inject::parseFaultModel("burst"), FaultModel::Burst);
  for (FaultModel m : {FaultModel::Reg, FaultModel::Mem1, FaultModel::Mem2Adj,
                       FaultModel::Burst})
    EXPECT_EQ(inject::parseFaultModel(inject::faultModelName(m)), m);
  EXPECT_THROW(inject::parseFaultModel("dram"), Error);
  EXPECT_THROW(inject::parseFaultModel(""), Error);
}

/// A program whose `w[8]` globals are written once up front and then read
/// round-robin for hundreds of iterations: a fault injected into w[0]
/// mid-run is guaranteed to meet a typed load shortly after.
struct MemFaultEnv {
  Program p;
  std::uint64_t wAddr = 0; // &w[0]
  MemFaultEnv()
      : p(buildProgram(R"(
          double w[8];
          int main() {
            for (int i = 0; i < 8; i = i + 1) { w[i] = i + 1; }
            double s = 0.0;
            for (int i = 0; i < 400; i = i + 1) {
              s = s + w[i % 8];
            }
            emit(s);
            return 0;
          })", opt::OptLevel::O0)) {
    const auto& lm = p.image->module(0);
    for (const MInst& in : lm.mod->functions[0].code)
      if (in.op == MOp::Store && in.mem.globalIdx >= 0) {
        wAddr = lm.globalAddr[static_cast<std::size_t>(in.mem.globalIdx)];
        break;
      }
  }
};

TEST(Injection, SingleBitMemoryFaultIsCorrectedUnderSecded) {
  MemFaultEnv env;
  ASSERT_NE(env.wAddr, 0u);
  CampaignConfig cfg = regConfig();
  cfg.fault = FaultModel::Mem1;
  cfg.ecc = vm::EccMode::Secded;
  cfg.hangFactor = 4;
  Campaign c(env.p.image.get(), cfg);
  ASSERT_TRUE(c.profile());
  inject::InjectionPoint pt;
  pt.model = FaultModel::Mem1;
  pt.nth = c.goldenInstrs() / 2; // mid read-loop: w[0] is long since written
  pt.memAddr = env.wAddr;
  pt.bits = {1};
  const inject::InjectionResult r = c.runInjection(pt);
  EXPECT_TRUE(r.injected);
  EXPECT_EQ(r.outcome, inject::Outcome::Corrected);
  EXPECT_GE(r.eccCorrected, 1u);
  EXPECT_EQ(r.eccUncorrectable, 0u);
  EXPECT_TRUE(r.outputMatchesGolden);
}

TEST(Injection, AdjacentDoubleBitMemoryFaultTrapsUncorrectable) {
  MemFaultEnv env;
  ASSERT_NE(env.wAddr, 0u);
  CampaignConfig cfg = regConfig();
  cfg.fault = FaultModel::Mem2Adj;
  cfg.ecc = vm::EccMode::Secded;
  cfg.hangFactor = 4;
  Campaign c(env.p.image.get(), cfg);
  ASSERT_TRUE(c.profile());
  inject::InjectionPoint pt;
  pt.model = FaultModel::Mem2Adj;
  pt.nth = c.goldenInstrs() / 2;
  pt.memAddr = env.wAddr;
  pt.bits = {4, 5};
  const inject::InjectionResult r = c.runInjection(pt);
  EXPECT_TRUE(r.injected);
  EXPECT_EQ(r.outcome, inject::Outcome::Detected);
  EXPECT_EQ(r.signal, vm::TrapKind::EccUncorrectable);
  EXPECT_GE(r.eccUncorrectable, 1u);
}

TEST(Injection, MemoryFaultWithoutEccLandsSilently) {
  MemFaultEnv env;
  ASSERT_NE(env.wAddr, 0u);
  CampaignConfig cfg = regConfig();
  cfg.fault = FaultModel::Mem1;
  cfg.hangFactor = 4;
  Campaign c(env.p.image.get(), cfg);
  ASSERT_TRUE(c.profile());
  inject::InjectionPoint pt;
  pt.model = FaultModel::Mem1;
  pt.nth = c.goldenInstrs() / 2;
  pt.memAddr = env.wAddr;
  pt.bits = {62}; // exponent bit: the remaining w[0] reads poison the sum
  const inject::InjectionResult r = c.runInjection(pt);
  EXPECT_TRUE(r.injected);
  EXPECT_EQ(r.outcome, inject::Outcome::SDC);
  EXPECT_EQ(r.eccCorrected, 0u);
  EXPECT_FALSE(r.outputMatchesGolden);
}

TEST(Injection, NeverReadAgainFaultIsCaughtByTheEndOfTrialScrub) {
  // CorpusEnv touches acc[i] exactly once per loop index: a fault planted
  // in an already-consumed element never meets a load, so only the
  // end-of-trial patrol scrub can find (and fix) it.
  CorpusEnv env;
  const auto& lm = env.p.image->module(0);
  std::uint64_t accAddr = 0;
  for (const MInst& in : lm.mod->functions[0].code)
    if (in.op == MOp::Store && in.mem.globalIdx >= 0) {
      accAddr = lm.globalAddr[static_cast<std::size_t>(in.mem.globalIdx)];
      break;
    }
  ASSERT_NE(accAddr, 0u);
  CampaignConfig cfg = regConfig();
  cfg.fault = FaultModel::Mem1;
  cfg.ecc = vm::EccMode::Secded;
  cfg.hangFactor = 4;
  Campaign c(env.p.image.get(), cfg);
  ASSERT_TRUE(c.profile());
  inject::InjectionPoint pt;
  pt.model = FaultModel::Mem1;
  pt.nth = (c.goldenInstrs() * 3) / 4; // acc[0] is far behind the loop
  pt.memAddr = accAddr;
  pt.bits = {7};
  const inject::InjectionResult r = c.runInjection(pt);
  EXPECT_TRUE(r.injected);
  EXPECT_EQ(r.outcome, inject::Outcome::Corrected);
  EXPECT_GE(r.eccCorrected, 1u);
  EXPECT_TRUE(r.outputMatchesGolden);
}

TEST(Campaign, GoldenOutputsStableAcrossCampaigns) {
  CorpusEnv env;
  CampaignConfig cfg = regConfig();
  Campaign c1(env.p.image.get(), cfg);
  Campaign c2(env.p.image.get(), cfg);
  ASSERT_TRUE(c1.profile());
  ASSERT_TRUE(c2.profile());
  EXPECT_EQ(c1.goldenInstrs(), c2.goldenInstrs());
  EXPECT_EQ(c1.goldenOutput(), c2.goldenOutput());
}

} // namespace
} // namespace care::test
