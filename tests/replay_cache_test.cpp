// Replay-cache equivalence tests (DESIGN.md §4c).
//
// The cache's contract: runInjection() through a restored checkpoint is
// *observationally identical* to re-executing the golden prefix from
// instruction 0 — outcomes, signals, manifestation latencies, absolute
// instruction counts, hang classification, SDC output comparison and
// Safeguard activity all byte-for-byte equal. These tests drive the edge
// geometry (fault site exactly on a boundary, before the first checkpoint,
// in the last segment, past the profile count) on both interpreter loops,
// then state the full guarantee over all five workloads via
// serializeDeterministic().
#include <gtest/gtest.h>

#include <filesystem>

#include "inject/experiment.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"

namespace care::test {
namespace {

using inject::Campaign;
using inject::CampaignConfig;
using inject::InjectionPoint;
using inject::InjectionResult;

/// Register-model config on top of the CI env legs: the site-table edge
/// geometry below is a register-model notion, whatever a leg's CARE_FAULT
/// / CARE_ECC.
CampaignConfig pinnedConfig() {
  CampaignConfig cfg;
  runEnv().apply(cfg);
  cfg.fault = inject::FaultModel::Reg;
  cfg.ecc = vm::EccMode::Off;
  return cfg;
}

/// Every deterministic InjectionResult field. replaySavedInstrs is excluded
/// by design: it reports how the result was obtained, not what it is.
void expectSameResult(const InjectionResult& a, const InjectionResult& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.signal, b.signal);
  EXPECT_EQ(a.latencyInstrs, b.latencyInstrs);
  EXPECT_EQ(a.instrsExecuted, b.instrsExecuted);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.survived, b.survived);
  EXPECT_EQ(a.careRecovered, b.careRecovered);
  EXPECT_EQ(a.safeguardActivations, b.safeguardActivations);
  EXPECT_EQ(a.ivAltRecoveries, b.ivAltRecoveries);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.rollbackReexecInstrs, b.rollbackReexecInstrs);
  EXPECT_EQ(a.outputMatchesGolden, b.outputMatchesGolden);
  EXPECT_EQ(a.careFailReason, b.careFailReason);
}

struct ReplayEnv {
  Program p;
  ReplayEnv()
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

/// Restores the process-wide interpreter default on scope exit.
struct InterpGuard {
  vm::InterpKind saved = vm::defaultInterp();
  ~InterpGuard() { vm::setDefaultInterp(saved); }
};

TEST(ReplayCache, BoundaryEdgesMatchFromScratchOnBothInterps) {
  ReplayEnv env;
  InterpGuard guard;
  for (vm::InterpKind interp :
       {vm::InterpKind::Fast, vm::InterpKind::Ref, vm::InterpKind::Jit}) {
    vm::setDefaultInterp(interp);

    CampaignConfig offCfg = pinnedConfig();
    offCfg.hangFactor = 4;
    offCfg.checkpointEveryInstrs = 0; // from-scratch reference
    CampaignConfig onCfg = offCfg;
    onCfg.checkpointEveryInstrs = 400; // many segments across the loop
    Campaign off(env.p.image.get(), offCfg);
    Campaign on(env.p.image.get(), onCfg);
    ASSERT_TRUE(off.profile());
    ASSERT_TRUE(on.profile());
    ASSERT_EQ(off.goldenInstrs(), on.goldenInstrs());
    ASSERT_EQ(off.checkpoints().size(), 0u);
    ASSERT_GE(on.checkpoints().size(), 3u);

    // A hot site: executed once per loop iteration, spanning every segment.
    Rng rng(11);
    InjectionPoint hot;
    do {
      hot = on.sample(rng);
    } while (hot.nth < 10);
    const std::ptrdiff_t si = on.siteIndexOf(hot.loc);
    ASSERT_GE(si, 0);
    vm::Executor prof(env.p.image.get());
    prof.enableProfiling();
    ASSERT_EQ(vm::runToCompletion(prof, "main").status, vm::RunStatus::Done);
    const std::uint64_t total = prof.profileCount(hot.loc);
    ASSERT_GE(total, 10u);

    // A middle checkpoint at which the site has already run: nth landing
    // exactly on its count must fast-forward to the *previous* boundary
    // (the count-th execution completed before this one).
    std::uint64_t boundaryCount = 0;
    for (const Campaign::TrialCheckpoint& ck : on.checkpoints()) {
      const std::uint64_t c = ck.siteCounts[static_cast<std::size_t>(si)];
      if (c >= 2 && c < total) boundaryCount = c;
    }
    ASSERT_GE(boundaryCount, 2u);

    const std::uint64_t edges[] = {
        1,                 // before the first checkpoint sees the site
        boundaryCount,     // exactly on a checkpoint boundary
        boundaryCount + 1, // first execution after that boundary
        total,             // the site's last execution (final segment)
        total + 1000,      // beyond the profile count: never fires
    };
    for (std::uint64_t nth : edges) {
      InjectionPoint pt = hot;
      pt.nth = nth;
      const InjectionResult a = off.runInjection(pt);
      const InjectionResult b = on.runInjection(pt);
      EXPECT_EQ(a.replaySavedInstrs, 0u);
      expectSameResult(a, b);
    }

    // The final-segment trial must actually have used the cache.
    InjectionPoint last = hot;
    last.nth = total;
    EXPECT_GT(on.runInjection(last).replaySavedInstrs, 0u);

    // A site outside the sampling table falls back to a scratch run.
    InjectionPoint alien = hot;
    alien.loc.instr = -1;
    EXPECT_EQ(on.siteIndexOf(alien.loc), -1);
  }
}

TEST(ReplayCache, TinyIntervalIsClampedToBoundedSegmentCount) {
  ReplayEnv env;
  CampaignConfig cfg = pinnedConfig();
  cfg.checkpointEveryInstrs = 1; // would be thousands of segments unclamped
  Campaign c(env.p.image.get(), cfg);
  ASSERT_TRUE(c.profile());
  EXPECT_GT(c.checkpointInterval(), 0u);
  EXPECT_LE(c.checkpoints().size(), 4096u);
}

TEST(ReplayCache, CareRerunFromCheckpointMatchesFromScratch) {
  // SIGSEGV trials are run twice (plain, then with Safeguard attached);
  // both legs must replay through the same checkpoint with identical
  // recovery behaviour. GTC-P at this seed produces SIGSEGVs within a
  // small campaign.
  inject::ExperimentConfig bcfg;
  runEnv().apply(bcfg);
  bcfg.cacheDir = "care_test_artifacts/replay_care";
  std::filesystem::remove_all(bcfg.cacheDir);
  inject::BuiltWorkload built = inject::buildWorkload(workloads::gtcp(), bcfg);

  CampaignConfig onCfg = pinnedConfig();
  onCfg.hangFactor = 4;
  CampaignConfig offCfg = onCfg;
  offCfg.checkpointEveryInstrs = 0;
  Campaign off(built.image.get(), offCfg);
  Campaign on(built.image.get(), onCfg);
  ASSERT_TRUE(off.profile());
  ASSERT_TRUE(on.profile());
  ASSERT_GT(on.checkpoints().size(), 0u);

  const int kTrials = 25;
  const inject::ServiceConfig svc = envService(4);
  inject::CampaignTelemetry telOff, telOn;
  const auto recOff = inject::runCampaign(off, kTrials, /*seed=*/123,
                                          /*threads=*/4, &built.artifacts,
                                          &telOff, &svc);
  const auto recOn = inject::runCampaign(on, kTrials, /*seed=*/123,
                                         /*threads=*/4, &built.artifacts,
                                         &telOn, &svc);
  ASSERT_EQ(recOff.size(), recOn.size());
  int careReruns = 0;
  for (std::size_t i = 0; i < recOff.size(); ++i) {
    expectSameResult(recOff[i].plain, recOn[i].plain);
    ASSERT_EQ(recOff[i].haveCare, recOn[i].haveCare);
    if (recOff[i].haveCare) {
      ++careReruns;
      expectSameResult(recOff[i].withCare, recOn[i].withCare);
    }
  }
  ASSERT_GT(careReruns, 0) << "campaign produced no CARE re-runs to compare";
  EXPECT_EQ(telOff.replaySavedInstrs, 0u);
  EXPECT_GT(telOn.replaySavedInstrs, 0u);
  EXPECT_EQ(telOn.ckptCount, on.checkpoints().size());
}

TEST(ReplayCache, FiveWorkloadsSerializeBitIdentical) {
  // The acceptance-criteria statement: serializeDeterministic() of a
  // checkpointed campaign equals the from-scratch serial campaign for all
  // five workloads — single- and double-bit, with and without CARE
  // artifacts (two combos covering both axes, to bound runtime).
  inject::ExperimentConfig bcfg;
  runEnv().apply(bcfg);
  bcfg.cacheDir = "care_test_artifacts/replay_five";
  std::filesystem::remove_all(bcfg.cacheDir);
  struct Combo {
    unsigned bits;
    bool care;
  };
  const Combo combos[] = {{1, true}, {2, false}};
  std::uint64_t savedTotal = 0;
  for (const workloads::Workload* w : workloads::allWorkloads()) {
    inject::BuiltWorkload built = inject::buildWorkload(*w, bcfg);
    for (const Combo& combo : combos) {
      CampaignConfig onCfg = pinnedConfig();
      onCfg.bitsToFlip = combo.bits;
      onCfg.hangFactor = 4;
      CampaignConfig offCfg = onCfg;
      offCfg.checkpointEveryInstrs = 0;
      Campaign off(built.image.get(), offCfg);
      Campaign on(built.image.get(), onCfg);
      ASSERT_TRUE(off.profile()) << w->name;
      ASSERT_TRUE(on.profile()) << w->name;

      const int kTrials = 8;
      inject::CampaignTelemetry tel;
      // Reference leg serial (threads=1), replay leg parallel: one
      // comparison states both the checkpointed ≡ scratch and parallel ≡
      // serial guarantees at once.
      inject::ExperimentResult a, b;
      a.workload = b.workload = w->name;
      a.level = b.level = opt::OptLevel::O0;
      a.goldenInstrs = off.goldenInstrs();
      b.goldenInstrs = on.goldenInstrs();
      const inject::ServiceConfig serial = envService(1);
      const inject::ServiceConfig parallel = envService(4);
      a.records = inject::runCampaign(
          off, kTrials, /*seed=*/77, /*threads=*/1,
          combo.care ? &built.artifacts : nullptr, nullptr, &serial);
      b.records = inject::runCampaign(
          on, kTrials, /*seed=*/77, /*threads=*/4,
          combo.care ? &built.artifacts : nullptr, &tel, &parallel);
      EXPECT_EQ(inject::serializeDeterministic(a),
                inject::serializeDeterministic(b))
          << w->name << " bits=" << combo.bits << " care=" << combo.care;
      savedTotal += tel.replaySavedInstrs;
    }
  }
  EXPECT_GT(savedTotal, 0u);
}

} // namespace
} // namespace care::test
