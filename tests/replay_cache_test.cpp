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
#include <map>

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
  EXPECT_EQ(a.eccCorrected, b.eccCorrected);
  EXPECT_EQ(a.eccUncorrectable, b.eccUncorrectable);
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

    // Both spacings: a rolling-back env leg's table is its rollback grid.
    CampaignConfig offCfg = pinnedConfig();
    offCfg.rollbackEveryInstrs = 400;
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
    ASSERT_EQ(vm::runToCompletion(prof).status, vm::RunStatus::Done);
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
  // Thousands of segments unclamped. Both spacings, since a rolling-back
  // env leg's table is its rollback grid.
  cfg.checkpointEveryInstrs = cfg.rollbackEveryInstrs = 1;
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

TEST(ReplayCache, EveryStrategyFaultModelAndEccSerializeBitIdentical) {
  // Replay on (fast-forward, rolling-back re-runs with a seeded ring, and
  // convergence) against replay off (from entry, to the end) on every
  // recovery strategy x fault model x ECC mode, with CARE re-runs of every
  // SIGSEGV and ECC-detected trial.
  inject::ExperimentConfig bcfg;
  runEnv().apply(bcfg);
  bcfg.cacheDir = "care_test_artifacts/replay_matrix";
  std::filesystem::remove_all(bcfg.cacheDir);
  inject::BuiltWorkload built = inject::buildWorkload(workloads::gtcp(), bcfg);
  const inject::ServiceConfig svc = envService(4);
  int careReruns = 0;
  for (core::RecoveryStrategy recover :
       {core::RecoveryStrategy::None, core::RecoveryStrategy::Repair,
        core::RecoveryStrategy::Rollback,
        core::RecoveryStrategy::RepairThenRollback})
    for (inject::FaultModel fault :
         {inject::FaultModel::Reg, inject::FaultModel::Mem1,
          inject::FaultModel::Mem2Adj, inject::FaultModel::Burst})
      for (vm::EccMode ecc : {vm::EccMode::Off, vm::EccMode::Secded,
                              vm::EccMode::SecdedCrc}) {
        CampaignConfig onCfg = pinnedConfig();
        onCfg.recover = recover;
        onCfg.fault = fault;
        onCfg.ecc = ecc;
        onCfg.checkpointEveryInstrs = CampaignConfig::kCkptAuto;
        CampaignConfig offCfg = onCfg;
        offCfg.checkpointEveryInstrs = 0;
        Campaign off(built.image.get(), offCfg);
        Campaign on(built.image.get(), onCfg);
        ASSERT_TRUE(off.profile());
        ASSERT_TRUE(on.profile());
        inject::ExperimentResult a, b;
        a.workload = b.workload = "gtcp";
        a.level = b.level = opt::OptLevel::O0;
        a.goldenInstrs = b.goldenInstrs = on.goldenInstrs();
        a.records = inject::runCampaign(off, 12, /*seed=*/55, 4,
                                        &built.artifacts, nullptr, &svc);
        b.records = inject::runCampaign(on, 12, /*seed=*/55, 4,
                                        &built.artifacts, nullptr, &svc);
        EXPECT_EQ(inject::serializeDeterministic(a),
                  inject::serializeDeterministic(b))
            << core::recoveryStrategyName(recover) << " "
            << inject::faultModelName(fault) << " ecc "
            << static_cast<int>(ecc);
        for (const inject::InjectionRecord& r : b.records)
          careReruns += r.haveCare;
      }
  EXPECT_GT(careReruns, 0) << "matrix produced no CARE re-runs";
}

TEST(ReplayCache, BenignTrialsStopOnceTheyReconverge) {
  // Non-vacuity of convergence: on CoMD O0 most Benign tails re-converge
  // with the golden run, and a trial that stopped there reports the
  // skipped tail on top of its skipped prefix — more than its restore
  // point alone.
  inject::ExperimentConfig bcfg;
  runEnv().apply(bcfg);
  bcfg.cacheDir = "care_test_artifacts/replay_converge";
  std::filesystem::remove_all(bcfg.cacheDir);
  inject::BuiltWorkload built = inject::buildWorkload(workloads::comd(), bcfg);
  CampaignConfig cfg = pinnedConfig();
  cfg.checkpointEveryInstrs = CampaignConfig::kCkptAuto;
  Campaign c(built.image.get(), cfg);
  ASSERT_TRUE(c.profile());
  ASSERT_GT(c.checkpoints().size(), 0u);

  Rng rng(2026);
  int benign = 0, converged = 0;
  for (int i = 0; i < 40; ++i) {
    const InjectionPoint pt = c.sample(rng);
    const InjectionResult r = c.runInjection(pt);
    if (r.outcome != inject::Outcome::Benign) continue;
    ++benign;
    // The restore point: the last checkpoint the site had not yet reached
    // its nth execution by.
    const auto si = static_cast<std::size_t>(c.siteIndexOf(pt.loc));
    std::uint64_t restoredAt = 0;
    for (const Campaign::TrialCheckpoint& ck : c.checkpoints())
      if (ck.siteCounts[si] < pt.nth) restoredAt = ck.rp.instrCount;
    EXPECT_GE(r.replaySavedInstrs, restoredAt);
    if (r.replaySavedInstrs == restoredAt) continue;
    ++converged;
    EXPECT_EQ(r.instrsExecuted, c.goldenInstrs());
  }
  ASSERT_GT(benign, 0);
  EXPECT_GT(converged, 0) << "no Benign trial stopped at re-convergence";
}

TEST(ReplayCache, RepairedReRunsStopOnceTheyReconverge) {
  // Non-vacuity of convergence after a repair: a CARE re-run that
  // Safeguard repaired compares with golden on the golden-path count, so
  // on GTC-P some recovered re-run stops early under `repair` and under
  // `repair_then_rollback`. It reports golden plus its repairs as executed
  // and is byte-identical to its replay-off run, which runs to the end.
  inject::ExperimentConfig bcfg;
  runEnv().apply(bcfg);
  bcfg.cacheDir = "care_test_artifacts/replay_repair_converge";
  // Detectors off: armed, they catch most of these faults before the
  // SIGSEGV and leave next to nothing to repair.
  bcfg.armor.detect = {};
  std::filesystem::remove_all(bcfg.cacheDir);
  inject::BuiltWorkload built = inject::buildWorkload(workloads::gtcp(), bcfg);
  const inject::ServiceConfig svc = envService(4);
  for (core::RecoveryStrategy recover :
       {core::RecoveryStrategy::Repair,
        core::RecoveryStrategy::RepairThenRollback}) {
    SCOPED_TRACE(core::recoveryStrategyName(recover));
    CampaignConfig onCfg = pinnedConfig();
    onCfg.recover = recover;
    onCfg.checkpointEveryInstrs = CampaignConfig::kCkptAuto;
    CampaignConfig offCfg = onCfg;
    offCfg.checkpointEveryInstrs = 0;
    Campaign on(built.image.get(), onCfg);
    Campaign off(built.image.get(), offCfg);
    ASSERT_TRUE(on.profile());
    ASSERT_TRUE(off.profile());
    ASSERT_GT(on.checkpoints().size(), 0u);
    const auto recOn = inject::runCampaign(on, 60, /*seed=*/123, 4,
                                           &built.artifacts, nullptr, &svc);
    const auto recOff = inject::runCampaign(off, 60, /*seed=*/123, 4,
                                            &built.artifacts, nullptr, &svc);
    ASSERT_EQ(recOn.size(), recOff.size());
    int converged = 0;
    for (std::size_t i = 0; i < recOn.size(); ++i) {
      const InjectionResult& r = recOn[i].withCare;
      // Recovered, and by at least one repair.
      if (!recOn[i].haveCare || !r.careRecovered ||
          r.safeguardActivations == r.rollbacks)
        continue;
      const InjectionPoint& pt = recOn[i].point;
      const auto si = static_cast<std::size_t>(on.siteIndexOf(pt.loc));
      std::uint64_t restoredAt = 0;
      for (const Campaign::TrialCheckpoint& ck : on.checkpoints())
        if (ck.siteCounts[si] < pt.nth) restoredAt = ck.rp.instrCount;
      if (r.replaySavedInstrs <= restoredAt) continue;
      ++converged;
      SCOPED_TRACE("trial " + std::to_string(i));
      if (r.rollbacks == 0) {
        EXPECT_EQ(r.instrsExecuted,
                  on.goldenInstrs() + r.safeguardActivations);
      }
      EXPECT_EQ(inject::serializeDeterministicRecord(recOn[i]),
                inject::serializeDeterministicRecord(recOff[i]));
    }
    EXPECT_GT(converged, 0) << "no repaired re-run stopped at re-convergence";
  }
}

TEST(ReplayCache, EccTrialsConvergeLikeEveryOtherTrial) {
  // A trial struck under ECC converges too, once its struck word has
  // settled and its state equals golden. On HPCCG mem1+secded some trial
  // stops there, reporting a skipped tail beyond its restore point, and
  // each such trial equals its replay-off run, which runs to the end.
  inject::ExperimentConfig bcfg;
  runEnv().apply(bcfg);
  bcfg.cacheDir = "care_test_artifacts/replay_ecc_converge";
  std::filesystem::remove_all(bcfg.cacheDir);
  inject::BuiltWorkload built =
      inject::buildWorkload(workloads::hpccg(), bcfg);
  CampaignConfig onCfg = pinnedConfig();
  onCfg.fault = inject::FaultModel::Mem1;
  onCfg.ecc = vm::EccMode::Secded;
  onCfg.checkpointEveryInstrs = CampaignConfig::kCkptAuto;
  CampaignConfig offCfg = onCfg;
  offCfg.checkpointEveryInstrs = 0;
  Campaign on(built.image.get(), onCfg);
  Campaign off(built.image.get(), offCfg);
  ASSERT_TRUE(on.profile());
  ASSERT_TRUE(off.profile());
  ASSERT_GT(on.checkpoints().size(), 0u);

  Rng rng(2026);
  int converged = 0;
  for (int i = 0; i < 100; ++i) {
    const InjectionPoint pt = on.sample(rng);
    const InjectionResult r = on.runInjection(pt);
    // The restore point: the last checkpoint at or before the strike.
    std::uint64_t restoredAt = 0;
    for (const Campaign::TrialCheckpoint& ck : on.checkpoints())
      if (ck.rp.instrCount <= pt.nth) restoredAt = ck.rp.instrCount;
    EXPECT_GE(r.replaySavedInstrs, restoredAt);
    if (r.replaySavedInstrs == restoredAt) continue;
    ++converged;
    SCOPED_TRACE("trial " + std::to_string(i));
    expectSameResult(r, off.runInjection(pt));
  }
  EXPECT_GT(converged, 0) << "no ECC trial stopped at re-convergence";
}

TEST(ReplayCache, WatchedTrialsSettleLikeTheirRunToTheEnd) {
  // With the watch table, a memory-model trial that differs from a golden
  // boundary only in its struck word stops there, decided by the golden
  // run's next access to the word. The program's phases make every kind
  // common on its globals: `a` is read long after it is written, `b` is
  // written late, and nothing is touched after the last loop. Over every memory model
  // and ECC mode, each settled trial equals its replay-off run, which
  // runs to the end; each kind of next access settles some trial; and no
  // read-first word under ECC off and no trapping check is ever settled.
  const Program prog = buildProgram(R"(
      double a[512];
      double b[512];
      int main() {
        double s = 0.0;
        for (int i = 0; i < 512; i = i + 1) { a[i] = i * 0.5; }
        for (int r = 0; r < 3; r = r + 1) {
          for (int i = 0; i < 512; i = i + 1) { s = s + a[i]; }
        }
        for (int i = 0; i < 512; i = i + 1) { b[i] = s + i; }
        for (int i = 0; i < 512; i = i + 1) { s = s + b[i]; }
        emit(s);
        return 0;
      })", opt::OptLevel::O0);
  std::map<inject::NextAccess, int> kinds;
  for (const inject::FaultModel fault :
       {inject::FaultModel::Mem1, inject::FaultModel::Mem2Adj,
        inject::FaultModel::Burst})
    for (const vm::EccMode ecc :
         {vm::EccMode::Off, vm::EccMode::Secded, vm::EccMode::SecdedCrc}) {
      CampaignConfig onCfg = pinnedConfig();
      onCfg.fault = fault;
      onCfg.ecc = ecc;
      onCfg.checkpointEveryInstrs = CampaignConfig::kCkptAuto;
      CampaignConfig offCfg = onCfg;
      offCfg.checkpointEveryInstrs = 0;
      Campaign on(prog.image.get(), onCfg);
      Campaign off(prog.image.get(), offCfg);
      ASSERT_TRUE(on.profile());
      ASSERT_TRUE(off.profile());
      // Sampled points, thinned to the globals: the stack's pages would
      // otherwise draw nearly all of them.
      Rng rng(2026);
      std::vector<InjectionPoint> points;
      while (points.size() < 60) {
        const InjectionPoint pt = on.sample(rng);
        if (pt.memAddr < vm::Image::kStackTop - vm::Image::kStackSize)
          points.push_back(pt);
      }
      on.watch(points);
      for (std::size_t i = 0; i < points.size(); ++i) {
        const InjectionResult r = on.runInjection(points[i]);
        if (!r.settled) continue;
        ++kinds[*r.settled];
        SCOPED_TRACE(std::string(inject::faultModelName(fault)) + "/" +
                     vm::eccModeName(ecc) + " trial " + std::to_string(i));
        EXPECT_TRUE(r.survived);
        if (*r.settled == inject::NextAccess::Check) {
          EXPECT_NE(ecc, vm::EccMode::Off);
        }
        expectSameResult(r, off.runInjection(points[i]));
      }
    }
  EXPECT_GT(kinds[inject::NextAccess::None], 0);
  EXPECT_GT(kinds[inject::NextAccess::Check], 0);
  EXPECT_GT(kinds[inject::NextAccess::Overwrite], 0);
}

} // namespace
} // namespace care::test
