// Safeguard runtime tests: Algorithm 1's failure paths, the SDC guard,
// operand patching, cross-module key resolution.
#include <gtest/gtest.h>

#include <filesystem>

#include "care/driver.hpp"
#include "inject/injector.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"
#include "vm/checkpoint_ring.hpp"

namespace care::test {
namespace {

using core::CompiledModule;
using core::ModuleArtifacts;
using core::Safeguard;

const char* kProg = R"(
double grid[1024];
int scale = 4;
int main() {
  for (int i = 0; i < 1024; i = i + 1) { grid[i] = i; }
  double s = 0.0;
  for (int step = 0; step < 3; step = step + 1) {
    for (int i = 0; i < 200; i = i + 1) {
      s = s + grid[scale * i + step];
    }
  }
  emit(s);
  return 0;
}
)";

struct Env {
  CompiledModule cm;
  std::unique_ptr<vm::Image> image;
  std::map<std::int32_t, ModuleArtifacts> artifacts;
};

Env build(opt::OptLevel level, const std::string& tag) {
  core::CompileOptions opts;
  opts.optLevel = level;
  opts.artifactDir = "care_test_artifacts";
  Env e;
  e.cm = core::careCompile({{"sg.c", kProg}}, "sg_" + tag, opts);
  e.image = std::make_unique<vm::Image>();
  e.image->load(e.cm.mmod.get());
  e.image->link();
  e.artifacts[0] = e.cm.artifacts;
  return e;
}

/// Deterministically find one SIGSEGV-producing injection.
inject::InjectionPoint findSegv(const Env&, inject::Campaign& campaign,
                                std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < 500; ++i) {
    const auto pt = campaign.sample(rng);
    const auto plain = campaign.runInjection(pt);
    if (plain.outcome == inject::Outcome::SoftFailure &&
        plain.signal == vm::TrapKind::SegFault)
      return pt;
  }
  ADD_FAILURE() << "no SIGSEGV found";
  return {};
}

TEST(Safeguard, MissingArtifactFileFailsGracefully) {
  Env e = build(opt::OptLevel::O0, "miss");
  inject::CampaignConfig ccfg;
  inject::Campaign campaign(e.image.get(), ccfg);
  ASSERT_TRUE(campaign.profile());
  const auto pt = findSegv(e, campaign, 1);
  std::map<std::int32_t, ModuleArtifacts> bogus{
      {0, {"/nonexistent/t.rtable", "/nonexistent/t.rlib"}}};
  const auto r = campaign.runInjection(pt, &bogus);
  EXPECT_FALSE(r.careRecovered);
  EXPECT_EQ(r.careFailReason, "artifact load failed");
}

TEST(Safeguard, NonSegvTrapsPropagate) {
  core::CompileOptions opts;
  opts.optLevel = opt::OptLevel::O0;
  opts.artifactDir = "care_test_artifacts";
  auto cm = core::careCompile(
      {{"fpe.c", "int z = 0; int main() { return 7 / z; }"}}, "sg_fpe",
      opts);
  vm::Image image;
  image.load(cm.mmod.get());
  image.link();
  vm::Executor ex(&image);
  Safeguard sg;
  sg.addModule(0, cm.artifacts);
  sg.attach(ex);
  const vm::RunResult r = ex.run();
  EXPECT_EQ(r.status, vm::RunStatus::Trapped);
  EXPECT_EQ(r.trap.kind, vm::TrapKind::Fpe);
  EXPECT_EQ(sg.stats().activations, 0u); // SIGSEGV-only service
}

TEST(Safeguard, SdcGuardRefusesContaminatedInputs) {
  // Corrupt the *parameter* of the kernel (the alloca slot holding i at
  // O0 / the phi register at O1) such that the recomputed address equals
  // the faulting one: Safeguard must refuse and propagate.
  Env e = build(opt::OptLevel::O0, "guard");
  inject::CampaignConfig ccfg;
  inject::Campaign campaign(e.image.get(), ccfg);
  ASSERT_TRUE(campaign.profile());
  // Run many injections; verify every failure tagged with the equality
  // reason did NOT survive, and every recovery produced golden output.
  Rng rng(33);
  int guards = 0;
  for (int i = 0; i < 800 && guards == 0; ++i) {
    const auto pt = campaign.sample(rng);
    const auto plain = campaign.runInjection(pt);
    if (plain.outcome != inject::Outcome::SoftFailure ||
        plain.signal != vm::TrapKind::SegFault)
      continue;
    const auto withCare = campaign.runInjection(pt, &e.artifacts);
    if (withCare.careFailReason ==
        "recomputed address equals faulting address") {
      ++guards;
      EXPECT_FALSE(withCare.careRecovered);
    }
    if (withCare.careRecovered) {
      EXPECT_TRUE(withCare.outputMatchesGolden)
          << "recovery introduced an SDC";
    }
  }
  EXPECT_GT(guards, 0) << "SDC guard never exercised";
}

TEST(Safeguard, RecoversAtO1WithRegisterParams) {
  Env e = build(opt::OptLevel::O1, "o1");
  inject::CampaignConfig ccfg;
  inject::Campaign campaign(e.image.get(), ccfg);
  ASSERT_TRUE(campaign.profile());
  Rng rng(77);
  int recovered = 0, segv = 0;
  for (int i = 0; i < 250 && recovered == 0; ++i) {
    const auto pt = campaign.sample(rng);
    const auto plain = campaign.runInjection(pt);
    if (plain.outcome != inject::Outcome::SoftFailure ||
        plain.signal != vm::TrapKind::SegFault)
      continue;
    ++segv;
    const auto withCare = campaign.runInjection(pt, &e.artifacts);
    if (withCare.careRecovered) ++recovered;
  }
  EXPECT_GT(segv, 0);
  EXPECT_GT(recovered, 0);
}

TEST(Safeguard, StatsRecordTimingBreakdown) {
  Env e = build(opt::OptLevel::O0, "stats");
  inject::CampaignConfig ccfg;
  inject::Campaign campaign(e.image.get(), ccfg);
  ASSERT_TRUE(campaign.profile());
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    const auto pt = campaign.sample(rng);
    const auto plain = campaign.runInjection(pt);
    if (plain.outcome != inject::Outcome::SoftFailure ||
        plain.signal != vm::TrapKind::SegFault)
      continue;
    const auto withCare = campaign.runInjection(pt, &e.artifacts);
    if (withCare.careRecovered) {
      EXPECT_GT(withCare.recoveryUsTotal, 0.0);
      EXPECT_GE(withCare.kernelUsTotal, 0.0);
      EXPECT_LT(withCare.kernelUsTotal, withCare.recoveryUsTotal);
      return;
    }
  }
  FAIL() << "no recovery observed";
}

TEST(Safeguard, TruncatedLineTableFailsGracefully) {
  // A PC whose instruction index is outside the function's line table must
  // produce a clean "no debug location" failure, not an out-of-bounds read.
  Env e = build(opt::OptLevel::O0, "linetab");
  inject::CampaignConfig ccfg;
  inject::Campaign campaign(e.image.get(), ccfg);
  ASSERT_TRUE(campaign.profile());
  const auto pt = findSegv(e, campaign, 11);
  // The image executes the same MFunctions the module owns, so emptying the
  // line tables models debug info stripped after codegen.
  for (auto& fn : e.cm.mmod->functions) fn.lineTable.clear();
  const auto r = campaign.runInjection(pt, &e.artifacts);
  EXPECT_FALSE(r.careRecovered);
  EXPECT_EQ(r.careFailReason, "no debug location");
}

TEST(Safeguard, PatchSkipsZeroScaleIndex) {
  // scale == 0 cannot come out of the backend, but a corrupt MemRef must
  // not divide by zero: the index is unpatchable and the base absorbs the
  // correction.
  vm::MachineState st;
  st.g[3] = 1000;
  st.g[4] = 77;
  backend::MemRef mem;
  mem.base = 3;
  mem.index = 4;
  mem.scale = 0;
  mem.disp = 8;
  EXPECT_TRUE(core::patchAddressOperand(st, mem, /*gaddr=*/0,
                                        /*newAddr=*/2048,
                                        Safeguard::PatchTarget::IndexFirst));
  EXPECT_EQ(st.g[4], 77u) << "index register must not be touched";
  EXPECT_EQ(st.g[3], 2048u - 0u * 0u - 8u); // newAddr - index*scale - disp
}

TEST(Safeguard, PatchRefusesZeroScaleWithPinnedBase) {
  // Zero scale AND a frame-pointer base: nothing is patchable.
  vm::MachineState st;
  st.g[backend::kFP] = 4096;
  st.g[2] = 5;
  backend::MemRef mem;
  mem.base = backend::kFP;
  mem.index = 2;
  mem.scale = 0;
  EXPECT_FALSE(core::patchAddressOperand(st, mem, 0, 2048,
                                         Safeguard::PatchTarget::IndexFirst));
  EXPECT_EQ(st.g[backend::kFP], 4096u);
  EXPECT_EQ(st.g[2], 5u);
}

TEST(Safeguard, PatchPrefersIndexWhenDivisible) {
  vm::MachineState st;
  st.g[3] = 1000;
  st.g[4] = 5;
  backend::MemRef mem;
  mem.base = 3;
  mem.index = 4;
  mem.scale = 8;
  EXPECT_TRUE(core::patchAddressOperand(st, mem, 0, /*newAddr=*/1096,
                                        Safeguard::PatchTarget::IndexFirst));
  EXPECT_EQ(st.g[4], 12u); // (1096 - 1000) / 8
  EXPECT_EQ(st.g[3], 1000u);
}

TEST(Safeguard, RecordCapBoundsMemoryButNotCounters) {
  Env e = build(opt::OptLevel::O0, "cap");
  inject::CampaignConfig ccfg;
  inject::Campaign campaign(e.image.get(), ccfg);
  ASSERT_TRUE(campaign.profile());
  const auto pt = findSegv(e, campaign, 21);

  // One long-lived Safeguard with NO modules registered: every activation
  // fails with the same stable reason. Cap the records at 2 and trap 5x.
  Safeguard sg;
  sg.setMaxRecords(2);
  for (int i = 0; i < 5; ++i) {
    vm::Executor ex(e.image.get());
    ex.setBudget(1'000'000'000ull);
    sg.attach(ex);
    ex.armInjection(pt.loc, pt.nth, [&](vm::Executor& ex2) {
      inject::Campaign::corruptDestination(ex2, pt.loc, pt.bits);
    });
    const vm::RunResult r = vm::runToCompletion(ex);
    EXPECT_EQ(r.status, vm::RunStatus::Trapped);
  }
  EXPECT_EQ(sg.stats().activations, 5u);
  EXPECT_EQ(sg.stats().records.size(), 2u);
  EXPECT_EQ(sg.stats().droppedRecords, 3u);
  // failures is keyed by the closed failCodeName set, not per-activation
  // strings: one key, counted 5 times.
  ASSERT_EQ(sg.stats().failures.size(), 1u);
  const auto it = sg.stats().failures.find(
      core::failCodeName(core::FailCode::ModuleNotCompiled));
  ASSERT_NE(it, sg.stats().failures.end());
  EXPECT_EQ(it->second, 5u);
}

TEST(Safeguard, PhaseTimingsTileTheActivation) {
  // Fig. 9 invariant: the five phases are cut on one boundary-timestamp
  // timeline, so on a recovered activation they sum to at most the total
  // (the gap is only record construction + artifact release) and account
  // for the bulk of it.
  Env e = build(opt::OptLevel::O0, "phases");
  inject::CampaignConfig ccfg;
  inject::Campaign campaign(e.image.get(), ccfg);
  ASSERT_TRUE(campaign.profile());
  Rng rng(123);
  for (int i = 0; i < 300; ++i) {
    const auto pt = campaign.sample(rng);
    const auto plain = campaign.runInjection(pt);
    if (plain.outcome != inject::Outcome::SoftFailure ||
        plain.signal != vm::TrapKind::SegFault)
      continue;
    const auto withCare = campaign.runInjection(pt, &e.artifacts);
    if (!withCare.careRecovered) continue;
    const double phaseSum = withCare.keyUsTotal + withCare.loadUsTotal +
                            withCare.paramUsTotal + withCare.kernelUsTotal +
                            withCare.patchUsTotal;
    EXPECT_GT(phaseSum, 0.0);
    EXPECT_LE(phaseSum, withCare.recoveryUsTotal * 1.0001 + 1e-6);
    EXPECT_GE(phaseSum, 0.5 * withCare.recoveryUsTotal)
        << "phases should account for the bulk of the activation";
    return;
  }
  FAIL() << "no recovery observed";
}

TEST(Safeguard, RecoveryEmitsTraceSpans) {
  trace::enable((std::filesystem::temp_directory_path() /
                 "care_safeguard_trace_test.json")
                    .string());
  trace::reset();
  Env e = build(opt::OptLevel::O0, "trace");
  inject::CampaignConfig ccfg;
  inject::Campaign campaign(e.image.get(), ccfg);
  ASSERT_TRUE(campaign.profile());
  Rng rng(7);
  bool recovered = false;
  for (int i = 0; i < 300 && !recovered; ++i) {
    const auto pt = campaign.sample(rng);
    const auto plain = campaign.runInjection(pt);
    if (plain.outcome != inject::Outcome::SoftFailure ||
        plain.signal != vm::TrapKind::SegFault)
      continue;
    recovered = campaign.runInjection(pt, &e.artifacts).careRecovered;
  }
  const std::string json = trace::render();
  trace::disable();
  trace::reset();
  ASSERT_TRUE(recovered) << "no recovery observed";
  for (const char* span : {"safeguard.key", "safeguard.load",
                           "safeguard.params", "safeguard.kernel",
                           "safeguard.patch", "safeguard.onTrap"})
    EXPECT_NE(json.find(span), std::string::npos) << span;
}

TEST(Safeguard, StatsCommitOnlyBehindOutcomeDecision) {
  // Pin of the outcome-commit refactor: every stats_ mutation happens after
  // the strategy decision is final, so across all four strategies on the
  // *same* trap the counters exactly tile the records — no mid-flight
  // accounting from attempts a later decision point abandons.
  Env e = build(opt::OptLevel::O0, "strategy");
  inject::CampaignConfig ccfg;
  inject::Campaign campaign(e.image.get(), ccfg);
  ASSERT_TRUE(campaign.profile());

  // A point the repair path handles, so Repair diverges from Rollback/None
  // on the identical trap.
  Rng rng(44);
  inject::InjectionPoint pt;
  bool found = false;
  for (int i = 0; i < 300 && !found; ++i) {
    pt = campaign.sample(rng);
    const auto plain = campaign.runInjection(pt);
    if (plain.outcome != inject::Outcome::SoftFailure ||
        plain.signal != vm::TrapKind::SegFault)
      continue;
    found = campaign.runInjection(pt, &e.artifacts).careRecovered;
  }
  ASSERT_TRUE(found) << "no repairable SIGSEGV found";

  using core::RecoveryStrategy;
  struct Variant {
    RecoveryStrategy s;
    bool armRing;
  };
  const Variant variants[] = {
      {RecoveryStrategy::Repair, false},
      {RecoveryStrategy::RepairThenRollback, true},
      {RecoveryStrategy::Rollback, true},
      {RecoveryStrategy::Rollback, false}, // rollback wanted, no ring armed
      {RecoveryStrategy::None, false},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(std::string(core::recoveryStrategyName(v.s)) +
                 (v.armRing ? "+ring" : ""));
    vm::Executor ex(e.image.get());
    Safeguard sg;
    sg.addModule(0, e.artifacts[0]);
    sg.setStrategy(v.s);
    vm::CheckpointRing ring(8);
    if (v.armRing) sg.setRollbackSource(&ring);
    sg.attach(ex);
    ex.armInjection(pt.loc, pt.nth, [&](vm::Executor& ex2) {
      inject::Campaign::corruptDestination(ex2, pt.loc, pt.bits);
    });
    const std::uint64_t budget = campaign.goldenInstrs() * 4;
    const vm::RunResult r =
        v.armRing ? vm::runCheckpointed(ex, /*interval=*/500, budget,
                                        [&](vm::Executor& ex2) {
                                          ring.push(ex2);
                                        })
                  : [&] {
                      ex.setBudget(budget);
                      return vm::runToCompletion(ex);
                    }();

    // The tiling invariant, for every strategy.
    const core::SafeguardStats& st = sg.stats();
    EXPECT_EQ(st.activations, st.records.size() + st.droppedRecords);
    std::uint64_t recovered = 0, rolledBack = 0, failed = 0;
    for (const core::RecoveryRecord& rec : st.records) {
      EXPECT_FALSE(rec.recovered && rec.rolledBack)
          << "a record cannot be both repaired and rolled back";
      recovered += rec.recovered ? 1 : 0;
      rolledBack += rec.rolledBack ? 1 : 0;
      failed += (!rec.recovered && !rec.rolledBack) ? 1 : 0;
    }
    EXPECT_EQ(st.recovered, recovered);
    EXPECT_EQ(st.rollbacks, rolledBack);
    std::uint64_t failTally = 0;
    for (const auto& [name, n] : st.failures) failTally += n;
    EXPECT_EQ(failTally, failed);

    ASSERT_GE(st.records.size(), 1u);
    const core::RecoveryRecord& rec = st.records.front();
    switch (v.s) {
    case RecoveryStrategy::Repair:
    case RecoveryStrategy::RepairThenRollback:
      ASSERT_EQ(st.activations, 1u);
      EXPECT_EQ(r.status, vm::RunStatus::Done);
      EXPECT_EQ(st.recovered, 1u);
      EXPECT_EQ(st.rollbacks, 0u) << "rollback engaged on a repair success";
      break;
    case RecoveryStrategy::Rollback:
      if (v.armRing) {
        // A rollback into a checkpoint captured after the corruption can
        // re-trap and cascade (strictly toward the entry), so >= 1
        // activation — but every one must be a rollback, never a repair.
        EXPECT_EQ(r.status, vm::RunStatus::Done);
        EXPECT_EQ(st.recovered, 0u) << "repair ran under rollback-only";
        EXPECT_GE(st.rollbacks, 1u);
        EXPECT_EQ(st.rollbacks, st.activations);
        for (const core::RecoveryRecord& rr : st.records) {
          EXPECT_TRUE(rr.rolledBack);
          EXPECT_EQ(rr.failReason, "repair disabled by strategy");
          // The latent-bug pin: repair phases the strategy never ran must
          // not have accrued any timing.
          EXPECT_EQ(rr.keyUs + rr.loadUs + rr.paramUs + rr.kernelUs +
                        rr.patchUs,
                    0.0);
        }
      } else {
        ASSERT_EQ(st.activations, 1u);
        EXPECT_EQ(r.status, vm::RunStatus::Trapped);
        EXPECT_EQ(rec.failCode, core::FailCode::NoCheckpointForRollback);
        EXPECT_EQ(rec.failReason,
                  "repair disabled by strategy; rollback: "
                  "no checkpoint ring armed");
      }
      break;
    case RecoveryStrategy::None:
      ASSERT_EQ(st.activations, 1u);
      EXPECT_EQ(r.status, vm::RunStatus::Trapped);
      EXPECT_EQ(st.recovered, 0u);
      EXPECT_EQ(st.rollbacks, 0u);
      EXPECT_EQ(rec.failCode, core::FailCode::RecoveryDisabled);
      EXPECT_EQ(rec.failReason, "recovery disabled by strategy");
      EXPECT_EQ(rec.keyUs + rec.loadUs + rec.paramUs + rec.kernelUs +
                    rec.patchUs + rec.rollbackUs,
                0.0);
      break;
    }
  }
}

} // namespace
} // namespace care::test
