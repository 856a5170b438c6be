// Rollback-domain recovery tests (DESIGN.md §4f).
//
// Three layers, bottom up:
//  * CheckpointRing edge semantics: strict latestBefore, boundary faults,
//    eviction under tiny capacity with the entry slot pinned, stale-future
//    dropping after a rollback;
//  * the runCheckpointed() boundary driver: grid pauses, entry capture,
//    events on the golden-path count, observational equivalence with a
//    plain run;
//  * the strategy-level differential oracles: a repair-success trial is
//    byte-identical between `repair` and `repair_then_rollback`; a clean
//    (never-injected) run under `rollback` is observationally identical to
//    `none`; a rollback whose fault let corrupt/duplicated output escape
//    is classified RolledBack-with-SDC, never as recovered; a rollback
//    re-run that fast-forwards through the replay cache rolls back to the
//    same targets as one run from entry.
#include <gtest/gtest.h>

#include <filesystem>

#include "backend/mir.hpp"
#include "care/driver.hpp"
#include "inject/engine.hpp"
#include "inject/experiment.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"
#include "vm/checkpoint_ring.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

using core::RecoveryStrategy;
using inject::Campaign;
using inject::CampaignConfig;
using inject::InjectionPoint;
using inject::InjectionRecord;
using inject::InjectionResult;
using inject::Outcome;
using vm::CheckpointRing;

/// A position-only ResumePoint for ring unit tests (no machine state
/// needed: the ring orders and selects purely by instrCount).
vm::Executor::ResumePoint rpAt(std::uint64_t n) {
  vm::Executor::ResumePoint rp;
  rp.instrCount = n;
  return rp;
}

/// Restores the process-wide interpreter default on scope exit.
struct InterpGuard {
  vm::InterpKind saved = vm::defaultInterp();
  ~InterpGuard() { vm::setDefaultInterp(saved); }
};

// --- CheckpointRing -------------------------------------------------------

TEST(CheckpointRing, LatestBeforeIsStrictlyBelow) {
  CheckpointRing ring(4);
  ring.push(rpAt(0)); // entry
  ring.push(rpAt(100));
  ring.push(rpAt(200));
  EXPECT_TRUE(ring.hasEntry());
  EXPECT_EQ(ring.size(), 3u);

  EXPECT_EQ(ring.latestBefore(0), nullptr); // nothing below the entry
  ASSERT_NE(ring.latestBefore(1), nullptr);
  EXPECT_EQ(ring.latestBefore(1)->instrCount, 0u);
  // A fault exactly on a checkpoint boundary selects the *previous* state.
  EXPECT_EQ(ring.latestBefore(100)->instrCount, 0u);
  EXPECT_EQ(ring.latestBefore(101)->instrCount, 100u);
  EXPECT_EQ(ring.latestBefore(200)->instrCount, 100u);
  EXPECT_EQ(ring.latestBefore(~0ull)->instrCount, 200u);
}

TEST(CheckpointRing, TinyCapacityEvictsOldestButPinsEntry) {
  CheckpointRing ring(2); // entry + one periodic slot
  ring.push(rpAt(0));
  ring.push(rpAt(10));
  ring.push(rpAt(20));
  ring.push(rpAt(30));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_TRUE(ring.hasEntry());
  EXPECT_EQ(ring.evicted(), 2u); // 10 then 20 fell off
  EXPECT_EQ(ring.latestBefore(100)->instrCount, 30u);
  // With 10/20 evicted, a fault below 30 falls through to the entry: the
  // fault-before-any-surviving-checkpoint case degrades to from-entry.
  EXPECT_EQ(ring.latestBefore(30)->instrCount, 0u);

  CheckpointRing solo(0); // clamped to the entry slot alone
  EXPECT_EQ(solo.capacity(), 1u);
  solo.push(rpAt(0));
  solo.push(rpAt(50));
  EXPECT_EQ(solo.size(), 1u);
  EXPECT_TRUE(solo.hasEntry());
  EXPECT_EQ(solo.latestBefore(100)->instrCount, 0u);
}

TEST(CheckpointRing, PushDropsStaleFuturesAfterRollback) {
  CheckpointRing ring(8);
  ring.push(rpAt(0));
  ring.push(rpAt(100));
  ring.push(rpAt(200));
  ring.push(rpAt(300));
  // A rollback rewound below 200; the grid re-reaches 200 and pushes a
  // fresh capture. The stale 200/300 (discarded timeline) must go first.
  ring.push(rpAt(200));
  EXPECT_EQ(ring.size(), 3u); // 0, 100, fresh 200
  EXPECT_EQ(ring.latestBefore(250)->instrCount, 200u);
  EXPECT_EQ(ring.latestBefore(~0ull)->instrCount, 200u);
  // A push back at the entry count marks the *whole* periodic ring stale
  // (the executor rewound to the entry); only the pinned entry survives.
  ring.push(rpAt(0));
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_TRUE(ring.hasEntry());
}

TEST(CheckpointRing, DropAfterRemovesDiscardedTimeline) {
  CheckpointRing ring(8);
  ring.push(rpAt(0));
  ring.push(rpAt(100));
  ring.push(rpAt(200));
  ring.dropAfter(100); // rollback restored the 100-checkpoint
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.latestBefore(~0ull)->instrCount, 100u);
  ring.dropAfter(0); // restore target was the entry itself: entry stays
  EXPECT_TRUE(ring.hasEntry());
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.evicted(), 0u); // dropAfter is not ring pressure
}

// --- runCheckpointed ------------------------------------------------------

TEST(CheckpointRing, RunCheckpointedPausesOnGridAndMatchesPlainRun) {
  const Program p = buildProgram(R"(
      double acc[128];
      int main() {
        double s = 0.0;
        for (int i = 0; i < 300; i = i + 1) {
          acc[i % 128] = i * 0.25;
          s = s + acc[i % 128];
        }
        emit(s);
        return 0;
      })", opt::OptLevel::O0);
  vm::Executor plain(p.image.get());
  plain.setBudget(2'000'000'000ull);
  const vm::RunResult ref = vm::runToCompletion(plain);
  ASSERT_EQ(ref.status, vm::RunStatus::Done);

  vm::Executor ex(p.image.get());
  std::vector<std::uint64_t> boundaries;
  const vm::RunResult r = vm::runCheckpointed(
      ex, 100, 2'000'000'000ull,
      [&](vm::Executor& e) { boundaries.push_back(e.instrCount()); });
  EXPECT_EQ(r.status, vm::RunStatus::Done);
  EXPECT_EQ(r.exitCode, ref.exitCode);
  EXPECT_EQ(r.instrCount, ref.instrCount);
  EXPECT_EQ(ex.output(), plain.output());

  ASSERT_GE(boundaries.size(), 3u);
  EXPECT_EQ(boundaries[0], 0u); // entry boundary before instruction 0
  for (std::size_t i = 1; i < boundaries.size(); ++i)
    EXPECT_EQ(boundaries[i], i * 100) << "boundary off the absolute grid";

  // The entry capture must be a *restorable* position (started), not a
  // never-run executor's: restore it into a third executor and finish.
  vm::Executor probe(p.image.get());
  vm::Executor::ResumePoint entryRp;
  vm::runCheckpointed(probe, 1'000'000'000ull, 2'000'000'000ull,
                      [&](vm::Executor& e) { entryRp = e.resumePoint(); });
  ASSERT_TRUE(entryRp.started);
  ASSERT_EQ(entryRp.instrCount, 0u);
  vm::Executor resumed(p.image.get());
  resumed.restoreCheckpoint(entryRp);
  resumed.setBudget(2'000'000'000ull);
  const vm::RunResult rr = vm::runToCompletion(resumed);
  EXPECT_EQ(rr.status, vm::RunStatus::Done);
  EXPECT_EQ(rr.instrCount, ref.instrCount);
  EXPECT_EQ(resumed.output(), plain.output());
}

TEST(CheckpointRing, RunCheckpointedWalksEventsInScheduleOrder) {
  const Program p = buildProgram(R"(
      int main() {
        int s = 0;
        for (int i = 0; i < 300; i = i + 1) { s = s + i; }
        emit(s);
        return 0;
      })", opt::OptLevel::O0);
  // Stops as (instrCount, 'b'oundary | 'e'vent), in the order they fire.
  std::vector<std::pair<std::uint64_t, char>> stops;
  auto event = [&](std::uint64_t at) {
    return vm::ScheduledEvent{
        at, [&](vm::Executor& e) {
          stops.emplace_back(e.instrCount(), 'e');
          return false;
        }};
  };
  const std::vector<vm::ScheduledEvent> events = {event(0), event(250),
                                                  event(300), event(301)};
  vm::Executor ex(p.image.get());
  const vm::RunResult r = vm::runCheckpointed(
      ex, 100, 2'000'000'000ull,
      [&](vm::Executor& e) { stops.emplace_back(e.instrCount(), 'b'); },
      events);
  EXPECT_EQ(r.status, vm::RunStatus::Done);
  // At an equal count the periodic boundary comes first.
  const std::vector<std::pair<std::uint64_t, char>> want = {
      {0, 'b'},   {0, 'e'},   {100, 'b'}, {200, 'b'}, {250, 'e'},
      {300, 'b'}, {300, 'e'}, {301, 'e'}, {400, 'b'}};
  ASSERT_GE(stops.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(stops[i], want[i]) << "stop " << i;

  // Events alone (interval 0) stop only at the events.
  stops.clear();
  vm::Executor solo(p.image.get());
  vm::runCheckpointed(
      solo, 0, 2'000'000'000ull,
      [&](vm::Executor& e) { stops.emplace_back(e.instrCount(), 'b'); },
      events);
  const std::vector<std::pair<std::uint64_t, char>> eventsOnly = {
      {0, 'e'}, {250, 'e'}, {300, 'e'}, {301, 'e'}};
  EXPECT_EQ(stops, eventsOnly);
}

TEST(CheckpointRing, RunCheckpointedStopsAtAnEventThatAsks) {
  const Program p = buildProgram(R"(
      int main() {
        int s = 0;
        for (int i = 0; i < 300; i = i + 1) { s = s + i; }
        emit(s);
        return 0;
      })", opt::OptLevel::O0);
  std::vector<std::uint64_t> boundaries, fired;
  auto event = [&](std::uint64_t at, bool stop) {
    return vm::ScheduledEvent{at, [&, stop](vm::Executor& e) {
                                fired.push_back(e.instrCount());
                                return stop;
                              }};
  };
  const std::vector<vm::ScheduledEvent> events = {
      event(150, false), event(250, true), event(350, false)};
  vm::Executor ex(p.image.get());
  const vm::RunResult r = vm::runCheckpointed(
      ex, 100, 2'000'000'000ull,
      [&](vm::Executor& e) { boundaries.push_back(e.instrCount()); }, events);
  EXPECT_EQ(r.status, vm::RunStatus::BudgetExceeded);
  EXPECT_EQ(r.instrCount, 250u);
  EXPECT_EQ(ex.instrCount(), 250u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{150, 250}));
  EXPECT_EQ(boundaries, (std::vector<std::uint64_t>{0, 100, 200}));
  EXPECT_TRUE(ex.output().empty());
}

TEST(CheckpointRing, RunCheckpointedStopsEventsOnTheGoldenPathCount) {
  // A repaired store inside the segment moves an event's stop one
  // instruction later, and the run stops again there; periodic boundaries
  // stay on the raw count, and at an equal count the boundary comes
  // first.
  const Program p = buildProgram(R"(
      double a[8];
      int main() {
        int i = 2;
        a[i] = 1.0;
        emit(a[2]);
        return 0;
      })", opt::OptLevel::O0);
  const vm::FuncRef mainFn = p.image->mainFunction();
  const auto& code = p.image->function({mainFn.module, mainFn.func, 0}).code;
  std::int32_t store = -1;
  for (std::size_t i = 0; i < code.size() && store < 0; ++i)
    if (code[i].op == backend::MOp::Store &&
        code[i].mem.index != backend::kNoReg)
      store = static_cast<std::int32_t>(i);
  ASSERT_GT(store, 0) << "no indexed store in main";
  const auto reg =
      static_cast<std::size_t>(code[static_cast<std::size_t>(store)].mem.index);
  // Straight-line main: the golden point at count store + 2 is past the
  // store.
  const std::uint64_t at = static_cast<std::uint64_t>(store) + 2;
  vm::Executor gold(p.image.get());
  ASSERT_EQ(gold.runBounded(at).status, vm::RunStatus::BudgetExceeded);
  const vm::Executor::ResumePoint goldAt = gold.resumePoint();

  vm::Executor ex(p.image.get());
  std::uint64_t intact = 0;
  ex.armInjection({mainFn.module, mainFn.func, store - 1}, 1,
                  [&](vm::Executor& e) {
                    intact = e.state().g[reg];
                    e.state().g[reg] ^= 1ull << 40;
                  });
  ex.setTrapHook([&](vm::Executor& e, const vm::Trap&) {
    e.state().g[reg] = intact;
    return vm::TrapAction::Retry;
  });
  std::vector<std::uint64_t> boundaries, fired;
  bool same = false;
  const std::vector<vm::ScheduledEvent> events = {
      {at, [&](vm::Executor& e) {
         fired.push_back(e.instrCount());
         same = e.sameState(goldAt);
         return true;
       }}};
  const vm::RunResult r = vm::runCheckpointed(
      ex, at + 1, 2'000'000'000ull,
      [&](vm::Executor& e) { boundaries.push_back(e.instrCount()); }, events);
  EXPECT_EQ(r.status, vm::RunStatus::BudgetExceeded);
  EXPECT_EQ(ex.retries(), 1u);
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{at + 1}));
  EXPECT_TRUE(same);
  EXPECT_EQ(boundaries, (std::vector<std::uint64_t>{0, at + 1}));
}

// --- strategy differentials ----------------------------------------------

/// CARE-compiled module + image + artifacts for direct campaign use.
struct CareEnv {
  core::CompiledModule cm;
  std::unique_ptr<vm::Image> image;
  std::map<std::int32_t, core::ModuleArtifacts> artifacts;
};

CareEnv buildCare(const char* src, const std::string& tag,
                  opt::OptLevel level = opt::OptLevel::O0) {
  core::CompileOptions opts;
  opts.optLevel = level;
  opts.artifactDir = "care_test_artifacts";
  CareEnv e;
  e.cm = core::careCompile({{tag + ".c", src}}, "rb_" + tag, opts);
  e.image = std::make_unique<vm::Image>();
  e.image->load(e.cm.mmod.get());
  e.image->link();
  e.artifacts[0] = e.cm.artifacts;
  return e;
}

/// Campaign config on top of the CI env legs, with the strategy, ring,
/// fault model and ECC these differentials need (findSegv() below hunts
/// register-model SIGSEGVs).
CampaignConfig pinnedConfig(RecoveryStrategy s) {
  CampaignConfig cfg;
  runEnv().apply(cfg);
  cfg.recover = s;
  cfg.rollbackRingCap = 8;
  cfg.fault = inject::FaultModel::Reg;
  cfg.ecc = vm::EccMode::Off;
  return cfg;
}

/// Deterministically find one SIGSEGV-producing injection.
InjectionPoint findSegv(Campaign& campaign, std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < 500; ++i) {
    const InjectionPoint pt = campaign.sample(rng);
    const InjectionResult plain = campaign.runInjection(pt);
    if (plain.outcome == Outcome::SoftFailure &&
        plain.signal == vm::TrapKind::SegFault)
      return pt;
  }
  ADD_FAILURE() << "no SIGSEGV found";
  return {};
}

const char* kGridProg = R"(
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

TEST(RollbackRecovery, FaultBeforeFirstCheckpointRollsBackToEntry) {
  CareEnv e = buildCare(kGridProg, "entry");
  CampaignConfig ccfg = pinnedConfig(RecoveryStrategy::Repair);
  Campaign campaign(e.image.get(), ccfg);
  ASSERT_TRUE(campaign.profile());
  const InjectionPoint pt = findSegv(campaign, 21);

  // Golden output for the SDC comparison below.
  vm::Executor gold(e.image.get());
  gold.setBudget(2'000'000'000ull);
  ASSERT_EQ(vm::runToCompletion(gold).status, vm::RunStatus::Done);

  // Drive the faulting run by hand with an interval far beyond the golden
  // length: the ring holds nothing but the entry capture, so the rollback
  // must degrade to a from-entry re-execution.
  vm::Executor ex(e.image.get());
  core::Safeguard sg;
  sg.addModule(0, e.artifacts.at(0));
  sg.setStrategy(RecoveryStrategy::Rollback); // repair never attempted
  CheckpointRing ring(8);
  sg.setRollbackSource(&ring);
  sg.attach(ex);
  ex.armInjection(pt.loc, pt.nth, [&](vm::Executor& e2) {
    Campaign::corruptDestination(e2, pt.loc, pt.bits);
  });
  const vm::RunResult r = vm::runCheckpointed(
      ex, 1'000'000'000ull, campaign.goldenInstrs() * 4,
      [&](vm::Executor& e2) { ring.push(e2); });

  EXPECT_EQ(r.status, vm::RunStatus::Done);
  const core::SafeguardStats& st = sg.stats();
  ASSERT_GE(st.rollbacks, 1u);
  ASSERT_FALSE(st.records.empty());
  const core::RecoveryRecord& rec = st.records.front();
  EXPECT_TRUE(rec.rolledBack);
  EXPECT_FALSE(rec.recovered);
  EXPECT_EQ(rec.rollbackToInstr, 0u); // from-entry
  EXPECT_GT(rec.discardedInstrs, 0u);
  // kGridProg emits only at the very end, after the faulting loop: no
  // output escaped before the trap, so the re-execution is clean.
  EXPECT_EQ(ex.output(), gold.output());
}

TEST(RollbackRecovery, CleanRunUnderRollbackMatchesNoneOnBothInterps) {
  CareEnv e = buildCare(kGridProg, "clean");
  InterpGuard guard;
  for (vm::InterpKind interp :
       {vm::InterpKind::Fast, vm::InterpKind::Ref, vm::InterpKind::Jit}) {
    vm::setDefaultInterp(interp);
    Campaign none(e.image.get(), pinnedConfig(RecoveryStrategy::None));
    Campaign roll(e.image.get(), pinnedConfig(RecoveryStrategy::Rollback));
    ASSERT_TRUE(none.profile());
    ASSERT_TRUE(roll.profile());

    // An injection point that never fires: the run is fault-free, so the
    // armed rollback machinery (boundary pauses, ring pushes) must be
    // observationally invisible.
    Rng rng(5);
    InjectionPoint pt = none.sample(rng);
    pt.nth += 1'000'000'000ull;
    const InjectionResult a = none.runInjection(pt, &e.artifacts);
    const InjectionResult b = roll.runInjection(pt, &e.artifacts);
    for (const InjectionResult* r : {&a, &b}) {
      EXPECT_FALSE(r->injected);
      EXPECT_EQ(r->outcome, Outcome::Benign);
      EXPECT_TRUE(r->survived);
      EXPECT_TRUE(r->outputMatchesGolden);
      EXPECT_EQ(r->safeguardActivations, 0u);
      EXPECT_EQ(r->rollbacks, 0u);
    }
    EXPECT_EQ(a.instrsExecuted, b.instrsExecuted);
    const InjectionRecord ra{pt, a, false, {}};
    const InjectionRecord rb{pt, b, false, {}};
    EXPECT_EQ(inject::serializeDeterministicRecord(ra),
              inject::serializeDeterministicRecord(rb));
  }
}

TEST(RollbackRecovery, RepairSuccessRecordsBitIdenticalOnBothInterps) {
  // The differential oracle of DESIGN.md §4f: rollback only engages after
  // a failed repair, so on every trial the paper's repair handles, the
  // repair_then_rollback record must be byte-identical to the repair one.
  inject::ExperimentConfig bcfg;
  bcfg.cacheDir = "care_test_artifacts/rollback_diff";
  std::filesystem::remove_all(bcfg.cacheDir);
  inject::BuiltWorkload built =
      inject::buildWorkload(workloads::gtcp(), bcfg);

  InterpGuard guard;
  for (vm::InterpKind interp :
       {vm::InterpKind::Fast, vm::InterpKind::Ref, vm::InterpKind::Jit}) {
    vm::setDefaultInterp(interp);
    Campaign repair(built.image.get(),
                    pinnedConfig(RecoveryStrategy::Repair));
    Campaign both(built.image.get(),
                  pinnedConfig(RecoveryStrategy::RepairThenRollback));
    ASSERT_TRUE(repair.profile());
    ASSERT_TRUE(both.profile());

    Rng rng(123);
    int repairSuccesses = 0;
    for (int i = 0; i < 40; ++i) {
      const InjectionPoint pt = repair.sample(rng);
      const InjectionResult plain = repair.runInjection(pt);
      if (plain.outcome != Outcome::SoftFailure ||
          plain.signal != vm::TrapKind::SegFault)
        continue;
      const InjectionResult a = repair.runInjection(pt, &built.artifacts);
      const InjectionResult b = both.runInjection(pt, &built.artifacts);
      if (!a.careRecovered) continue; // repair failed: strategies diverge
      ++repairSuccesses;
      EXPECT_EQ(b.rollbacks, 0u) << "rollback engaged on a repair success";
      const InjectionRecord ra{pt, plain, true, a};
      const InjectionRecord rb{pt, plain, true, b};
      EXPECT_EQ(inject::serializeDeterministicRecord(ra),
                inject::serializeDeterministicRecord(rb));
    }
    EXPECT_GT(repairSuccesses, 0)
        << "campaign produced no repair successes to compare";
  }
}

TEST(RollbackRecovery, RollingCampaignCheckpointsAreTheRollbackGrid) {
  // A rolling-back campaign captures its golden checkpoints on its rollback
  // spacing, whatever the replay spacing: every table entry is a boundary
  // a rolling trial's own ring captures, and every such boundary is there.
  CareEnv e = buildCare(kGridProg, "ckgrid");
  CampaignConfig cfg = pinnedConfig(RecoveryStrategy::Rollback);
  cfg.checkpointEveryInstrs = 400;
  cfg.rollbackEveryInstrs = 300;
  Campaign c(e.image.get(), cfg);
  ASSERT_TRUE(c.profile());
  ASSERT_EQ(c.rollbackInterval(), 300u);
  ASSERT_GT(c.checkpoints().size(), 3u);
  for (const Campaign::TrialCheckpoint& ck : c.checkpoints())
    EXPECT_EQ(ck.rp.instrCount % c.rollbackInterval(), 0u)
        << "checkpoint at " << ck.rp.instrCount;
  EXPECT_EQ(c.checkpoints().size(), (c.goldenInstrs() - 1) / 300);
}

TEST(RollbackRecovery, RollbackRerunFastForwardsWithTheFromEntryRing) {
  // A rolling-back CARE re-run restores a golden checkpoint, which lies on
  // its rollback grid, and is handed the ring a from-entry run holds there,
  // so every rollback picks the same target with replay on as with replay
  // off — at every ring capacity, and when the replay spacing differs from
  // the rollback spacing (the rolling campaign's table ignores it).
  CareEnv e = buildCare(kGridProg, "replay");
  struct Grid {
    std::uint64_t replay, rollback;
  };
  int fastForwarded = 0, rollbacks = 0;
  for (std::size_t cap : {1u, 2u, 8u})
    for (const Grid grid : {Grid{400, 400}, Grid{400, 300}}) {
      CampaignConfig onCfg = pinnedConfig(RecoveryStrategy::Rollback);
      onCfg.rollbackRingCap = cap;
      onCfg.checkpointEveryInstrs = grid.replay;
      onCfg.rollbackEveryInstrs = grid.rollback;
      CampaignConfig offCfg = onCfg;
      offCfg.checkpointEveryInstrs = 0;
      Campaign on(e.image.get(), onCfg);
      Campaign off(e.image.get(), offCfg);
      ASSERT_TRUE(on.profile());
      ASSERT_TRUE(off.profile());
      ASSERT_GT(on.checkpoints().size(), 3u);
      ASSERT_EQ(off.checkpoints().size(), 0u);

      Rng rng(31);
      for (int i = 0; i < 200; ++i) {
        const InjectionPoint pt = on.sample(rng);
        const InjectionResult plain = on.runInjection(pt);
        if (plain.outcome != Outcome::SoftFailure ||
            plain.signal != vm::TrapKind::SegFault)
          continue;
        core::SafeguardStats stOn, stOff;
        const InjectionResult a = on.runInjection(pt, &e.artifacts, &stOn);
        const InjectionResult b = off.runInjection(pt, &e.artifacts, &stOff);
        std::vector<std::uint64_t> toOn, toOff;
        for (const core::RecoveryRecord& r : stOn.records)
          if (r.rolledBack) toOn.push_back(r.rollbackToInstr);
        for (const core::RecoveryRecord& r : stOff.records)
          if (r.rolledBack) toOff.push_back(r.rollbackToInstr);
        EXPECT_EQ(toOn, toOff) << "cap " << cap << " rollback grid "
                               << grid.rollback << " trial " << i;
        const InjectionRecord ra{pt, plain, true, a};
        const InjectionRecord rb{pt, plain, true, b};
        EXPECT_EQ(inject::serializeDeterministicRecord(ra),
                  inject::serializeDeterministicRecord(rb));
        EXPECT_EQ(b.replaySavedInstrs, 0u);
        if (a.replaySavedInstrs > 0) ++fastForwarded;
        rollbacks += static_cast<int>(toOn.size());
      }
    }
  EXPECT_GT(fastForwarded, 0) << "no rollback re-run fast-forwarded";
  EXPECT_GT(rollbacks, 0) << "no rollback to compare";
}

TEST(RollbackRecovery, EccUncorrectableTriggersRollbackRecovery) {
  // DUE-triggered recovery (DESIGN.md §4i + §4f): an adjacent double-bit
  // memory fault under SECDED surfaces as an EccUncorrectable trap
  // (Outcome::Detected). Kernel repair is meaningless for it — the data is
  // gone — but a rollback strategy rewinds past the strike, and the fault
  // is transient, so the re-execution completes on the golden path.
  CareEnv e = buildCare(kGridProg, "due");
  // Target &grid[400]: read at i=100 in every step's inner loop, so a
  // mid-run strike is always observed by a later load (random sampling
  // almost never hits a live word — the stack dominates the mapped pages).
  const auto& lm = e.image->module(0);
  std::uint64_t gridAddr = 0;
  for (const backend::MInst& in : lm.mod->functions[0].code)
    if (in.op == backend::MOp::Store && in.mem.globalIdx >= 0) {
      gridAddr = lm.globalAddr[static_cast<std::size_t>(in.mem.globalIdx)];
      break;
    }
  ASSERT_NE(gridAddr, 0u);

  CampaignConfig cfg = pinnedConfig(RecoveryStrategy::Rollback);
  cfg.fault = inject::FaultModel::Mem2Adj;
  cfg.ecc = vm::EccMode::Secded;
  Campaign roll(e.image.get(), cfg);
  ASSERT_TRUE(roll.profile());
  // The same trials from entry: golden checkpoints hold no struck word, so
  // the fast-forwarded re-run must still see exactly the from-entry run.
  CampaignConfig offCfg = cfg;
  offCfg.checkpointEveryInstrs = 0;
  Campaign rollOff(e.image.get(), offCfg);
  ASSERT_TRUE(rollOff.profile());
  CampaignConfig repairCfg = pinnedConfig(RecoveryStrategy::Repair);
  repairCfg.fault = inject::FaultModel::Mem2Adj;
  repairCfg.ecc = vm::EccMode::Secded;
  Campaign repair(e.image.get(), repairCfg);
  ASSERT_TRUE(repair.profile());

  int dues = 0, recovered = 0;
  for (std::uint64_t frac : {4u, 2u}) {
    InjectionPoint pt;
    pt.model = inject::FaultModel::Mem2Adj;
    pt.nth = roll.goldenInstrs() / frac;
    pt.memAddr = gridAddr + 8 * 400;
    pt.bits = {4, 5};
    const InjectionResult plain = roll.runInjection(pt);
    ASSERT_TRUE(plain.injected);
    if (plain.outcome != Outcome::Detected ||
        plain.signal != vm::TrapKind::EccUncorrectable)
      continue;
    ++dues;
    // Repair-only strategies must propagate the DUE untouched: kernel
    // repair is meaningless when the data itself is gone.
    const InjectionResult rep = repair.runInjection(pt, &e.artifacts);
    EXPECT_EQ(rep.outcome, Outcome::Detected);
    EXPECT_EQ(rep.signal, vm::TrapKind::EccUncorrectable);
    EXPECT_EQ(rep.rollbacks, 0u);
    EXPECT_FALSE(rep.careRecovered);
    // The rollback strategy turns it into a survival: the fault is
    // transient, so rewinding past the strike genuinely erases it.
    const InjectionResult r = roll.runInjection(pt, &e.artifacts);
    const InjectionRecord rOn{pt, plain, true, r};
    const InjectionRecord rOff{pt, rollOff.runInjection(pt), true,
                               rollOff.runInjection(pt, &e.artifacts)};
    EXPECT_EQ(inject::serializeDeterministicRecord(rOn),
              inject::serializeDeterministicRecord(rOff));
    EXPECT_GT(r.replaySavedInstrs, 0u) << "DUE re-run did not fast-forward";
    EXPECT_TRUE(r.survived);
    if (!r.survived) continue;
    EXPECT_EQ(r.outcome, Outcome::RolledBack);
    EXPECT_GT(r.rollbacks, 0u);
    if (r.careRecovered) {
      EXPECT_TRUE(r.outputMatchesGolden);
      ++recovered;
    }
  }
  EXPECT_GT(dues, 0) << "no EccUncorrectable detection found to recover";
  EXPECT_GT(recovered, 0) << "no DUE recovered via rollback";
}

TEST(RollbackRecovery, EscapedOutputIsSdcNotRecovery) {
  // Output is externalized at emission: a rollback cannot unwind it, the
  // re-execution re-emits, and the classifier must see the mismatch —
  // RolledBack, not recovered. A program emitting every iteration
  // guarantees output stands between any checkpoint and a later fault.
  CareEnv e = buildCare(R"(
      double grid[512];
      int scale = 2;
      int main() {
        for (int i = 0; i < 512; i = i + 1) { grid[i] = i; }
        double s = 0.0;
        for (int i = 0; i < 150; i = i + 1) {
          s = s + grid[scale * i + 1];
          emit(s);
        }
        emit(s);
        return 0;
      })", "sdc");
  Campaign roll(e.image.get(), pinnedConfig(RecoveryStrategy::Rollback));
  ASSERT_TRUE(roll.profile());

  Rng rng(47);
  int rolledBackSdc = 0;
  for (int i = 0; i < 300 && rolledBackSdc == 0; ++i) {
    const InjectionPoint pt = roll.sample(rng);
    const InjectionResult plain = roll.runInjection(pt);
    if (plain.outcome != Outcome::SoftFailure ||
        plain.signal != vm::TrapKind::SegFault)
      continue;
    const InjectionResult r = roll.runInjection(pt, &e.artifacts);
    if (!r.survived) continue;
    EXPECT_EQ(r.outcome, Outcome::RolledBack);
    EXPECT_GT(r.rollbacks, 0u);
    if (!r.outputMatchesGolden) {
      ++rolledBackSdc;
      // The heart of the satellite: surviving via rollback with escaped
      // output is NOT a recovery.
      EXPECT_FALSE(r.careRecovered);
    }
  }
  EXPECT_GT(rolledBackSdc, 0)
      << "no rollback with escaped output found to classify";
}

} // namespace
} // namespace care::test
