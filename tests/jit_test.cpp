// Template-JIT backend tests (DESIGN.md §4h): backend selection and its
// error path, compilation of hot functions, exact-budget deopt at every
// block boundary shape (block entry, mid-block, last instruction of a
// compiled block), ResumePoint equivalence and cross-backend restore, and
// full-campaign byte-identity against the fast interpreter.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "inject/experiment.hpp"
#include "support/error.hpp"
#include "testutil.hpp"
#include "vm/jit.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

/// Restores the process-wide interpreter default on scope exit.
struct InterpGuard {
  vm::InterpKind saved = vm::defaultInterp();
  ~InterpGuard() { vm::setDefaultInterp(saved); }
};

// --- backend selection (satellite: --interp / CARE_INTERP error path) -------

TEST(InterpSelect, ParsesAllThreeBackends) {
  EXPECT_EQ(vm::parseInterp("ref"), vm::InterpKind::Ref);
  EXPECT_EQ(vm::parseInterp("fast"), vm::InterpKind::Fast);
  EXPECT_EQ(vm::parseInterp("jit"), vm::InterpKind::Jit);
  EXPECT_STREQ(vm::interpName(vm::InterpKind::Ref), "ref");
  EXPECT_STREQ(vm::interpName(vm::InterpKind::Fast), "fast");
  EXPECT_STREQ(vm::interpName(vm::InterpKind::Jit), "jit");
}

TEST(InterpSelect, UnknownBackendIsAHardErrorListingTheChoices) {
  for (const char* bad : {"turbo", "JIT", "fastest", ""}) {
    try {
      (void)vm::parseInterp(bad);
      FAIL() << "parseInterp accepted '" << bad << "'";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("ref"), std::string::npos) << msg;
      EXPECT_NE(msg.find("fast"), std::string::npos) << msg;
      EXPECT_NE(msg.find("jit"), std::string::npos) << msg;
    }
  }
}

// --- compilation & golden equivalence ---------------------------------------

constexpr const char* kLoopProgram = R"(
  double acc[256];
  int main() {
    double s = 0.0;
    for (int i = 0; i < 300; i = i + 1) {
      acc[i % 256] = i * 0.5;
      s = s + acc[i % 256];
      if (i % 64 == 0) emit(s);
    }
    emit(s);
    return 17;
  })";

TEST(Jit, CompilesHotFunctionsAndMatchesFast) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  Program p = buildProgram(kLoopProgram, opt::OptLevel::O0);

  vm::Executor fast(p.image.get());
  fast.setInterp(vm::InterpKind::Fast);
  fast.setBudget(10'000'000);
  const vm::RunResult fr = vm::runToCompletion(fast, "main");
  ASSERT_EQ(fr.status, vm::RunStatus::Done);

  vm::Executor jit(p.image.get());
  jit.setInterp(vm::InterpKind::Jit);
  jit.setBudget(10'000'000);
  const vm::RunResult jr = vm::runToCompletion(jit, "main");
  EXPECT_EQ(jr.status, vm::RunStatus::Done);
  EXPECT_EQ(jr.exitCode, fr.exitCode);
  EXPECT_EQ(jr.instrCount, fr.instrCount);
  EXPECT_EQ(jit.output(), fast.output());
  EXPECT_EQ(std::memcmp(jit.state().g, fast.state().g, sizeof jit.state().g),
            0);
  // The JIT compiles a function on its first touch, so the golden run
  // above must have gone native, not interpret-only.
  EXPECT_GT(p.image->jit().compiledFunctions(), 0u);
}

// --- exact-budget deopt (satellite: budget-boundary ResumePoints) -----------

void expectSameResumePoint(const vm::Executor::ResumePoint& a,
                           const vm::Executor::ResumePoint& b,
                           const std::string& tag) {
  EXPECT_EQ(std::memcmp(&a.st, &b.st, sizeof a.st), 0)
      << tag << ": register files differ";
  EXPECT_EQ(a.module, b.module) << tag;
  EXPECT_EQ(a.func, b.func) << tag;
  EXPECT_EQ(a.instr, b.instr) << tag;
  EXPECT_EQ(a.started, b.started) << tag;
  EXPECT_EQ(a.instrCount, b.instrCount) << tag;
  EXPECT_EQ(a.output, b.output) << tag << ": emitted output differs";
}

// Stop the jit and fast backends on every exact budget in a contiguous
// window that spans multiple loop iterations. A window that long crosses
// every boundary shape a compiled block has — a stop on block entry (the
// leader's fit check deopts before any native instruction runs), a stop
// mid-block, and a stop right after a block's last instruction — and at
// each stop the captured ResumePoints must be byte-identical. Each pair is
// then resumed to completion to prove the stop didn't perturb the rest of
// the run (which also checks memory, beyond what the ResumePoint struct
// compare sees).
TEST(Jit, BudgetBoundaryResumePointsMatchFastAtEveryOffset) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  Program p = buildProgram(kLoopProgram, opt::OptLevel::O0);

  vm::Executor golden(p.image.get());
  golden.setBudget(10'000'000);
  const vm::RunResult gr = vm::runToCompletion(golden, "main");
  ASSERT_EQ(gr.status, vm::RunStatus::Done);

  // Mid-run window: deep enough that the loop body is compiled and hot.
  const std::uint64_t base = gr.instrCount / 2;
  for (std::uint64_t stop = base; stop < base + 48; ++stop) {
    const std::string tag = "stop=" + std::to_string(stop);

    vm::Executor fast(p.image.get());
    fast.setInterp(vm::InterpKind::Fast);
    fast.setBudget(10'000'000);
    const vm::RunResult fr = fast.runBounded(stop);
    ASSERT_EQ(fr.status, vm::RunStatus::BudgetExceeded) << tag;
    ASSERT_EQ(fr.instrCount, stop) << tag;

    vm::Executor jit(p.image.get());
    jit.setInterp(vm::InterpKind::Jit);
    jit.setBudget(10'000'000);
    const vm::RunResult jr = jit.runBounded(stop);
    ASSERT_EQ(jr.status, vm::RunStatus::BudgetExceeded) << tag;
    ASSERT_EQ(jr.instrCount, stop) << tag;

    expectSameResumePoint(jit.resumePoint(), fast.resumePoint(), tag);

    const vm::RunResult ff = vm::runToCompletion(fast, "main");
    const vm::RunResult jf = vm::runToCompletion(jit, "main");
    ASSERT_EQ(ff.status, vm::RunStatus::Done) << tag;
    EXPECT_EQ(jf.status, ff.status) << tag;
    EXPECT_EQ(jf.instrCount, ff.instrCount) << tag;
    EXPECT_EQ(jf.exitCode, ff.exitCode) << tag;
    EXPECT_EQ(jit.output(), fast.output()) << tag;
  }
}

// A ResumePoint captured under one backend restores into the other: the
// replay cache records points under whichever backend ran the golden pass,
// and every trial executor — jit included — must CoW-fork and continue from
// them to the identical end state.
TEST(Jit, FastCapturedResumePointRestoresIntoJit) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  Program p = buildProgram(kLoopProgram, opt::OptLevel::O0);

  vm::Executor fast(p.image.get());
  fast.setInterp(vm::InterpKind::Fast);
  fast.setBudget(10'000'000);
  const vm::RunResult fstop = fast.runBounded(500);
  ASSERT_EQ(fstop.status, vm::RunStatus::BudgetExceeded);
  const vm::Executor::ResumePoint rp = fast.resumePoint();
  const vm::RunResult fdone = vm::runToCompletion(fast, "main");
  ASSERT_EQ(fdone.status, vm::RunStatus::Done);

  vm::Executor jit(p.image.get());
  jit.setInterp(vm::InterpKind::Jit);
  jit.setBudget(10'000'000);
  jit.restoreCheckpoint(rp);
  const vm::RunResult jdone = vm::runToCompletion(jit, "main");
  EXPECT_EQ(jdone.status, fdone.status);
  EXPECT_EQ(jdone.instrCount, fdone.instrCount);
  EXPECT_EQ(jdone.exitCode, fdone.exitCode);
  EXPECT_EQ(jit.output(), fast.output());
  EXPECT_EQ(std::memcmp(jit.state().g, fast.state().g, sizeof jit.state().g),
            0);
}

// --- full-campaign byte-identity --------------------------------------------

// Acceptance gate: a cold five-workload campaign executed entirely under
// CARE_INTERP=jit serializes byte-identical to the same campaign under the
// fast interpreter. The result store is off so both sides really execute
// (the backend is deliberately not part of the campaign key).
TEST(Jit, FiveWorkloadCampaignSerializesIdenticallyToFast) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  InterpGuard guard;
  for (const workloads::Workload* w : workloads::allWorkloads()) {
    inject::ExperimentConfig cfg;
    runEnv().apply(cfg);
    cfg.level = opt::OptLevel::O0;
    cfg.injections = 25;
    cfg.campaign.seed = 77;
    cfg.resultStore = "";

    cfg.cacheDir = "care_test_artifacts/jit_camp_fast";
    std::filesystem::remove_all(cfg.cacheDir);
    vm::setDefaultInterp(vm::InterpKind::Fast);
    inject::CampaignTelemetry fastTel;
    const inject::ExperimentResult fast = runExperiment(*w, cfg, &fastTel);
    ASSERT_FALSE(fastTel.fromCache) << w->name;

    cfg.cacheDir = "care_test_artifacts/jit_camp_jit";
    std::filesystem::remove_all(cfg.cacheDir);
    vm::setDefaultInterp(vm::InterpKind::Jit);
    inject::CampaignTelemetry jitTel;
    const inject::ExperimentResult jit = runExperiment(*w, cfg, &jitTel);
    ASSERT_FALSE(jitTel.fromCache) << w->name;
    EXPECT_EQ(jitTel.interp, "jit") << w->name;

    EXPECT_EQ(inject::serializeDeterministic(jit),
              inject::serializeDeterministic(fast))
        << w->name;
  }
}

// Same acceptance gate for the memory-resident fault models: with faults
// landing in mapped words (and, in the first leg, SECDED correcting or
// trapping them), the jit-backend campaign must serialize byte-identical
// to the fast interpreter. Covers the ECC delegation path (secded) and the
// native path with silent memory corruption (burst, ECC off).
TEST(Jit, MemoryFaultCampaignSerializesIdenticallyToFast) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  InterpGuard guard;
  struct Leg {
    inject::FaultModel fault;
    vm::EccMode ecc;
  };
  for (const Leg leg : {Leg{inject::FaultModel::Mem1, vm::EccMode::Secded},
                        Leg{inject::FaultModel::Burst, vm::EccMode::Off}}) {
    inject::ExperimentConfig cfg;
    runEnv().apply(cfg);
    cfg.level = opt::OptLevel::O0;
    cfg.injections = 20;
    cfg.campaign.seed = 99;
    cfg.campaign.fault = leg.fault;
    cfg.campaign.ecc = leg.ecc;
    cfg.resultStore = "";
    const std::string tag = std::string(inject::faultModelName(leg.fault)) +
                            "/" + vm::eccModeName(leg.ecc);

    cfg.cacheDir = "care_test_artifacts/jit_memfault_fast";
    std::filesystem::remove_all(cfg.cacheDir);
    vm::setDefaultInterp(vm::InterpKind::Fast);
    const inject::ExperimentResult fast =
        runExperiment(workloads::hpccg(), cfg);

    cfg.cacheDir = "care_test_artifacts/jit_memfault_jit";
    std::filesystem::remove_all(cfg.cacheDir);
    vm::setDefaultInterp(vm::InterpKind::Jit);
    const inject::ExperimentResult jit = runExperiment(workloads::hpccg(), cfg);

    EXPECT_EQ(inject::serializeDeterministic(jit),
              inject::serializeDeterministic(fast))
        << tag;
  }
}

// --- W^X-unavailable warning (once per process) ------------------------------

TEST(Jit, UnavailableWarningPrintsExactlyOncePerProcess) {
  // Earlier tests may already have triggered the fallback warning on a
  // host without executable mappings; whatever the history, the counter
  // can be 0 or 1 here, the next call emits only if nothing did before,
  // and after it the count is pinned at 1 forever.
  const int before = vm::jitUnavailableWarnCount();
  ASSERT_LE(before, 1);
  const bool emitted = vm::warnJitUnavailableOnce();
  EXPECT_EQ(emitted, before == 0);
  EXPECT_FALSE(vm::warnJitUnavailableOnce());
  EXPECT_FALSE(vm::warnJitUnavailableOnce());
  EXPECT_EQ(vm::jitUnavailableWarnCount(), 1);
}

} // namespace
} // namespace care::test
