// Template-JIT backend tests (DESIGN.md §4h): backend selection and its
// error path, compilation of hot functions, exact-budget deopt at every
// block boundary shape (block entry, mid-block, last instruction of a
// compiled block), ResumePoint equivalence and cross-backend restore,
// native runs with words struck under ECC, and full-campaign byte-identity
// against the fast interpreter.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

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
  const vm::RunResult fr = vm::runToCompletion(fast);
  ASSERT_EQ(fr.status, vm::RunStatus::Done);

  vm::Executor jit(p.image.get());
  jit.setInterp(vm::InterpKind::Jit);
  jit.setBudget(10'000'000);
  const vm::RunResult jr = vm::runToCompletion(jit);
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
  const vm::RunResult gr = vm::runToCompletion(golden);
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

    const vm::RunResult ff = vm::runToCompletion(fast);
    const vm::RunResult jf = vm::runToCompletion(jit);
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
  const vm::RunResult fdone = vm::runToCompletion(fast);
  ASSERT_EQ(fdone.status, vm::RunStatus::Done);

  vm::Executor jit(p.image.get());
  jit.setInterp(vm::InterpKind::Jit);
  jit.setBudget(10'000'000);
  jit.restoreCheckpoint(rp);
  const vm::RunResult jdone = vm::runToCompletion(jit);
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
// to the fast interpreter. Covers native runs with struck words (secded)
// and with silent memory corruption (burst, ECC off).
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

// --- native profiling: exact counts on the counting code variant -----------

/// Every static instruction's profile count, in (module, func, instr) order.
std::vector<std::uint64_t> allCounts(const vm::Executor& ex) {
  std::vector<std::uint64_t> out;
  const vm::Image& img = *ex.image();
  for (std::size_t m = 0; m < img.numModules(); ++m) {
    const auto& fns = img.module(m).mod->functions;
    for (std::size_t f = 0; f < fns.size(); ++f)
      for (std::size_t i = 0; i < fns[f].code.size(); ++i)
        out.push_back(ex.profileCount({static_cast<std::int32_t>(m),
                                       static_cast<std::int32_t>(f),
                                       static_cast<std::int32_t>(i)}));
  }
  return out;
}

// Reads back every word of a global array many times after writing it once.
constexpr const char* kReadBackProgram = R"(
  double tab[64];
  int main() {
    for (int i = 0; i < 64; i = i + 1) tab[i] = i * 1.5;
    double s = 0.0;
    for (int r = 0; r < 40; r = r + 1)
      for (int i = 0; i < 64; i = i + 1) s = s + tab[i];
    emit(s);
    return 5;
  })";

// An ECC run on the JIT stays native. The struck word's page leaves the
// software TLB, so each native access to it exits as a SegFault at a mapped
// address, which the driver single-steps on the fast loop's typed accessor:
// a single-bit strike is corrected on read, a double-bit one traps. Every
// observable, profile counts included, must equal the fast interpreter's,
// and the JIT must have compiled code for the run.
TEST(Jit, EccArmedRunStaysNativeAndMatchesFast) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  Program p = buildProgram(kReadBackProgram, opt::OptLevel::O0);
  const std::uint64_t word = p.image->module(0).globalAddr[0] + 8 * 5;

  vm::Executor golden(p.image.get());
  golden.setInterp(vm::InterpKind::Fast);
  const vm::RunResult gr = vm::runToCompletion(golden);
  ASSERT_EQ(gr.status, vm::RunStatus::Done);
  // Mid-way through the read-back loops, long after tab[5] was written.
  const std::uint64_t strikeAt = gr.instrCount / 2;

  for (const std::vector<unsigned>& bits :
       {std::vector<unsigned>{3}, std::vector<unsigned>{3, 4}}) {
    const std::string tag = std::to_string(bits.size()) + "-bit strike";
    std::unique_ptr<vm::Executor> ex[2];
    vm::RunResult res[2];
    const vm::InterpKind kinds[2] = {vm::InterpKind::Fast,
                                     vm::InterpKind::Jit};
    for (int k = 0; k < 2; ++k) {
      ex[k] = std::make_unique<vm::Executor>(p.image.get());
      ex[k]->setInterp(kinds[k]);
      ex[k]->enableProfiling();
      ASSERT_EQ(ex[k]->runBounded(strikeAt).status,
                vm::RunStatus::BudgetExceeded)
          << tag;
      ASSERT_TRUE(ex[k]->memory().injectFault(word, bits, vm::EccMode::Secded))
          << tag;
      res[k] = vm::runToCompletion(*ex[k]);
    }
    if (bits.size() == 1) {
      EXPECT_EQ(res[0].status, vm::RunStatus::Done) << tag;
      EXPECT_GT(ex[0]->memory().eccCorrected(), 0u) << tag;
    } else {
      EXPECT_EQ(res[0].status, vm::RunStatus::Trapped) << tag;
      EXPECT_EQ(res[0].trap.kind, vm::TrapKind::EccUncorrectable) << tag;
    }
    EXPECT_EQ(res[1].status, res[0].status) << tag;
    EXPECT_EQ(res[1].instrCount, res[0].instrCount) << tag;
    EXPECT_EQ(res[1].exitCode, res[0].exitCode) << tag;
    EXPECT_EQ(res[1].trap.kind, res[0].trap.kind) << tag;
    EXPECT_EQ(res[1].trap.pc, res[0].trap.pc) << tag;
    EXPECT_EQ(res[1].trap.addr, res[0].trap.addr) << tag;
    EXPECT_EQ(ex[1]->output(), ex[0]->output()) << tag;
    EXPECT_EQ(allCounts(*ex[1]), allCounts(*ex[0])) << tag;
    EXPECT_EQ(std::memcmp(ex[1]->state().g, ex[0]->state().g,
                          sizeof ex[0]->state().g),
              0)
        << tag;
    EXPECT_EQ(ex[1]->memory().eccCorrected(), ex[0]->memory().eccCorrected())
        << tag;
    EXPECT_EQ(ex[1]->memory().eccUncorrectable(),
              ex[0]->memory().eccUncorrectable())
        << tag;
  }
  EXPECT_GT(p.image->jit().compiledFunctions(), 0u);
}

std::unique_ptr<vm::Executor> profiledExecutor(const Program& p,
                                               vm::InterpKind k) {
  auto ex = std::make_unique<vm::Executor>(p.image.get());
  ex->setInterp(k);
  ex->setBudget(50'000'000);
  ex->enableProfiling();
  return ex;
}

// `1000 / a[i]` fuses its load into a div-from-memory, an op the templates
// leave to the interpreter (a ColdOp single-step mid-block); `helper` makes
// every iteration a cross-function call and Ret.
constexpr const char* kCountProgram = R"(
  int a[64];
  int helper(int x) {
    if (x % 3 == 0) return x * 3 + 1;
    return x - 2;
  }
  int main() {
    int s = 0;
    for (int i = 0; i < 64; i = i + 1) a[i] = i + 1;
    for (int r = 0; r < 12; r = r + 1) {
      for (int i = 0; i < 64; i = i + 1) {
        s = s + 1000 / a[i];
        s = s + helper(i + r);
      }
      emiti(s);
    }
    return s % 199;
  })";

bool hasColdDivFromMemory(const Program& p) {
  for (const auto& fn : p.image->module(0).mod->functions)
    for (const backend::MInst& in : fn.code)
      if (in.op == backend::MOp::IAluMem &&
          static_cast<backend::MOp>(in.sub) == backend::MOp::IDiv)
        return true;
  return false;
}

TEST(JitProfile, CountsMatchFastAcrossColdOpsCallsAndReturns) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  Program p = buildProgram(kCountProgram, opt::OptLevel::O0);
  ASSERT_TRUE(hasColdDivFromMemory(p));

  auto fast = profiledExecutor(p, vm::InterpKind::Fast);
  const vm::RunResult fr = vm::runToCompletion(*fast);
  ASSERT_EQ(fr.status, vm::RunStatus::Done);
  // Two counting runs over one Image: the counters are per Executor, so
  // the second starts from zero like the first.
  for (int run = 0; run < 2; ++run) {
    auto jit = profiledExecutor(p, vm::InterpKind::Jit);
    const vm::RunResult jr = vm::runToCompletion(*jit);
    EXPECT_EQ(jr.status, fr.status) << run;
    EXPECT_EQ(jr.instrCount, fr.instrCount) << run;
    EXPECT_EQ(jit->output(), fast->output()) << run;
    EXPECT_EQ(allCounts(*jit), allCounts(*fast)) << run;
  }
  EXPECT_GT(p.image->jit().compiledFunctions(), 0u);
}

// Counting runs on one Image from several threads at once: the first ones
// race to compile the counting variant, and each Executor's counters stay
// its own.
TEST(JitProfile, ConcurrentCountingRunsKeepTheirOwnCounts) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  Program p = buildProgram(kCountProgram, opt::OptLevel::O0);
  auto fast = profiledExecutor(p, vm::InterpKind::Fast);
  ASSERT_EQ(vm::runToCompletion(*fast).status, vm::RunStatus::Done);
  const std::vector<std::uint64_t> want = allCounts(*fast);

  std::vector<std::vector<std::uint64_t>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      auto jit = profiledExecutor(p, vm::InterpKind::Jit);
      if (vm::runToCompletion(*jit).status == vm::RunStatus::Done)
        got[t] = allCounts(*jit);
    });
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < got.size(); ++t) EXPECT_EQ(got[t], want) << t;
}

// Profiled runs stopped on every exact budget in a window: each stop lands
// mid-block, on a block entry or right after a block's last instruction, so
// the Deopt burst ends on an exact stop with the counts at that point; the
// resumed run then enters natively mid-block, which the driver credits.
TEST(JitProfile, CountsMatchFastAtEveryExactStopAndAfterMidBlockEntry) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  Program p = buildProgram(kCountProgram, opt::OptLevel::O0);
  auto golden = profiledExecutor(p, vm::InterpKind::Fast);
  const vm::RunResult gr = vm::runToCompletion(*golden);
  ASSERT_EQ(gr.status, vm::RunStatus::Done);

  const std::uint64_t base = gr.instrCount / 2;
  for (std::uint64_t stop = base; stop < base + 40; ++stop) {
    const std::string tag = "stop=" + std::to_string(stop);
    auto fast = profiledExecutor(p, vm::InterpKind::Fast);
    auto jit = profiledExecutor(p, vm::InterpKind::Jit);
    const vm::RunResult fs = fast->runBounded(stop);
    const vm::RunResult js = jit->runBounded(stop);
    ASSERT_EQ(fs.status, vm::RunStatus::BudgetExceeded) << tag;
    ASSERT_EQ(js.status, vm::RunStatus::BudgetExceeded) << tag;
    ASSERT_EQ(js.instrCount, stop) << tag;
    ASSERT_EQ(allCounts(*jit), allCounts(*fast)) << tag;

    const vm::RunResult ff = vm::runToCompletion(*fast);
    const vm::RunResult jf = vm::runToCompletion(*jit);
    EXPECT_EQ(jf.status, ff.status) << tag;
    EXPECT_EQ(jf.instrCount, ff.instrCount) << tag;
    EXPECT_EQ(allCounts(*jit), allCounts(*golden)) << tag;
  }
}

// A native trap mid-block counts the trapping instruction but not the rest
// of its block; a Retry re-enters natively. The hook rolls the executor back
// to an earlier ResumePoint once, then lets the second trap propagate.
TEST(JitProfile, CountsMatchFastAcrossTrapsAndRetries) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  Program p = buildProgram(R"(
    int a[16];
    int main() {
      int s = 0;
      for (int i = 0; i < 40; i = i + 1) {
        s = s + i * 7;
        if (i > 30) s = s + a[i * 1000000];
        s = s + 1;
      }
      return s;
    })",
                           opt::OptLevel::O0);
  std::vector<std::uint64_t> want;
  vm::RunResult wantRes;
  for (vm::InterpKind k : {vm::InterpKind::Fast, vm::InterpKind::Jit}) {
    const std::string tag = vm::interpName(k);
    auto ex = profiledExecutor(p, k);
    ASSERT_EQ(ex->runBounded(200).status, vm::RunStatus::BudgetExceeded);
    const vm::Executor::ResumePoint rp = ex->resumePoint();
    int traps = 0;
    ex->setTrapHook([&](vm::Executor& e, const vm::Trap&) {
      if (++traps > 1) return vm::TrapAction::Propagate;
      e.restoreCheckpoint(rp);
      return vm::TrapAction::Retry;
    });
    const vm::RunResult r = vm::runToCompletion(*ex);
    ASSERT_EQ(r.status, vm::RunStatus::Trapped) << tag;
    EXPECT_EQ(r.trap.kind, vm::TrapKind::SegFault) << tag;
    EXPECT_EQ(traps, 2) << tag;
    if (want.empty()) {
      want = allCounts(*ex);
      wantRes = r;
      continue;
    }
    EXPECT_EQ(r.instrCount, wantRes.instrCount) << tag;
    EXPECT_EQ(r.trap.pc, wantRes.trap.pc) << tag;
    EXPECT_EQ(allCounts(*ex), want) << tag;
  }
}

// Campaign::profile on every backend: the same golden run, sampling table,
// per-instruction counts and replay checkpoints, at auto spacing and on a
// 5000-instruction grid under repair_then_rollback (whose checkpoint table
// is its rollback grid).
TEST(JitProfile, CampaignProfileIsIdenticalOnEveryBackend) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  constexpr vm::InterpKind kBackends[] = {
      vm::InterpKind::Ref, vm::InterpKind::Fast, vm::InterpKind::Jit};
  InterpGuard guard;
  struct Build {
    const workloads::Workload* w;
    opt::OptLevel level;
    bool detect;
  };
  std::vector<Build> builds;
  for (const workloads::Workload* w : workloads::allWorkloads())
    for (opt::OptLevel level : {opt::OptLevel::O0, opt::OptLevel::O1})
      builds.push_back({w, level, false});
  builds.push_back({&workloads::hpccg(), opt::OptLevel::O0, true});

  for (const Build& b : builds) {
    inject::ExperimentConfig ecfg;
    ecfg.level = b.level;
    ecfg.armor.detect.cfc = ecfg.armor.detect.addr = b.detect;
    ecfg.cacheDir = "care_test_artifacts/jit_profile";
    const inject::BuiltWorkload built = inject::buildWorkload(*b.w, ecfg);
    const vm::Image& img = *built.image;
    // Every static instruction's count, from one profiled run each.
    std::vector<std::vector<std::uint64_t>> counts;
    for (vm::InterpKind k : kBackends) {
      vm::Executor ex(&img);
      ex.setInterp(k);
      ex.enableProfiling();
      ex.setBudget(2'000'000'000ull);
      ASSERT_EQ(vm::runToCompletion(ex).status, vm::RunStatus::Done);
      counts.push_back(allCounts(ex));
      EXPECT_EQ(counts.back(), counts.front())
          << b.w->name << " " << vm::interpName(k);
    }

    for (bool grid : {false, true}) {
      inject::CampaignConfig ccfg;
      if (grid) {
        ccfg.checkpointEveryInstrs = ccfg.rollbackEveryInstrs = 5000;
        ccfg.recover = core::RecoveryStrategy::RepairThenRollback;
      }
      const std::string tag = b.w->name + (b.level == opt::OptLevel::O0
                                               ? "/O0" : "/O1") +
                              (b.detect ? "/detect" : "") +
                              (grid ? "/5000-rtr" : "/auto");
      std::vector<std::unique_ptr<inject::Campaign>> camps;
      for (vm::InterpKind k : kBackends) {
        vm::setDefaultInterp(k);
        camps.push_back(std::make_unique<inject::Campaign>(&img, ccfg));
        ASSERT_TRUE(camps.back()->profile()) << tag;
      }
      const inject::Campaign& want = *camps[0];
      ASSERT_GT(want.checkpoints().size(), 8u) << tag;
      for (std::size_t c = 0; c < camps.size(); ++c) {
        const inject::Campaign& got = *camps[c];
        const std::string ctag = tag + "/" + vm::interpName(kBackends[c]);
        EXPECT_EQ(got.goldenInstrs(), want.goldenInstrs()) << ctag;
        EXPECT_EQ(got.goldenOutput(), want.goldenOutput()) << ctag;
        EXPECT_EQ(got.rollbackInterval(), want.rollbackInterval()) << ctag;
        // The sampling table: the same site set, and the same draws.
        for (std::size_t m = 0; m < img.numModules(); ++m) {
          const auto& fns = img.module(m).mod->functions;
          for (std::size_t f = 0; f < fns.size(); ++f)
            for (std::size_t i = 0; i < fns[f].code.size(); ++i) {
              const vm::CodeLoc loc{static_cast<std::int32_t>(m),
                                    static_cast<std::int32_t>(f),
                                    static_cast<std::int32_t>(i)};
              ASSERT_EQ(got.siteIndexOf(loc), want.siteIndexOf(loc)) << ctag;
            }
        }
        Rng rg(5), rw(5);
        for (int d = 0; d < 64; ++d) {
          const inject::InjectionPoint a = got.sample(rg), e = want.sample(rw);
          ASSERT_TRUE(a.loc.module == e.loc.module &&
                      a.loc.func == e.loc.func &&
                      a.loc.instr == e.loc.instr && a.nth == e.nth &&
                      a.bits == e.bits)
              << ctag << " draw " << d;
        }
        ASSERT_EQ(got.checkpoints().size(), want.checkpoints().size()) << ctag;
        for (std::size_t k = 0; k < want.checkpoints().size(); ++k) {
          EXPECT_EQ(got.checkpoints()[k].rp.instrCount,
                    want.checkpoints()[k].rp.instrCount)
              << ctag << " ckpt " << k;
          EXPECT_EQ(got.checkpoints()[k].siteCounts,
                    want.checkpoints()[k].siteCounts)
              << ctag << " ckpt " << k;
        }
      }
    }
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
