// Checkpoint/restart substrate tests: VM snapshot fidelity and the C/R
// baseline path in the job simulator (paper §5.4's comparison system).
#include <gtest/gtest.h>

#include "parallel/jobsim.hpp"
#include "testutil.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

TEST(Checkpoint, SnapshotRestoreResumesIdentically) {
  Program p = buildProgram(R"(
    double acc[64];
    int main() {
      double s = 0.0;
      for (int step = 0; step < 4; step = step + 1) {
        for (int i = 0; i < 64; i = i + 1) {
          acc[i] = acc[i] + step * 0.5 + i;
          s = s + acc[i];
        }
        emit(s);
        mpi_barrier();
      }
      return (int)(s) % 1000;
    })", opt::OptLevel::O0);

  // Reference run.
  vm::Executor ref(p.image.get());
  const vm::RunResult want = vm::runToCompletion(ref);
  ASSERT_EQ(want.status, vm::RunStatus::Done);

  // Run two steps, checkpoint, run to completion, then restore and re-run
  // the tail: both tails must agree with the reference bit-for-bit.
  vm::Executor ex(p.image.get());
  ASSERT_EQ(ex.run().status, vm::RunStatus::Yielded);
  ASSERT_EQ(ex.run().status, vm::RunStatus::Yielded);
  const vm::Executor::ResumePoint cp = ex.resumePoint();
  EXPECT_GT(cp.mem.mappedBytes() + sizeof(cp.st), 4096u);

  const vm::RunResult first = vm::runToCompletion(ex);
  ASSERT_EQ(first.status, vm::RunStatus::Done);
  EXPECT_EQ(first.exitCode, want.exitCode);
  EXPECT_EQ(ex.output(), ref.output());

  ex.restoreCheckpoint(cp);
  const vm::RunResult second = vm::runToCompletion(ex);
  ASSERT_EQ(second.status, vm::RunStatus::Done);
  EXPECT_EQ(second.exitCode, want.exitCode);
  EXPECT_EQ(ex.output(), ref.output());
  EXPECT_EQ(second.instrCount, first.instrCount);
}

// The CoW acceptance test: resumePoint()/restoreCheckpoint() must share
// page storage with the live address space, not deep-copy it. Page
// allocations (counted process-wide by Memory::pageAllocCount) may only
// happen when a store actually breaks sharing.
TEST(Checkpoint, CheckpointSharesUntouchedPages) {
  Program p = buildProgram(R"(
    double grid[2048];
    int main() {
      int step = 0;
      for (step = 0; step < 2; step = step + 1) {
        grid[step * 8] = grid[step * 8] + 1.5;
        mpi_barrier();
      }
      return (int)(grid[0]);
    })", opt::OptLevel::O0);

  vm::Executor ex(p.image.get());
  ASSERT_EQ(ex.run().status, vm::RunStatus::Yielded);

  // Taking the checkpoint copies no pages — it CoW-shares all of them.
  const std::uint64_t before = vm::Memory::pageAllocCount();
  const vm::Executor::ResumePoint cp = ex.resumePoint();
  EXPECT_EQ(vm::Memory::pageAllocCount(), before)
      << "resumePoint() deep-copied untouched pages";
  EXPECT_GT(cp.mem.mappedBytes() + sizeof(cp.st), 4096u);

  // Running the next step breaks sharing only for the pages it stores to
  // (the touched grid page + the stack page), not the whole address space.
  const std::uint64_t mappedPages = ex.memory().mappedBytes() / 4096;
  ASSERT_EQ(ex.run().status, vm::RunStatus::Yielded);
  const std::uint64_t broken = vm::Memory::pageAllocCount() - before;
  EXPECT_GT(broken, 0u);
  EXPECT_LT(broken, mappedPages / 2)
      << "a single step re-copied most of the address space";

  // restoreCheckpoint() CoW-shares back; the checkpoint stays reusable.
  const std::uint64_t beforeRestore = vm::Memory::pageAllocCount();
  ex.restoreCheckpoint(cp);
  EXPECT_EQ(vm::Memory::pageAllocCount(), beforeRestore)
      << "restoreCheckpoint() deep-copied pages";
  const vm::RunResult done = vm::runToCompletion(ex);
  ASSERT_EQ(done.status, vm::RunStatus::Done);
  EXPECT_EQ(done.exitCode, 1); // grid[0] was only bumped in step 0: (int)1.5
}

TEST(Checkpoint, RestoreDiscardsLaterWrites) {
  Program p = buildProgram(R"(
    int state = 0;
    int main() {
      state = 1;
      mpi_barrier();
      state = 2;
      mpi_barrier();
      return state;
    })", opt::OptLevel::O0);
  vm::Executor ex(p.image.get());
  ASSERT_EQ(ex.run().status, vm::RunStatus::Yielded); // state == 1
  const auto cp = ex.resumePoint();
  ASSERT_EQ(ex.run().status, vm::RunStatus::Yielded); // state == 2
  const std::uint64_t stateAddr = p.image->module(0).globalAddr[0];
  std::uint64_t v = 0;
  ASSERT_EQ(ex.memory().load(stateAddr, backend::MType::I32, v),
            vm::MemStatus::Ok);
  EXPECT_EQ(v, 2u);
  ex.restoreCheckpoint(cp);
  ASSERT_EQ(ex.memory().load(stateAddr, backend::MType::I32, v),
            vm::MemStatus::Ok);
  EXPECT_EQ(v, 1u);
}

struct CrEnv {
  core::CompiledModule cm;
  std::unique_ptr<vm::Image> image;
  std::map<std::int32_t, core::ModuleArtifacts> artifacts;
};

CrEnv buildGtcp() {
  core::CompileOptions opts;
  opts.optLevel = opt::OptLevel::O0;
  opts.artifactDir = "care_test_artifacts";
  CrEnv e;
  e.cm = core::careCompile(workloads::gtcp().sources, "gtcp_cr", opts);
  e.image = std::make_unique<vm::Image>();
  e.image->load(e.cm.mmod.get());
  e.image->link();
  e.artifacts[0] = e.cm.artifacts;
  return e;
}

inject::InjectionPoint findSegvPoint(const CrEnv& e, std::uint64_t seed) {
  inject::CampaignConfig cfg;
  inject::Campaign campaign(e.image.get(), cfg);
  EXPECT_TRUE(campaign.profile());
  Rng rng(seed);
  for (int i = 0; i < 800; ++i) {
    const auto pt = campaign.sample(rng);
    const auto plain = campaign.runInjection(pt);
    if (plain.outcome == inject::Outcome::SoftFailure &&
        plain.signal == vm::TrapKind::SegFault)
      return pt;
  }
  ADD_FAILURE() << "no SIGSEGV found";
  return {};
}

TEST(CheckpointRestart, JobSurvivesFaultByRollingBack) {
  CrEnv e = buildGtcp();
  const auto pt = findSegvPoint(e, 7);
  if (!pt.loc.valid()) return;

  parallel::JobSimulator sim(e.image.get(), e.artifacts);
  parallel::JobConfig cfg;
  cfg.ranks = 4;
  cfg.withCare = false;        // the baseline: C/R instead of CARE
  cfg.checkpointInterval = 1;  // checkpoint every step
  const parallel::JobResult r = sim.run(cfg, &pt);
  EXPECT_TRUE(r.completed) << "C/R failed to save the job";
  EXPECT_EQ(r.restarts, 1);
  EXPECT_GT(r.checkpointBytes, 0u);
  EXPECT_GT(r.restartSeconds, 0.0);
  EXPECT_GT(r.checkpointSeconds, 0.0);
}

TEST(CheckpointRestart, CareIsCheaperThanRollback) {
  CrEnv e = buildGtcp();
  // Find a CARE-recoverable point so both systems face the same fault.
  inject::CampaignConfig ccfg;
  inject::Campaign campaign(e.image.get(), ccfg);
  ASSERT_TRUE(campaign.profile());
  Rng rng(13);
  inject::InjectionPoint pt;
  bool found = false;
  for (int i = 0; i < 800 && !found; ++i) {
    pt = campaign.sample(rng);
    const auto plain = campaign.runInjection(pt);
    if (plain.outcome != inject::Outcome::SoftFailure ||
        plain.signal != vm::TrapKind::SegFault)
      continue;
    found = campaign.runInjection(pt, &e.artifacts).careRecovered;
  }
  ASSERT_TRUE(found);

  parallel::JobSimulator sim(e.image.get(), e.artifacts);
  parallel::JobConfig care;
  care.ranks = 4;
  parallel::JobConfig cr;
  cr.ranks = 4;
  cr.withCare = false;
  cr.checkpointInterval = 1;

  const parallel::JobResult withCare = sim.run(care, &pt);
  const parallel::JobResult withCr = sim.run(cr, &pt);
  ASSERT_TRUE(withCare.completed && withCare.recovered);
  ASSERT_TRUE(withCr.completed);
  // CARE repairs in microseconds; C/R pays checkpoint I/O + restart I/O +
  // replay. The recovery-cost comparison is decisive even if total wall
  // times are noisy on a loaded host.
  const double careCost = withCare.recoveryUsTotal / 1e6;
  const double crCost = withCr.checkpointSeconds + withCr.restartSeconds;
  EXPECT_LT(careCost * 10, crCost);
}

TEST(CheckpointRestart, NoCheckpointMeansJobDeath) {
  CrEnv e = buildGtcp();
  const auto pt = findSegvPoint(e, 21);
  if (!pt.loc.valid()) return;
  parallel::JobSimulator sim(e.image.get(), e.artifacts);
  parallel::JobConfig cfg;
  cfg.ranks = 4;
  cfg.withCare = false;
  cfg.checkpointInterval = 0;
  const parallel::JobResult r = sim.run(cfg, &pt);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.restarts, 0);
}

} // namespace
} // namespace care::test
