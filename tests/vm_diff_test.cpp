// Differential testing of the three interpreter backends against each
// other: the reference big-switch loop (the executable specification), the
// predecoded fast path, and the per-block template JIT. Every observable —
// status, instruction count, exit code, register file (bitwise), emitted
// output, per-static-instruction profile counts, and trap kind/pc/address —
// must be pairwise identical across all backends:
//  * golden (fault-free) runs of all five workloads, detectors unarmed and
//    armed (signature cells, shadow address chains, SentinelTrap),
//  * budget-capped runs stopping mid-execution after a few thousand
//    instructions (exact-budget deopt on the JIT side),
//  * trapping programs (SegFault / Fpe),
//  * fuzzed injection runs, plain and profiled, that corrupt a register
//    mid-flight at sampled hot instructions and let the corruption play out
//    to whatever end state,
//  * memory-word strikes under ECC off, SECDED and SECDED+CRC, including
//    struck words the run reads back.
// All backends in a leg share ONE Image: rebuilding a sentinel-armed module
// is not bit-deterministic across in-process builds, and the contract under
// test is per-image equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>

#include "inject/injector.hpp"
#include "sentinel/sentinel.hpp"
#include "support/md5.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

using workloads::Workload;

constexpr vm::InterpKind kKinds[] = {vm::InterpKind::Ref, vm::InterpKind::Fast,
                                     vm::InterpKind::Jit};
constexpr std::size_t kNumKinds = 3;

// The lowered module must outlive the Image.
struct BuildKeep {
  std::unique_ptr<ir::Module> irMod;
  std::unique_ptr<backend::MModule> mMod;
};

std::unique_ptr<vm::Image> lowerWorkload(const Workload& w, BuildKeep& keep,
                                         bool armDetectors = false) {
  keep.irMod = std::make_unique<ir::Module>(w.name);
  for (const auto& s : w.sources)
    lang::compileIntoModule(s.content, s.name, *keep.irMod);
  ir::verifyOrDie(*keep.irMod);
  opt::optimize(*keep.irMod, opt::OptLevel::O0);
  if (armDetectors) {
    sentinel::DetectOptions det;
    det.cfc = det.addr = true;
    sentinel::runSentinel(*keep.irMod, det);
    ir::verifyOrDie(*keep.irMod);
  }
  keep.mMod = backend::lowerModule(*keep.irMod);
  auto image = std::make_unique<vm::Image>();
  image->load(keep.mMod.get());
  image->link();
  return image;
}

// Run to completion (resuming across barriers) under the given interpreter.
vm::RunResult runUnder(vm::Executor& ex, vm::InterpKind kind) {
  ex.setInterp(kind);
  return vm::runToCompletion(ex);
}

std::string pairTag(vm::InterpKind a, vm::InterpKind b,
                    const std::string& tag) {
  return tag + " [" + std::string(vm::interpName(a)) + " vs " +
         vm::interpName(b) + "]";
}

void expectSameResult(const vm::RunResult& a, const vm::RunResult& b,
                      const std::string& tag) {
  EXPECT_EQ(a.status, b.status) << tag;
  EXPECT_EQ(a.instrCount, b.instrCount) << tag;
  EXPECT_EQ(a.exitCode, b.exitCode) << tag;
  EXPECT_EQ(a.trap.kind, b.trap.kind) << tag;
  EXPECT_EQ(a.trap.pc, b.trap.pc) << tag;
  EXPECT_EQ(a.trap.addr, b.trap.addr) << tag;
}

void expectSameMachine(vm::Executor& a, vm::Executor& b,
                       const std::string& tag) {
  EXPECT_EQ(std::memcmp(a.state().g, b.state().g, sizeof a.state().g), 0)
      << tag << ": integer register files differ";
  EXPECT_EQ(std::memcmp(a.state().f, b.state().f, sizeof a.state().f), 0)
      << tag << ": FP register files differ";
  EXPECT_EQ(a.output(), b.output()) << tag << ": emitted output differs";
}

void expectSameProfile(const vm::Image& image, vm::Executor& a,
                       vm::Executor& b, const std::string& tag) {
  for (std::size_t m = 0; m < image.numModules(); ++m) {
    const auto& fns = image.module(m).mod->functions;
    for (std::size_t fi = 0; fi < fns.size(); ++fi)
      for (std::size_t i = 0; i < fns[fi].code.size(); ++i) {
        const vm::CodeLoc loc{static_cast<std::int32_t>(m),
                              static_cast<std::int32_t>(fi),
                              static_cast<std::int32_t>(i)};
        ASSERT_EQ(a.profileCount(loc), b.profileCount(loc))
            << tag << ": profile count diverges at (" << m << "," << fi << ","
            << i << ")";
      }
  }
}

// Run one executor per backend against the shared image, then compare every
// backend pair. `arm` customizes each executor before it runs (budget,
// profiling, injection, ...).
template <typename Arm>
std::array<vm::RunResult, kNumKinds>
diffAllBackends(const vm::Image* image, const std::string& tag, bool profile,
                Arm arm) {
  std::array<std::unique_ptr<vm::Executor>, kNumKinds> ex;
  std::array<vm::RunResult, kNumKinds> res;
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    ex[k] = std::make_unique<vm::Executor>(image);
    arm(*ex[k]);
    res[k] = runUnder(*ex[k], kKinds[k]);
  }
  for (std::size_t a = 0; a < kNumKinds; ++a)
    for (std::size_t b = a + 1; b < kNumKinds; ++b) {
      const std::string t = pairTag(kKinds[a], kKinds[b], tag);
      expectSameResult(res[a], res[b], t);
      expectSameMachine(*ex[a], *ex[b], t);
      if (profile) expectSameProfile(*image, *ex[a], *ex[b], t);
    }
  return res;
}

class WorkloadDiff : public ::testing::TestWithParam<const Workload*> {};

TEST_P(WorkloadDiff, GoldenRunBitIdentical) {
  const Workload& w = *GetParam();
  BuildKeep keep;
  const auto image = lowerWorkload(w, keep);

  const auto res = diffAllBackends(image.get(), w.name,
                                   /*profile=*/true, [](vm::Executor& ex) {
                                     ex.enableProfiling();
                                     ex.setBudget(500'000'000);
                                   });
  ASSERT_EQ(res[0].status, vm::RunStatus::Done) << w.name;
}

// Sentinel-instrumented code (signature cells, shadow address chains, the
// SentinelTrap op itself) must execute identically under all backends.
TEST_P(WorkloadDiff, DetectorsArmedGoldenRunBitIdentical) {
  const Workload& w = *GetParam();
  BuildKeep keep;
  const auto image = lowerWorkload(w, keep, /*armDetectors=*/true);

  const auto res = diffAllBackends(image.get(), w.name + " (detectors)",
                                   /*profile=*/true, [](vm::Executor& ex) {
                                     ex.enableProfiling();
                                     ex.setBudget(500'000'000);
                                   });
  ASSERT_EQ(res[0].status, vm::RunStatus::Done) << w.name;
}

// Exact dynamic-instruction budgets: every backend must stop at precisely
// the same instruction with the same machine state. On the JIT side this
// exercises the block-fit check / deopt-to-interpreter boundary protocol.
TEST_P(WorkloadDiff, BudgetCappedRunStopsIdentically) {
  const Workload& w = *GetParam();
  BuildKeep keep;
  const auto image = lowerWorkload(w, keep);

  for (const std::uint64_t budget : {1ull, 1000ull, 4096ull, 5001ull}) {
    const std::string tag = w.name + " budget=" + std::to_string(budget);
    const auto res =
        diffAllBackends(image.get(), tag, /*profile=*/false,
                        [budget](vm::Executor& ex) { ex.setBudget(budget); });
    ASSERT_EQ(res[0].status, vm::RunStatus::BudgetExceeded) << tag;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadDiff,
    ::testing::ValuesIn(workloads::allWorkloads()),
    [](const ::testing::TestParamInfo<const Workload*>& info) {
      std::string n = info.param->name;
      for (char& c : n)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

// --- trapping programs ------------------------------------------------------

void diffProgram(const std::string& src, vm::RunStatus wantStatus,
                 vm::TrapKind wantKind, const std::string& tag) {
  Program p = buildProgram(src, opt::OptLevel::O0);
  const auto res =
      diffAllBackends(p.image.get(), tag, /*profile=*/false,
                      [](vm::Executor& ex) { ex.setBudget(10'000'000); });
  ASSERT_EQ(res[0].status, wantStatus) << tag;
  if (wantStatus == vm::RunStatus::Trapped) {
    ASSERT_EQ(res[0].trap.kind, wantKind) << tag;
  }
}

TEST(TrapDiff, OutOfBoundsStoreSegfaultsIdentically) {
  diffProgram(R"(
    int a[4];
    int main() {
      int i = 1000000;
      a[i] = 3;
      return a[0];
    })", vm::RunStatus::Trapped, vm::TrapKind::SegFault, "oob-store");
}

TEST(TrapDiff, OutOfBoundsLoadSegfaultsIdentically) {
  diffProgram(R"(
    double a[8];
    int main() {
      int i = 800000;
      return (int)(a[i]);
    })", vm::RunStatus::Trapped, vm::TrapKind::SegFault, "oob-load");
}

TEST(TrapDiff, DivisionByZeroFpeIdentically) {
  diffProgram(R"(
    int main() {
      int x = 7;
      int y = 0;
      return x / y;
    })", vm::RunStatus::Trapped, vm::TrapKind::Fpe, "div-zero");
}

TEST(TrapDiff, RemainderOverflowFpeIdentically) {
  diffProgram(R"(
    int main() {
      int x = -2147483648;
      int y = -1;
      return x % y;
    })", vm::RunStatus::Trapped, vm::TrapKind::Fpe, "rem-overflow");
}

// --- injection fuzz ---------------------------------------------------------

// Corrupt one integer register at the n-th execution of a hot instruction
// and let the fault play out: soft failure, masked run, or silent
// corruption — whatever happens, all backends must land on the same bits.
// This sweeps the trap paths (SegFault/Bus/BadPC from wild addresses), the
// injection arming/firing bookkeeping, and the post-injection handoff
// (instrumented→plain on the fast loop, instrumented→native on the JIT), in
// plain and profiled runs, in one go.
TEST(InjectionDiff, RegisterCorruptionPlaysOutIdentically) {
  const Workload& w = workloads::hpccg();
  BuildKeep keep;
  const auto image = lowerWorkload(w, keep);

  // Profile once (reference loop) to find hot instructions worth hitting.
  vm::Executor prof(image.get());
  prof.enableProfiling();
  prof.setBudget(500'000'000);
  const vm::RunResult golden = runUnder(prof, vm::InterpKind::Ref);
  ASSERT_EQ(golden.status, vm::RunStatus::Done);

  struct Hot {
    vm::CodeLoc loc;
    std::uint64_t count;
  };
  std::vector<Hot> hot;
  for (std::size_t m = 0; m < image->numModules(); ++m) {
    const auto& fns = image->module(m).mod->functions;
    for (std::size_t fi = 0; fi < fns.size(); ++fi)
      for (std::size_t i = 0; i < fns[fi].code.size(); ++i) {
        const vm::CodeLoc loc{static_cast<std::int32_t>(m),
                              static_cast<std::int32_t>(fi),
                              static_cast<std::int32_t>(i)};
        const std::uint64_t c = prof.profileCount(loc);
        if (c > 1000) hot.push_back({loc, c});
      }
  }
  ASSERT_GT(hot.size(), 8u);

  Rng rng(0xD1FF);
  int trapped = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const Hot& h = hot[rng.next() % hot.size()];
    const std::uint64_t nth = 1 + rng.next() % h.count;
    const int reg = static_cast<int>(rng.next() % backend::kNumRegs);
    const int bit = static_cast<int>(rng.next() % 64);
    const auto corrupt = [reg, bit](vm::Executor& ex) {
      ex.state().g[reg] ^= 1ull << bit;
    };

    const std::string tag = "trial " + std::to_string(trial) + " @(" +
                            std::to_string(h.loc.module) + "," +
                            std::to_string(h.loc.func) + "," +
                            std::to_string(h.loc.instr) + ") nth=" +
                            std::to_string(nth) + " g" + std::to_string(reg) +
                            "^bit" + std::to_string(bit);
    // Profiled too: the armed prefix counts per instruction, the rest of
    // the run on the JIT's counting code.
    for (const bool profile : {false, true}) {
      const auto res = diffAllBackends(
          image.get(), tag + (profile ? " profiled" : ""), profile,
          [&](vm::Executor& ex) {
            if (profile) ex.enableProfiling();
            ex.setBudget(2 * golden.instrCount);
            ex.armInjection(h.loc, nth, corrupt);
          });
      if (res[0].status == vm::RunStatus::Trapped) ++trapped;
    }
  }
  // The sweep should have found at least one hard fault to be meaningful.
  EXPECT_GT(trapped, 0) << "fuzz never produced a trap; widen the sweep";
}

// --- memory-fault fuzz (DESIGN.md §4i) --------------------------------------

// Digest of the whole mapped address space, page by page in page order.
std::string memoryDigest(vm::Executor& ex) {
  Md5 h;
  std::vector<std::uint8_t> buf(vm::Memory::kPageSize);
  for (const std::uint64_t pn : ex.memory().pageNumbers()) {
    EXPECT_TRUE(
        ex.memory().readBytes(pn * vm::Memory::kPageSize, buf.data(),
                              buf.size()));
    h.update(buf.data(), buf.size());
  }
  return h.finish().hex();
}

// Flip bits in a mapped word at a sampled dynamic-instruction time and let
// the corruption play out under all three backends, with ECC off, SECDED
// and SECDED+CRC: trap kind, faulting instrCount, registers, output, ECC
// counters and the full post-run memory image must be pairwise identical.
// Models rotate across trials: single bit, adjacent pair, 8-bit lane burst.
// Random words are mostly on untouched stack pages, so the later trials
// strike words the run goes on to use — the word at the stack pointer, and
// words the golden run writes that the watch table (Campaign::watch) calls
// live at the strike — and under ECC their reads must reach the struck
// word through the typed accessors.
TEST(InjectionDiff, MemoryFaultPlaysOutIdenticallyAcrossBackends) {
  const Workload& w = workloads::hpccg();
  BuildKeep keep;
  const auto image = lowerWorkload(w, keep);

  vm::Executor prof(image.get());
  prof.setBudget(500'000'000);
  const vm::RunResult golden = runUnder(prof, vm::InterpKind::Ref);
  ASSERT_EQ(golden.status, vm::RunStatus::Done);

  vm::Executor probe(image.get());
  const std::vector<std::uint64_t> pages = probe.memory().pageNumbers();
  ASSERT_FALSE(pages.empty());
  const std::vector<std::uint64_t> words =
      changedWords(vm::MemorySnapshot::capture(probe.memory()),
                   vm::MemorySnapshot::capture(prof.memory()));
  ASSERT_FALSE(words.empty());
  inject::CampaignConfig cfg;
  cfg.fault = inject::FaultModel::Mem1;
  inject::Campaign campaign(image.get(), cfg);
  ASSERT_TRUE(campaign.profile());

  // Word addresses below this mean "the word at the stack pointer".
  constexpr std::uint64_t kAtSP = 0;
  constexpr int kRandomTrials = 9, kSPTrials = 3, kLiveTrials = 3;
  constexpr std::size_t kLiveCandidates = 256;
  std::uint64_t liveEccEvents = 0;
  Rng rng(0xECC);
  for (int trial = 0; trial < kRandomTrials + kSPTrials + kLiveTrials;
       ++trial) {
    const std::uint64_t faultAt = 1 + rng.next() % (golden.instrCount - 1);
    std::uint64_t addr = kAtSP;
    if (trial < kRandomTrials) {
      const std::uint64_t page = pages[rng.next() % pages.size()];
      addr = page * vm::Memory::kPageSize + 8 * (rng.next() % 512);
    } else if (trial >= kRandomTrials + kSPTrials) {
      // The first written word, from a random start, that the watch table
      // does not call dead at faultAt.
      const std::size_t from = rng.next() % words.size();
      std::vector<inject::InjectionPoint> points(kLiveCandidates);
      for (std::size_t n = 0; n < points.size(); ++n) {
        points[n].model = inject::FaultModel::Mem1;
        points[n].nth = faultAt;
        points[n].memAddr = words[(from + n) % words.size()];
      }
      campaign.watch(points);
      const auto live =
          std::find_if(points.begin(), points.end(), [&](const auto& pt) {
            return campaign.pruneKey(pt).rfind("deadmem", 0) != 0;
          });
      ASSERT_NE(live, points.end()) << "trial " << trial;
      addr = live->memAddr;
    }
    std::vector<unsigned> bits;
    switch (trial % 3) {
    case 0: // mem1
      bits = {static_cast<unsigned>(rng.next() % 64)};
      break;
    case 1: { // mem2adj
      const unsigned p = static_cast<unsigned>(rng.next() % 63);
      bits = {p, p + 1};
      break;
    }
    default: { // burst: one byte lane
      const unsigned lane = static_cast<unsigned>(rng.next() % 8);
      for (unsigned b = 0; b < 8; ++b) bits.push_back(8 * lane + b);
      break;
    }
    }

    for (const vm::EccMode mode :
         {vm::EccMode::Off, vm::EccMode::Secded, vm::EccMode::SecdedCrc}) {
      const std::string tag =
          "trial " + std::to_string(trial) + " addr=" +
          (addr == kAtSP ? std::string("sp") : std::to_string(addr)) +
          " at=" + std::to_string(faultAt) +
          " ecc=" + vm::eccModeName(mode);
      std::array<std::unique_ptr<vm::Executor>, kNumKinds> ex;
      std::array<vm::RunResult, kNumKinds> res;
      std::array<std::string, kNumKinds> digest;
      std::uint64_t struck = addr;
      for (std::size_t k = 0; k < kNumKinds; ++k) {
        ex[k] = std::make_unique<vm::Executor>(image.get());
        ex[k]->setInterp(kKinds[k]);
        ex[k]->setBudget(2 * golden.instrCount);
        const vm::RunResult stop = ex[k]->runBounded(faultAt);
        ASSERT_EQ(stop.status, vm::RunStatus::BudgetExceeded) << tag;
        ASSERT_EQ(stop.instrCount, faultAt) << tag;
        if (addr == kAtSP) {
          const std::uint64_t sp = ex[k]->state().g[backend::kSP];
          if (k == 0) struck = sp;
          ASSERT_EQ(sp, struck) << tag << ": stack pointers differ";
        }
        ASSERT_TRUE(ex[k]->memory().injectFault(struck, bits, mode)) << tag;
        res[k] = vm::runToCompletion(*ex[k]);
        digest[k] = memoryDigest(*ex[k]);
      }
      if (trial >= kRandomTrials && mode != vm::EccMode::Off)
        liveEccEvents += ex[0]->memory().eccCorrected() +
                         ex[0]->memory().eccUncorrectable();
      for (std::size_t a = 0; a < kNumKinds; ++a)
        for (std::size_t b = a + 1; b < kNumKinds; ++b) {
          const std::string t = pairTag(kKinds[a], kKinds[b], tag);
          expectSameResult(res[a], res[b], t);
          expectSameMachine(*ex[a], *ex[b], t);
          EXPECT_EQ(digest[a], digest[b])
              << t << ": post-fault memory images differ";
          EXPECT_EQ(ex[a]->memory().eccCorrected(),
                    ex[b]->memory().eccCorrected()) << t;
          EXPECT_EQ(ex[a]->memory().eccUncorrectable(),
                    ex[b]->memory().eccUncorrectable()) << t;
        }
    }
  }
  // No scrub runs here: every counted event is a program access that met
  // a struck word.
  EXPECT_GT(liveEccEvents, 0u)
      << "no live-word strike was ever read back under ECC";
}

} // namespace
} // namespace care::test
