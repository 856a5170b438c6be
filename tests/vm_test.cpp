// VM substrate tests: paged memory, loader layout, executor semantics,
// trap delivery, injection arming, barrier resume.
#include <gtest/gtest.h>

#include <cstring>

#include "testutil.hpp"

namespace care::test {
namespace {

using backend::MType;
using vm::Memory;
using vm::MemStatus;

constexpr vm::InterpKind kAllInterps[] = {
    vm::InterpKind::Ref, vm::InterpKind::Fast, vm::InterpKind::Jit};

// --- memory -----------------------------------------------------------------

class MemoryTypes : public ::testing::TestWithParam<MType> {};

TEST_P(MemoryTypes, IntRoundTrip) {
  const MType t = GetParam();
  if (backend::mtypeIsFP(t)) return;
  Memory mem;
  mem.map(0x1000, 64);
  const std::uint64_t addr = 0x1000 + backend::mtypeSize(t) * 2;
  ASSERT_EQ(mem.store(addr, t, static_cast<std::uint64_t>(-5)),
            MemStatus::Ok);
  std::uint64_t out = 0;
  ASSERT_EQ(mem.load(addr, t, out), MemStatus::Ok);
  if (t == MType::I8)
    EXPECT_EQ(out, 0xfbu); // zero-extended byte
  else
    EXPECT_EQ(static_cast<std::int64_t>(out), -5); // sign-extended
}

TEST_P(MemoryTypes, MisalignedIsBus) {
  const MType t = GetParam();
  if (backend::mtypeSize(t) == 1) return;
  Memory mem;
  mem.map(0x1000, 64);
  std::uint64_t out;
  EXPECT_EQ(mem.load(0x1001, t, out), MemStatus::Misaligned);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, MemoryTypes,
                         ::testing::Values(MType::I8, MType::I32, MType::I64,
                                           MType::F32, MType::F64));

TEST(Memory, UnmappedIsSegfault) {
  Memory mem;
  mem.map(0x1000, 4096);
  std::uint64_t out;
  EXPECT_EQ(mem.load(0x1000, MType::I64, out), MemStatus::Ok);
  EXPECT_EQ(mem.load(0x10000, MType::I64, out), MemStatus::Unmapped);
  EXPECT_EQ(mem.store(0x10000, MType::I64, 1), MemStatus::Unmapped);
}

TEST(Memory, FloatPrecisionRoundTrip) {
  Memory mem;
  mem.map(0, 4096);
  ASSERT_EQ(mem.storeF(8, MType::F32, 0.1), MemStatus::Ok);
  double out;
  ASSERT_EQ(mem.loadF(8, MType::F32, out), MemStatus::Ok);
  EXPECT_EQ(out, static_cast<double>(static_cast<float>(0.1)));
  ASSERT_EQ(mem.storeF(16, MType::F64, 0.1), MemStatus::Ok);
  ASSERT_EQ(mem.loadF(16, MType::F64, out), MemStatus::Ok);
  EXPECT_EQ(out, 0.1);
}

TEST(Memory, ReadWriteBytesAcrossPageBoundary) {
  Memory mem;
  mem.map(4096 - 8, 16); // maps pages 0 and 1
  std::uint8_t data[16];
  for (int i = 0; i < 16; ++i) data[i] = static_cast<std::uint8_t>(i);
  ASSERT_TRUE(mem.writeBytes(4096 - 8, data, 16));
  std::uint8_t back[16] = {};
  ASSERT_TRUE(mem.readBytes(4096 - 8, back, 16));
  EXPECT_EQ(std::memcmp(data, back, 16), 0);
  EXPECT_FALSE(mem.readBytes(3 * 4096, back, 4));
}

// --- loader ----------------------------------------------------------------

TEST(Loader, GuardGapsBetweenGlobals) {
  Program p = buildProgram(R"(
    double a[16];
    double b[16];
    int main() { a[0] = b[0]; return 0; }
  )", opt::OptLevel::O0);
  vm::Executor ex(p.image.get());
  const auto& lm = p.image->module(0);
  ASSERT_EQ(lm.globalAddr.size(), 2u);
  // Globals page-aligned, separated by at least one unmapped guard page.
  for (std::uint64_t a : lm.globalAddr) EXPECT_EQ(a % 4096, 0u);
  const std::uint64_t gap = lm.globalAddr[1] - lm.globalAddr[0];
  EXPECT_GE(gap, 2 * 4096u);
  EXPECT_TRUE(ex.memory().isMapped(lm.globalAddr[0]));
  EXPECT_FALSE(ex.memory().isMapped(lm.globalAddr[0] + 4096));
}

TEST(Loader, LocateMapsPcToInstruction) {
  Program p = buildProgram("int main() { return 3; }", opt::OptLevel::O0);
  const auto& lm = p.image->module(0);
  const std::uint64_t base = lm.funcBase[0];
  vm::CodeLoc loc = p.image->locate(base + 8);
  ASSERT_TRUE(loc.valid());
  EXPECT_EQ(loc.module, 0);
  EXPECT_EQ(loc.func, 0);
  EXPECT_EQ(loc.instr, 2);
  EXPECT_EQ(p.image->pcOf(0, 0, 2), base + 8);
  // Misaligned and out-of-range PCs are invalid.
  EXPECT_FALSE(p.image->locate(base + 6).valid());
  EXPECT_FALSE(p.image->locate(0x12).valid());
}

TEST(Loader, LibraryLoadsHighAndResolvesExterns) {
  auto makeModule = [](const std::string& src, const std::string& name) {
    auto m = std::make_unique<ir::Module>(name);
    lang::compileIntoModule(src, name + ".c", *m);
    return backend::lowerModule(*m);
  };
  auto lib = makeModule("int twice(int x) { return 2 * x; }", "lib");
  auto app = makeModule(R"(
    extern int twice(int x);
    int main() { return twice(21); }
  )", "app");
  vm::Image image;
  image.load(app.get());
  image.load(lib.get());
  image.link();
  EXPECT_LT(image.module(0).codeBase, image.module(1).codeBase);
  EXPECT_GE(image.module(1).codeBase, vm::Image::kLibBase);
  vm::Executor ex(&image);
  const vm::RunResult r = vm::runToCompletion(ex);
  ASSERT_EQ(r.status, vm::RunStatus::Done);
  EXPECT_EQ(r.exitCode, 42);
}

TEST(Loader, UnresolvedExternThrows) {
  auto m = std::make_unique<ir::Module>("app");
  lang::compileIntoModule(R"(
    extern int missing(int x);
    int main() { return missing(1); }
  )", "app.c", *m);
  auto mm = backend::lowerModule(*m);
  vm::Image image;
  image.load(mm.get());
  EXPECT_THROW(image.link(), Error);
}

// --- executor ---------------------------------------------------------------

TEST(Executor, BudgetExceededOnInfiniteLoop) {
  Program p = buildProgram("int main() { while (1) { } return 0; }",
                           opt::OptLevel::O0);
  vm::Executor ex(p.image.get());
  ex.setBudget(10'000);
  const vm::RunResult r = ex.run();
  EXPECT_EQ(r.status, vm::RunStatus::BudgetExceeded);
  EXPECT_GE(r.instrCount, 10'000u);
}

TEST(Executor, BarrierYieldsAndResumes) {
  Program p = buildProgram(R"(
    int main() {
      emiti(1);
      mpi_barrier();
      emiti(2);
      mpi_barrier();
      emiti(3);
      return 7;
    })", opt::OptLevel::O0);
  vm::Executor ex(p.image.get());
  vm::RunResult r = ex.run();
  EXPECT_EQ(r.status, vm::RunStatus::Yielded);
  EXPECT_EQ(ex.output().size(), 1u);
  r = ex.run();
  EXPECT_EQ(r.status, vm::RunStatus::Yielded);
  EXPECT_EQ(ex.output().size(), 2u);
  r = ex.run();
  EXPECT_EQ(r.status, vm::RunStatus::Done);
  EXPECT_EQ(r.exitCode, 7);
  EXPECT_EQ(ex.output().size(), 3u);
}

TEST(Executor, InjectionFiresExactlyOnceAtNth) {
  Program p = buildProgram(R"(
    int counter = 0;
    int main() {
      for (int i = 0; i < 100; i = i + 1) { counter = counter + 1; }
      return counter;
    })", opt::OptLevel::O0);
  // Profile to find a hot instruction.
  vm::Executor prof(p.image.get());
  prof.enableProfiling();
  ASSERT_EQ(vm::runToCompletion(prof).status, vm::RunStatus::Done);
  vm::CodeLoc hot;
  std::uint64_t hotCount = 0;
  const auto& fn = p.image->module(0).mod->functions[0];
  for (std::size_t i = 0; i < fn.code.size(); ++i) {
    const vm::CodeLoc loc{0, 0, static_cast<std::int32_t>(i)};
    if (prof.profileCount(loc) > hotCount) {
      hotCount = prof.profileCount(loc);
      hot = loc;
    }
  }
  ASSERT_GE(hotCount, 100u);

  vm::Executor ex(p.image.get());
  int fired = 0;
  std::uint64_t at = 0;
  ex.armInjection(hot, 50, [&](vm::Executor& e) {
    ++fired;
    at = e.instrCount();
  });
  ASSERT_EQ(vm::runToCompletion(ex).status, vm::RunStatus::Done);
  EXPECT_EQ(fired, 1);
  EXPECT_GT(at, 0u);
}

TEST(Executor, TrapHookRetryReexecutes) {
  // The store's index register is corrupted right before the store runs, so
  // it traps; the hook repairs the register and retries. On every backend
  // the run then completes like the golden run, one instruction longer:
  // the retried store counts twice.
  Program p = buildProgram(R"(
    double a[8];
    int main() {
      int i = 2;
      a[i] = 1.0;
      return (int)(a[2]);
    })", opt::OptLevel::O0);
  const vm::FuncRef mainFn = p.image->mainFunction();
  const auto& code = p.image->function({mainFn.module, mainFn.func, 0}).code;
  std::int32_t store = -1;
  for (std::size_t i = 0; i < code.size() && store < 0; ++i)
    if (code[i].op == backend::MOp::Store && code[i].mem.index != backend::kNoReg)
      store = static_cast<std::int32_t>(i);
  ASSERT_GT(store, 0) << "no indexed store in main";
  const std::size_t index = static_cast<std::size_t>(code[static_cast<std::size_t>(store)].mem.index);

  vm::Executor gold(p.image.get());
  const vm::RunResult golden = vm::runToCompletion(gold);
  ASSERT_EQ(golden.status, vm::RunStatus::Done);

  for (const vm::InterpKind kind : kAllInterps) {
    SCOPED_TRACE(vm::interpName(kind));
    vm::Executor ex(p.image.get());
    ex.setInterp(kind);
    std::uint64_t intact = 0;
    ex.armInjection({mainFn.module, mainFn.func, store - 1}, 1,
                    [&](vm::Executor& e) {
                      intact = e.state().g[index];
                      e.state().g[index] ^= 1ull << 40;
                    });
    int hookCalls = 0;
    ex.setTrapHook([&](vm::Executor& e, const vm::Trap& t) {
      ++hookCalls;
      if (t.kind != vm::TrapKind::SegFault) return vm::TrapAction::Propagate;
      e.state().g[index] = intact;
      return vm::TrapAction::Retry;
    });
    const vm::RunResult r = vm::runToCompletion(ex);
    EXPECT_EQ(hookCalls, 1);
    EXPECT_EQ(r.status, vm::RunStatus::Done);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_EQ(r.instrCount, golden.instrCount + 1);
  }
}

TEST(Executor, RepairedRetriesKeepTheGoldenPathCount) {
  // Two indexed stores, each corrupted right before it runs and repaired
  // by the hook. A repair counts in retries(), the count keeps both
  // attempts, and the state compares equal to golden on the golden-path
  // count; a ResumePoint carries its retries through a restore.
  Program p = buildProgram(R"(
    double a[8];
    int main() {
      int i = 2;
      a[i] = 1.0;
      int j = 3;
      a[j] = 2.0;
      return (int)(a[2] + a[3]);
    })", opt::OptLevel::O0);
  const vm::FuncRef mainFn = p.image->mainFunction();
  const auto& code = p.image->function({mainFn.module, mainFn.func, 0}).code;
  std::vector<std::int32_t> stores;
  for (std::size_t i = 0; i < code.size(); ++i)
    if (code[i].op == backend::MOp::Store &&
        code[i].mem.index != backend::kNoReg)
      stores.push_back(static_cast<std::int32_t>(i));
  ASSERT_EQ(stores.size(), 2u) << "expected two indexed stores in main";
  ASSERT_GT(stores[0], 0);

  // main is straight-line code, so instruction n runs at count n: the
  // golden point at count stores[0] + 1 lies between the two stores.
  const std::uint64_t between = static_cast<std::uint64_t>(stores[0]) + 1;
  vm::Executor gold(p.image.get());
  ASSERT_EQ(gold.runBounded(between).status, vm::RunStatus::BudgetExceeded);
  const vm::Executor::ResumePoint goldBetween = gold.resumePoint();
  ASSERT_EQ(goldBetween.instr, static_cast<std::int32_t>(between));
  EXPECT_EQ(goldBetween.retries, 0u);
  const vm::RunResult golden = vm::runToCompletion(gold);
  ASSERT_EQ(golden.status, vm::RunStatus::Done);

  for (const vm::InterpKind kind : kAllInterps) {
    SCOPED_TRACE(vm::interpName(kind));
    vm::Executor ex(p.image.get());
    ex.setInterp(kind);
    std::size_t reg = 0;
    std::uint64_t intact = 0;
    auto corruptBefore = [&](std::int32_t store) {
      reg = static_cast<std::size_t>(
          code[static_cast<std::size_t>(store)].mem.index);
      ex.armInjection({mainFn.module, mainFn.func, store - 1}, 1,
                      [&](vm::Executor& e) {
                        intact = e.state().g[reg];
                        e.state().g[reg] ^= 1ull << 40;
                      });
    };
    ex.setTrapHook([&](vm::Executor& e, const vm::Trap& t) {
      if (t.kind != vm::TrapKind::SegFault) return vm::TrapAction::Propagate;
      e.state().g[reg] = intact;
      return vm::TrapAction::Retry;
    });

    corruptBefore(stores[0]);
    ASSERT_EQ(ex.runBounded(between + 1).status,
              vm::RunStatus::BudgetExceeded);
    EXPECT_EQ(ex.retries(), 1u);
    EXPECT_EQ(ex.instrCount(), between + 1);
    EXPECT_TRUE(ex.sameState(goldBetween));
    const vm::Executor::ResumePoint repairedOnce = ex.resumePoint();
    EXPECT_EQ(repairedOnce.retries, 1u);

    corruptBefore(stores[1]);
    const vm::RunResult r = vm::runToCompletion(ex);
    EXPECT_EQ(r.status, vm::RunStatus::Done);
    EXPECT_EQ(r.exitCode, 3);
    EXPECT_EQ(ex.retries(), 2u);
    EXPECT_EQ(r.instrCount, golden.instrCount + 2);

    ex.restoreCheckpoint(repairedOnce);
    EXPECT_EQ(ex.retries(), 1u);
    EXPECT_EQ(ex.instrCount(), between + 1);
    EXPECT_TRUE(ex.sameState(goldBetween));
  }
}

TEST(Executor, AbortTrapFromAssert) {
  Program p = buildProgram("int main() { assert(0); return 0; }",
                           opt::OptLevel::O0);
  vm::Executor ex(p.image.get());
  const vm::RunResult r = ex.run();
  EXPECT_EQ(r.status, vm::RunStatus::Trapped);
  EXPECT_EQ(r.trap.kind, vm::TrapKind::Abort);
}

TEST(Executor, StackOverflowSegfaults) {
  Program p = buildProgram(R"(
    long deep(long n) { return deep(n + 1); }
    int main() { return (int)(deep(0)); }
  )", opt::OptLevel::O0);
  vm::Executor ex(p.image.get());
  ex.setBudget(1'000'000'000ull);
  const vm::RunResult r = ex.run();
  EXPECT_EQ(r.status, vm::RunStatus::Trapped);
  EXPECT_EQ(r.trap.kind, vm::TrapKind::SegFault); // hit the stack guard
}

TEST(Executor, CorruptedReturnAddressTrapsAsOther) {
  // Smash the callee's return address on entry. On every backend the Ret
  // reaches the hook once and ends the run Trapped/BadPC at the wild PC,
  // although the hook asks to retry: a lost PC cannot be re-executed.
  Program p = buildProgram(R"(
    int callee(int x) { return x + 1; }
    int main() { return callee(1); }
  )", opt::OptLevel::O0);
  constexpr std::uint64_t kWild = 0xdead000000000000ull;
  const vm::FuncRef mainFn = p.image->mainFunction();
  const auto& mainCode = p.image->function({mainFn.module, mainFn.func, 0}).code;
  std::int32_t call = -1;
  for (std::size_t i = 0; i < mainCode.size() && call < 0; ++i)
    if (mainCode[i].op == backend::MOp::Call) call = static_cast<std::int32_t>(i);
  ASSERT_GE(call, 0);
  const std::uint64_t retPC = p.image->pcOf(mainFn.module, mainFn.func, call + 1);
  const auto& fns = p.image->module(0).mod->functions;
  std::int32_t calleeIdx = -1;
  for (std::size_t f = 0; f < fns.size(); ++f)
    if (fns[f].name == "callee") calleeIdx = static_cast<std::int32_t>(f);
  ASSERT_GE(calleeIdx, 0);

  std::vector<vm::RunResult> results;
  for (const vm::InterpKind kind : kAllInterps) {
    SCOPED_TRACE(vm::interpName(kind));
    vm::Executor ex(p.image.get());
    ex.setInterp(kind);
    ex.armInjection({0, calleeIdx, 0}, 1, [&](vm::Executor& e) {
      const std::uint64_t sp = e.state().g[backend::kSP];
      for (std::uint64_t a = sp; a < sp + 128; a += 8) {
        std::uint64_t v = 0;
        if (e.memory().load(a, MType::I64, v) == MemStatus::Ok && v == retPC)
          e.memory().store(a, MType::I64, kWild);
      }
    });
    int hookCalls = 0;
    ex.setTrapHook([&](vm::Executor&, const vm::Trap& t) {
      ++hookCalls;
      EXPECT_EQ(t.kind, vm::TrapKind::BadPC);
      EXPECT_EQ(t.pc, kWild);
      return vm::TrapAction::Retry;
    });
    const vm::RunResult r = vm::runToCompletion(ex);
    EXPECT_EQ(hookCalls, 1);
    EXPECT_EQ(r.status, vm::RunStatus::Trapped);
    EXPECT_EQ(r.trap.kind, vm::TrapKind::BadPC);
    EXPECT_EQ(r.trap.pc, kWild);
    results.push_back(r);
  }
  for (const vm::RunResult& r : results) {
    EXPECT_EQ(r.status, results[0].status);
    EXPECT_EQ(r.trap.kind, results[0].trap.kind);
    EXPECT_EQ(r.trap.pc, results[0].trap.pc);
    EXPECT_EQ(r.trap.addr, results[0].trap.addr);
    EXPECT_EQ(r.instrCount, results[0].instrCount);
    EXPECT_EQ(r.exitCode, results[0].exitCode);
  }
}

} // namespace
} // namespace care::test
