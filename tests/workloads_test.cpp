// Golden-run correctness of the five scientific workloads and the BLAS
// library: they must complete, produce identical output at O0 and O1, and
// produce numerically sane results.
#include <gtest/gtest.h>

#include "testutil.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

using workloads::Workload;

struct BuildOut {
  std::unique_ptr<ir::Module> irMod;
  std::unique_ptr<backend::MModule> mMod;
};

BuildOut lower(const std::vector<core::SourceFile>& sources,
               const std::string& name, opt::OptLevel level) {
  BuildOut b;
  b.irMod = std::make_unique<ir::Module>(name);
  for (const auto& s : sources)
    lang::compileIntoModule(s.content, s.name, *b.irMod);
  ir::verifyOrDie(*b.irMod);
  opt::optimize(*b.irMod, level);
  ir::verifyOrDie(*b.irMod);
  b.mMod = backend::lowerModule(*b.irMod);
  return b;
}

RunOutput runWorkload(const Workload& w, opt::OptLevel level) {
  BuildOut b = lower(w.sources, w.name, level);
  vm::Image image;
  image.load(b.mMod.get());
  image.link();
  vm::Executor ex(&image);
  ex.setBudget(500'000'000);
  RunOutput out;
  out.result = vm::runToCompletion(ex);
  out.output = ex.output();
  return out;
}

class WorkloadGolden : public ::testing::TestWithParam<const Workload*> {};

TEST_P(WorkloadGolden, CompletesIdenticallyAtBothOptLevels) {
  const Workload& w = *GetParam();
  RunOutput o0 = runWorkload(w, opt::OptLevel::O0);
  RunOutput o1 = runWorkload(w, opt::OptLevel::O1);
  ASSERT_EQ(o0.result.status, vm::RunStatus::Done) << w.name << " O0 failed";
  ASSERT_EQ(o1.result.status, vm::RunStatus::Done) << w.name << " O1 failed";
  EXPECT_EQ(o0.output, o1.output) << w.name << ": O0/O1 outputs differ";
  EXPECT_FALSE(o0.output.empty()) << w.name << " emitted nothing";
  for (std::uint64_t bits : o0.output) {
    const double v = bitsToDouble(bits);
    // Either an emiti integer (small magnitude as raw bits is unlikely to
    // be a NaN pattern) or a finite double.
    EXPECT_FALSE(v != v) << w.name << " emitted NaN";
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadGolden,
                         ::testing::ValuesIn(workloads::allWorkloads()),
                         [](const auto& info) {
                           std::string n = info.param->name;
                           for (char& c : n)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

TEST(WorkloadGolden, HpccgConverges) {
  RunOutput r = runWorkload(workloads::hpccg(), opt::OptLevel::O0);
  ASSERT_EQ(r.result.status, vm::RunStatus::Done);
  // Output: residuals per iter, then ||x||^2, then iteration count.
  ASSERT_GE(r.output.size(), 3u);
  const double xnorm2 = bitsToDouble(r.output[r.output.size() - 2]);
  // Exact solution is all-ones: ||x||^2 ~ nrow = 512.
  EXPECT_NEAR(xnorm2, 512.0, 1.0);
  const double lastResidual = bitsToDouble(r.output[r.output.size() - 3]);
  EXPECT_LT(lastResidual, 1e-6);
}

TEST(WorkloadGolden, MiniFeConverges) {
  RunOutput r = runWorkload(workloads::minife(), opt::OptLevel::O0);
  ASSERT_EQ(r.result.status, vm::RunStatus::Done);
  ASSERT_GE(r.output.size(), 3u);
  const double lastResidual = bitsToDouble(r.output[r.output.size() - 3]);
  EXPECT_LT(lastResidual, 1e-4);
}

TEST(WorkloadGolden, Blat1RunsAgainstLibraryModule) {
  BuildOut lib = lower(workloads::blasLibrary().sources, "blas",
                       opt::OptLevel::O0);
  BuildOut drv = lower(workloads::sblat1Driver().sources, "sblat1",
                       opt::OptLevel::O0);
  vm::Image image;
  image.load(drv.mMod.get()); // main executable
  image.load(lib.mMod.get()); // shared library
  image.link();
  vm::Executor ex(&image);
  ex.setBudget(100'000'000);
  const vm::RunResult res = vm::runToCompletion(ex);
  ASSERT_EQ(res.status, vm::RunStatus::Done);
  const auto& out = ex.output();
  ASSERT_GE(out.size(), 26u);
  // srotg(3,4): r=5, c=0.6, s=0.8 (float precision).
  const std::size_t base = out.size() - 5;
  EXPECT_NEAR(bitsToDouble(out[base + 0]), 5.0, 1e-5);
  EXPECT_NEAR(bitsToDouble(out[base + 1]), 0.6, 1e-5);
  EXPECT_NEAR(bitsToDouble(out[base + 2]), 0.8, 1e-5);
  // First pass sdot(40, x, 1, y, 1): sum 0.5(i+1)*(0.25(i+1)-3).
  float want = 0;
  for (int i = 0; i < 40; ++i) {
    const float x = static_cast<float>(0.5 * (i + 1));
    const float y = static_cast<float>(0.25 * (i + 1) - 3.0);
    want = want + x * y; // float accumulation, as in the MiniC sdot
  }
  EXPECT_NEAR(bitsToDouble(out[0]), want, std::abs(want) * 1e-4);
}

} // namespace
} // namespace care::test
