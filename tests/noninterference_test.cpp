// CARE's zero-interference guarantees, as testable properties:
//  * Armor only annotates (debug locations); a CARE-compiled binary runs
//    bit-identically to a plain one, instruction for instruction;
//  * attaching Safeguard changes nothing during fault-free execution.
#include <gtest/gtest.h>

#include "care/driver.hpp"
#include "testutil.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

using workloads::Workload;

class ArmorNonInterference
    : public ::testing::TestWithParam<
          std::tuple<const Workload*, opt::OptLevel>> {};

TEST_P(ArmorNonInterference, CareCompileMatchesPlainCompile) {
  const auto& [w, level] = GetParam();
  auto runWith = [&](bool care, const char* tag) {
    core::CompileOptions opts;
    opts.optLevel = level;
    opts.enableCare = care;
    opts.artifactDir = "care_test_artifacts";
    auto cm = core::careCompile(w->sources, w->name + "_ni_" + tag, opts);
    vm::Image image;
    image.load(cm.mmod.get());
    image.link();
    vm::Executor ex(&image);
    ex.setBudget(500'000'000);
    core::Safeguard safeguard;
    if (care) {
      safeguard.addModule(0, cm.artifacts);
      safeguard.attach(ex);
    }
    RunOutput out;
    out.result = vm::runToCompletion(ex);
    out.output = ex.output();
    EXPECT_EQ(safeguard.stats().activations, 0u)
        << "Safeguard activated during a fault-free run";
    return out;
  };
  RunOutput plain = runWith(false, "off");
  RunOutput withCare = runWith(true, "on");
  ASSERT_EQ(plain.result.status, vm::RunStatus::Done);
  ASSERT_EQ(withCare.result.status, vm::RunStatus::Done);
  EXPECT_EQ(plain.output, withCare.output);
  EXPECT_EQ(plain.result.instrCount, withCare.result.instrCount)
      << "Armor changed the generated code";
  EXPECT_EQ(plain.result.exitCode, withCare.result.exitCode);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ArmorNonInterference,
    ::testing::Combine(::testing::Values(&workloads::hpccg(),
                                         &workloads::gtcp(),
                                         &workloads::minife()),
                       ::testing::Values(opt::OptLevel::O0,
                                         opt::OptLevel::O1)),
    [](const auto& info) {
      std::string n = std::get<0>(info.param)->name;
      n += std::get<1>(info.param) == opt::OptLevel::O0 ? "_O0" : "_O1";
      for (char& c : n)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

} // namespace
} // namespace care::test
