// Module-scale property tests: IR serialization round-trips bit-exactly for
// every workload at every opt level; execution is fully deterministic; and
// a deserialized module lowers and runs identically to the original.
#include <gtest/gtest.h>

#include "ir/printer.hpp"
#include "ir/serialize.hpp"
#include "testutil.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

using workloads::Workload;

class ModuleRoundTrip
    : public ::testing::TestWithParam<
          std::tuple<const Workload*, opt::OptLevel>> {};

TEST_P(ModuleRoundTrip, SerializePreservesPrintAndBehaviour) {
  const auto& [w, level] = GetParam();
  auto m = std::make_unique<ir::Module>(w->name);
  for (const auto& s : w->sources)
    lang::compileIntoModule(s.content, s.name, *m);
  opt::optimize(*m, level);
  ir::verifyOrDie(*m);

  ByteWriter buf;
  ir::writeModule(*m, buf);
  ByteReader r{std::vector<std::uint8_t>(buf.data())};
  auto m2 = ir::readModule(r);
  ir::verifyOrDie(*m2);
  ASSERT_EQ(ir::toString(m.get()), ir::toString(m2.get()));

  // The deserialized module must lower and execute identically.
  auto run = [&](ir::Module& mod) {
    auto mm = backend::lowerModule(mod);
    vm::Image image;
    image.load(mm.get());
    image.link();
    vm::Executor ex(&image);
    ex.setBudget(500'000'000);
    RunOutput out;
    out.result = vm::runToCompletion(ex);
    out.output = ex.output();
    return out;
  };
  RunOutput a = run(*m);
  RunOutput b = run(*m2);
  ASSERT_EQ(a.result.status, vm::RunStatus::Done);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.result.instrCount, b.result.instrCount);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModuleRoundTrip,
    ::testing::Combine(::testing::Values(&workloads::hpccg(),
                                         &workloads::minife(),
                                         &workloads::gtcp()),
                       ::testing::Values(opt::OptLevel::O0,
                                         opt::OptLevel::O1)),
    [](const auto& info) {
      std::string n = std::get<0>(info.param)->name;
      n += std::get<1>(info.param) == opt::OptLevel::O0 ? "_O0" : "_O1";
      for (char& c : n)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

TEST(Determinism, RepeatedRunsBitIdentical) {
  Program p = buildProgram(workloads::gtcp().sources[0].content,
                           opt::OptLevel::O1, "gtcp");
  RunOutput a = runProgram(p);
  RunOutput b = runProgram(p);
  ASSERT_EQ(a.result.status, vm::RunStatus::Done);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.result.instrCount, b.result.instrCount);
  EXPECT_EQ(a.result.exitCode, b.result.exitCode);
}

TEST(Determinism, RegisterPressureStress) {
  // A deliberately register-starved expression tree: many simultaneously
  // live values force spilling; both levels must agree with each other.
  std::string src = "double a[32];\nint main() {\n"
                    "  for (int i = 0; i < 32; i = i + 1) { a[i] = i + 1; }\n"
                    "  double r = 0.0;\n";
  src += "  r = ";
  for (int i = 0; i < 24; ++i) {
    if (i) src += " + ";
    src += "(a[" + std::to_string(i) + "] * a[" + std::to_string(31 - i) +
           "] - a[" + std::to_string((i * 7) % 32) + "])";
  }
  src += ";\n  emit(r);\n  return 0;\n}\n";
  RunOutput o0 = compileAndRun(src, opt::OptLevel::O0);
  RunOutput o1 = compileAndRun(src, opt::OptLevel::O1);
  ASSERT_EQ(o0.result.status, vm::RunStatus::Done);
  ASSERT_EQ(o1.result.status, vm::RunStatus::Done);
  EXPECT_EQ(o0.output, o1.output);
  // Verify against the host computation.
  double a[32];
  for (int i = 0; i < 32; ++i) a[i] = i + 1;
  double want = 0;
  for (int i = 0; i < 24; ++i)
    want += a[i] * a[31 - i] - a[(i * 7) % 32];
  EXPECT_DOUBLE_EQ(bitsToDouble(o0.output[0]), want);
}

TEST(Determinism, DeepCallChainsAndMixedArgClasses) {
  // 7 int + 7 fp args: exercises register args and stack args together.
  const char* src = R"(
    double mix(int a, double x, int b, double y, int c, double z,
               int d, double w, int e, double v, int f, double u,
               int g, double t) {
      return a + x * 2.0 + b + y * 3.0 + c + z + d + w + e + v + f + u +
             g + t;
    }
    int main() {
      emit(mix(1, 0.5, 2, 0.25, 3, 0.125, 4, 1.5, 5, 2.5, 6, 3.5, 7, 4.5));
      return 0;
    })";
  RunOutput o0 = compileAndRun(src, opt::OptLevel::O0);
  RunOutput o1 = compileAndRun(src, opt::OptLevel::O1);
  ASSERT_EQ(o0.result.status, vm::RunStatus::Done);
  ASSERT_EQ(o1.result.status, vm::RunStatus::Done);
  const double want = 1 + 0.5 * 2 + 2 + 0.25 * 3 + 3 + 0.125 + 4 + 1.5 + 5 +
                      2.5 + 6 + 3.5 + 7 + 4.5;
  EXPECT_DOUBLE_EQ(bitsToDouble(o0.output[0]), want);
  EXPECT_EQ(o0.output, o1.output);
}

TEST(RecoveryTableRoundTrip, AllParamVariants) {
  core::RecoveryTable t;
  core::RecoveryEntry e1;
  e1.symbol = "care_k0";
  e1.params.push_back({"base", ir::Type::ptrTo(ir::Type::f64()), true, false,
                       {}});
  core::ParamDesc iv;
  iv.name = "i";
  iv.type = ir::Type::i32();
  iv.hasIvAlt = true;
  iv.ivAlt = {"idx", 0, 1, 3, 7};
  e1.params.push_back(iv);
  t.add(core::recoveryKey("a.c", 10, 4), std::move(e1));
  t.add(core::recoveryKey("a.c", 11, 4), {"care_k1", {}});

  const std::string path = "/tmp/care_rt_roundtrip.bin";
  t.writeFile(path);
  core::RecoveryTable t2 = core::RecoveryTable::readFile(path);
  ASSERT_EQ(t2.size(), 2u);
  const auto* e = t2.find(core::recoveryKey("a.c", 10, 4));
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->params.size(), 2u);
  EXPECT_TRUE(e->params[0].isGlobal);
  EXPECT_TRUE(e->params[1].hasIvAlt);
  EXPECT_EQ(e->params[1].ivAlt.peerName, "idx");
  EXPECT_EQ(e->params[1].ivAlt.peerStep, 7);
  EXPECT_EQ(t2.find(core::recoveryKey("a.c", 12, 4)), nullptr);
}

} // namespace
} // namespace care::test
