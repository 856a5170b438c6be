// Textual IR parser tests: print -> parse -> print fixed point, for
// hand-written fixtures and for every workload at both opt levels.
#include <gtest/gtest.h>

#include "ir/names.hpp"
#include "ir/parse.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "testutil.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

using namespace ir;

TEST(IrParse, HandWrittenFixtureRuns) {
  const char* text = R"(; module fixture
@table = global f64 x 16 init 1 2.5 4

define f64 @sum(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 0 [%entry], i32 %next [%body] : i32
  %acc = phi f64 0 [%entry], f64 %acc2 [%body] : f64
  %cond = icmp lt i32 %i, i32 %n : i1
  condbr i1 %cond, label %body, label %exit
body:
  %idx = sext i32 %i : i64
  %p = gep f64* @table, i64 %idx : f64*
  %v = load f64* %p : f64
  %acc2 = fadd f64 %acc, f64 %v : f64
  %next = add i32 %i, i32 1 : i32
  br label %header
exit:
  ret f64 %acc
}

define i32 @main() {
entry:
  %s = call @sum i32 3 : f64
  %r = fptosi f64 %s : i32
  ret i32 %r
}
)";
  auto m = parseModule(text);
  verifyOrDie(*m);
  EXPECT_EQ(m->name(), "fixture");
  ASSERT_NE(m->findGlobal("table"), nullptr);
  EXPECT_EQ(m->findGlobal("table")->init().size(), 3u);

  // Execute it: 1 + 2.5 + 4 = 7.5 -> 7.
  auto mm = backend::lowerModule(*m);
  vm::Image image;
  image.load(mm.get());
  image.link();
  vm::Executor ex(&image);
  const vm::RunResult r = vm::runToCompletion(ex);
  ASSERT_EQ(r.status, vm::RunStatus::Done);
  EXPECT_EQ(r.exitCode, 7);

  // Fixed point: print(parse(print(parse(text)))) == print(parse(text)).
  const std::string once = toString(m.get());
  auto m2 = parseModule(once);
  EXPECT_EQ(toString(m2.get()), once);
}

TEST(IrParse, ReportsErrors) {
  EXPECT_THROW(parseModule("define i32 @f() {\nentry:\n  %x = bogus\n}\n"),
               Error);
  EXPECT_THROW(parseModule("@g = global banana x 4\n"), Error);
  EXPECT_THROW(parseModule(R"(define i32 @f() {
entry:
  %x = add i32 %undefined, i32 1 : i32
  ret i32 %x
}
)"),
               Error);
}

class WorkloadTextRoundTrip
    : public ::testing::TestWithParam<
          std::tuple<const workloads::Workload*, opt::OptLevel>> {};

TEST_P(WorkloadTextRoundTrip, PrintParsePrintIsFixedPoint) {
  const auto& [w, level] = GetParam();
  auto m = std::make_unique<Module>(w->name);
  for (const auto& s : w->sources)
    lang::compileIntoModule(s.content, s.name, *m);
  opt::optimize(*m, level);
  uniquifyNames(*m); // the parser requires unique value/block names
  verifyOrDie(*m);

  const std::string text = toString(m.get());
  auto m2 = parseModule(text);
  verifyOrDie(*m2);
  EXPECT_EQ(toString(m2.get()), text) << w->name;

  // Behavioural equivalence of the re-parsed module (note: the parser does
  // not preserve the module file table, so recovery keys would differ — but
  // execution must not).
  auto run = [&](Module& mod) {
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
  ASSERT_EQ(b.result.status, vm::RunStatus::Done);
  EXPECT_EQ(a.output, b.output);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadTextRoundTrip,
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
