// MiniC conformance corpus: each program runs at O0 and O1 and must
// produce the expected exit code, or the expected SIGFPE trap (and
// identical emits at both levels).
#include <gtest/gtest.h>

#include "testutil.hpp"

namespace care::test {
namespace {

struct Prog {
  const char* name;
  const char* src;
  std::int64_t exitCode;
  bool trapsFpe = false; // ends in SIGFPE instead of exiting
};

class MiniCCorpus : public ::testing::TestWithParam<Prog> {};

TEST_P(MiniCCorpus, RunsCorrectlyAtBothLevels) {
  const Prog& p = GetParam();
  RunOutput o0 = compileAndRun(p.src, opt::OptLevel::O0);
  RunOutput o1 = compileAndRun(p.src, opt::OptLevel::O1);
  for (const RunOutput* o : {&o0, &o1}) {
    if (p.trapsFpe) {
      ASSERT_EQ(o->result.status, vm::RunStatus::Trapped) << p.name;
      EXPECT_EQ(o->result.trap.kind, vm::TrapKind::Fpe) << p.name;
    } else {
      ASSERT_EQ(o->result.status, vm::RunStatus::Done) << p.name;
      EXPECT_EQ(o->result.exitCode, p.exitCode) << p.name;
    }
  }
  EXPECT_EQ(o0.output, o1.output) << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MiniCCorpus,
    ::testing::Values(
        Prog{"negativeModulo", "int main() { return (-7 % 3) + 5; }", 4},
        Prog{"intDivisionTruncates", "int main() { return -7 / 2 + 10; }", 7},
        Prog{"longArithmetic", R"(
          int main() {
            long big = 1000000007;
            long sq = big * big % 1000003;
            return (int)(sq % 97);
          })", (1000000007ll * 1000000007ll % 1000003) % 97},
        Prog{"mixedIntLongPromotion", R"(
          int main() {
            int a = 100000;
            long b = 300000;
            long c = a * 3;      // i32 multiply, then widened
            return c == b ? 1 : 0;
          })", 1},
        Prog{"floatToIntTruncation",
             "int main() { return (int)(3.99) + (int)(-2.01); }", 1},
        Prog{"boolArithmetic",
             "int main() { return (3 < 5) + (5 < 3) + (2 == 2) * 10; }", 11},
        Prog{"nestedTernary",
             "int main() { int x = 7; return x > 5 ? (x > 6 ? 3 : 2) : 1; }",
             3},
        Prog{"shortCircuitSideEffects", R"(
          int calls = 0;
          int bump() { calls = calls + 1; return 1; }
          int main() {
            int r = 0 && bump();
            int s = 1 || bump();
            return calls * 10 + r + s;
          })", 1},
        Prog{"whileWithContinue", R"(
          int main() {
            int s = 0;
            int i = 0;
            while (i < 10) {
              i = i + 1;
              if (i % 2 == 0) { continue; }
              s = s + i;
            }
            return s;
          })", 25},
        Prog{"nestedBreak", R"(
          int main() {
            int hits = 0;
            for (int i = 0; i < 5; i = i + 1) {
              for (int j = 0; j < 5; j = j + 1) {
                if (j > i) { break; }
                hits = hits + 1;
              }
            }
            return hits;
          })", 15},
        Prog{"scopedShadowing", R"(
          int main() {
            int x = 1;
            {
              int x = 2;
              { int x = 3; }
            }
            return x;
          })", 1},
        Prog{"globalScalarInit", R"(
          int counter = 41;
          double ratio = 0.5;
          int main() { return counter + (int)(ratio * 2.0); })", 42},
        Prog{"negativeGlobalInit", R"(
          int bias = -5;
          int main() { return bias + 10; })", 5},
        Prog{"assertPasses",
             "int main() { assert(2 + 2 == 4); return 9; }", 9},
        Prog{"recursionAckermannish", R"(
          int ack(int m, int n) {
            if (m == 0) { return n + 1; }
            if (n == 0) { return ack(m - 1, 1); }
            return ack(m - 1, ack(m, n - 1));
          }
          int main() { return ack(2, 3); })", 9},
        Prog{"mutualRecursion", R"(
          int isOdd(int n);
          int isEven(int n) { return n == 0 ? 1 : isOdd(n - 1); }
          int isOdd(int n) { return n == 0 ? 0 : isEven(n - 1); }
          int main() { return isEven(10) * 10 + isOdd(7); })", 11},
        Prog{"arrayAliasingThroughCalls", R"(
          void scale(double* v, int n, double f) {
            for (int i = 0; i < n; i = i + 1) { v[i] = v[i] * f; }
          }
          double data[4];
          int main() {
            for (int i = 0; i < 4; i = i + 1) { data[i] = i + 1; }
            scale(data, 4, 2.0);
            scale(data, 2, 0.5);
            return (int)(data[0] + data[1] + data[2] + data[3]);
          })", 1 + 2 + 6 + 8},
        Prog{"localArrayInLoop", R"(
          int main() {
            int hist[8];
            for (int i = 0; i < 8; i = i + 1) { hist[i] = 0; }
            for (int i = 0; i < 100; i = i + 1) {
              hist[i % 8] = hist[i % 8] + 1;
            }
            return hist[3] * 10 + hist[7];
          })", 13 * 10 + 12},
        Prog{"floatPrecisionF32", R"(
          int main() {
            float f = 0.1;
            double d = 0.1;
            return f == d ? 1 : 2;  // float(0.1) != double(0.1)
          })", 2},
        Prog{"sqrtIntrinsicChain",
             "int main() { return (int)(sqrt(sqrt(256.0))); }", 4},
        Prog{"fminFmaxPow", R"(
          int main() {
            double a = fmax(3.0, fmin(10.0, 7.0));
            return (int)(pow(a, 2.0));
          })", 49},
        Prog{"floorCeilLog", R"(
          int main() {
            return (int)(floor(3.7)) + (int)(ceil(3.2)) +
                   (int)(exp(log(5.0)) + 0.5);
          })", 12},
        Prog{"forWithoutInitOrStep", R"(
          int main() {
            int i = 0;
            for (; i < 5;) { i = i + 2; }
            return i;
          })", 6},
        Prog{"commentsEverywhere", R"(
          // leading comment
          int main() { /* inline */ return /* mid */ 5; } // trailing
        )", 5},
        Prog{"unaryNotChains",
             "int main() { return !!5 * 10 + !0; }", 11},
        Prog{"emitOrdering", R"(
          int main() {
            emiti(1);
            emit(2.5);
            emiti(3);
            return 0;
          })", 0},
        Prog{"castRoundTripPreservesInt", R"(
          int main() {
            int x = 123456;
            double d = (double)(x);
            long l = (long)(d);
            return (int)(l) == x ? 1 : 0;
          })", 1},
        Prog{"chainedAssignment", R"(
          int main() {
            int a = 0;
            int b = 0;
            a = b = 7;
            return a + b;
          })", 14},
        Prog{"largeStackFrame", R"(
          double work() {
            double buf[200];
            for (int i = 0; i < 200; i = i + 1) { buf[i] = i * 0.5; }
            double s = 0.0;
            for (int i = 0; i < 200; i = i + 1) { s = s + buf[i]; }
            return s;
          }
          int main() { return (int)(work()) % 251; })",
             static_cast<std::int64_t>(199 * 200 / 2 * 0.5) % 251},
        Prog{"int32WrapAround", R"(
          int main() {
            int big = 2147483647;
            int wrapped = big + 1;      // INT32_MIN by wrap
            return wrapped < 0 ? 1 : 0;
          })", 1},
        // Binding: each level is left-associative, and the six
        // comparisons share one level.
        Prog{"subtractionIsLeftAssociative",
             "int main() { return 10 - 3 - 2; }", 5},
        Prog{"divisionAndProductAreLeftAssociative",
             "int main() { return 7 / 2 * 2; }", 6},
        Prog{"remainderBindsWithProduct",
             "int main() { return 2 + 3 * 4 % 5; }", 4},
        Prog{"andBindsTighterThanOr",
             "int main() { return 1 || 0 && 0; }", 1},
        Prog{"relationalAndEqualityShareALevel",
             "int main() { return 1 < 2 == 1; }", 1},
        Prog{"comparisonsChainLeftToRight",
             "int main() { return 3 > 2 > 1; }", 0},
        Prog{"unaryMinusBindsTighterThanProduct",
             "int main() { return 10 + -2 * 3; }", 4},
        Prog{"int32MinByMinusOneTraps", R"(
          int main() {
            int a = -2147483647 - 1;
            return a / (0 - 1);         // SIGFPE, also once folded
          })", 0, true}),
    [](const auto& info) { return info.param.name; });

} // namespace
} // namespace care::test
