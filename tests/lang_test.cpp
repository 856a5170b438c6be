// MiniC front-end tests: lexer tokens, parser diagnostics, type errors,
// and the simple-call attribute computation Armor depends on.
#include <gtest/gtest.h>

#include "ir/verifier.hpp"
#include "lang/compile.hpp"
#include "lang/lexer.hpp"
#include "lang/parser.hpp"

namespace care::test {
namespace {

using namespace lang;

TEST(Lexer, TokenizesOperatorsAndLiterals) {
  auto toks = tokenize("x <= 10 && y != 3.5e2 || !z");
  std::vector<Tok> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  const std::vector<Tok> want = {Tok::Ident, Tok::Le,       Tok::IntLit,
                                 Tok::AmpAmp, Tok::Ident,   Tok::NotEq,
                                 Tok::FloatLit, Tok::PipePipe, Tok::Not,
                                 Tok::Ident, Tok::End};
  EXPECT_EQ(kinds, want);
  EXPECT_DOUBLE_EQ(toks[6].floatVal, 350.0);
}

TEST(Lexer, TracksLineAndColumn) {
  auto toks = tokenize("a\n  b");
  EXPECT_EQ(toks[0].line, 1u);
  EXPECT_EQ(toks[0].col, 1u);
  EXPECT_EQ(toks[1].line, 2u);
  EXPECT_EQ(toks[1].col, 3u);
}

TEST(Lexer, CommentsSkipped) {
  auto toks = tokenize("a // line comment\n/* block\ncomment */ b");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
}

TEST(Lexer, RejectsBadCharacters) {
  EXPECT_THROW(tokenize("a # b"), Error);
  EXPECT_THROW(tokenize("a & b"), Error);  // single & unsupported
  EXPECT_THROW(tokenize("/* open"), Error);
}

TEST(Parser, ReportsPositionInErrors) {
  try {
    parse("int main() { return 1 + ; }");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1:25"), std::string::npos)
        << e.what();
  }
}

struct BadProgram {
  const char* name;
  const char* src;
  const char* needle; // expected fragment of the error message
};

class FrontendDiagnostics : public ::testing::TestWithParam<BadProgram> {};

TEST_P(FrontendDiagnostics, Reported) {
  ir::Module m("t");
  try {
    lang::compileIntoModule(GetParam().src, "t.c", m);
    FAIL() << "expected a diagnostic";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().needle),
              std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FrontendDiagnostics,
    ::testing::Values(
        BadProgram{"undeclared", "int main() { return x; }", "undeclared"},
        BadProgram{"badcall", "int main() { return f(1); }", "undeclared"},
        BadProgram{"arity",
                   "int f(int a) { return a; } int main() { return f(); }",
                   "arguments"},
        BadProgram{"assignArray",
                   "double a[4]; int main() { a = 0; return 0; }",
                   "array"},
        BadProgram{"breakOutside", "int main() { break; return 0; }",
                   "break"},
        BadProgram{"redefine",
                   "int f() { return 1; } int f() { return 2; } "
                   "int main() { return 0; }",
                   "redefinition"},
        BadProgram{"defineRuntimeService",
                   "void emit(double x) { emiti(42); } "
                   "int main() { emit(1.5); return 0; }",
                   "emit is a runtime service and cannot be defined"},
        BadProgram{"voidVar", "int main() { void v; return 0; }", "void"},
        BadProgram{"ptrArith",
                   "int main() { double a[2]; double* p = a; "
                   "p = p + 1; return 0; }",
                   "arithmetic"}),
    [](const auto& info) { return info.param.name; });

TEST(Frontend, SimpleCallAttributeRules) {
  ir::Module m("t");
  lang::compileIntoModule(R"(
    int g = 0;
    double pureMath(double x, double y) { return sqrt(x * x + y * y); }
    double usesLocal(double x) {
      double tmp[2];
      tmp[0] = x;
      tmp[1] = x * 2.0;
      return tmp[0] + tmp[1];
    }
    int readsGlobal(int x) { return x + g; }
    int writesGlobal(int x) { g = x; return x; }
    double ptrParam(double* p) { return p[0]; }
    void noReturn(int x) { assert(x > 0); }
    int callsPure(int x) { return (int)(pureMath((double)(x), 1.0)); }
    int callsWriter(int x) { return writesGlobal(x); }
    int main() { return 0; }
  )", "t.c", m);
  ir::verifyOrDie(m);
  EXPECT_TRUE(m.findFunction("pureMath")->isSimpleCall());
  EXPECT_TRUE(m.findFunction("usesLocal")->isSimpleCall());
  EXPECT_FALSE(m.findFunction("readsGlobal")->isSimpleCall());
  EXPECT_FALSE(m.findFunction("writesGlobal")->isSimpleCall());
  EXPECT_FALSE(m.findFunction("ptrParam")->isSimpleCall());
  EXPECT_FALSE(m.findFunction("noReturn")->isSimpleCall());
  EXPECT_TRUE(m.findFunction("callsPure")->isSimpleCall());
  EXPECT_FALSE(m.findFunction("callsWriter")->isSimpleCall());
}

TEST(Frontend, DebugLocationsAttachedToMemoryAccesses) {
  ir::Module m("t");
  lang::compileIntoModule(R"(
double a[8];
int main() {
  a[3] = 1.0;
  return 0;
}
)", "t.c", m);
  bool sawStoreLoc = false;
  for (ir::Function* f : m) {
    if (f->isDeclaration()) continue;
    for (ir::BasicBlock* bb : *f)
      for (ir::Instruction* in : *bb)
        if (in->opcode() == ir::Opcode::Store && in->debugLoc().valid() &&
            in->debugLoc().line == 4)
          sawStoreLoc = true;
  }
  EXPECT_TRUE(sawStoreLoc);
}

} // namespace
} // namespace care::test
