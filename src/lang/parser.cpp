#include "lang/parser.hpp"

#include "support/error.hpp"

namespace care::lang {
namespace {

/// MiniC's binary operators, loosest first: || < && < the six comparisons
/// < + - < * / %.
struct BinOpInfo {
  Tok tok;
  BinOp op;
  int level;
};
constexpr BinOpInfo kBinOps[] = {
    {Tok::PipePipe, BinOp::LOr, 0}, {Tok::AmpAmp, BinOp::LAnd, 1},
    {Tok::EqEq, BinOp::Eq, 2},      {Tok::NotEq, BinOp::Ne, 2},
    {Tok::Lt, BinOp::Lt, 2},        {Tok::Le, BinOp::Le, 2},
    {Tok::Gt, BinOp::Gt, 2},        {Tok::Ge, BinOp::Ge, 2},
    {Tok::Plus, BinOp::Add, 3},     {Tok::Minus, BinOp::Sub, 3},
    {Tok::Star, BinOp::Mul, 4},     {Tok::Slash, BinOp::Div, 4},
    {Tok::Percent, BinOp::Rem, 4},
};

const BinOpInfo* binOpInfo(Tok t) {
  for (const BinOpInfo& b : kBinOps)
    if (b.tok == t) return &b;
  return nullptr;
}

class Parser {
public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  TranslationUnit run() {
    TranslationUnit tu;
    while (cur().kind != Tok::End) parseTopLevel(tu);
    return tu;
  }

private:
  const Token& cur() const { return toks_[pos_]; }
  const Token& peek(std::size_t k = 1) const {
    const std::size_t i = pos_ + k;
    return toks_[i < toks_.size() ? i : toks_.size() - 1];
  }
  Pos here() const { return {cur().line, cur().col}; }

  [[noreturn]] void error(const std::string& msg) const {
    raise("parse error at " + std::to_string(cur().line) + ":" +
          std::to_string(cur().col) + ": " + msg + " (got '" +
          tokName(cur().kind) + "')");
  }

  Token eat(Tok kind) {
    if (cur().kind != kind)
      error(std::string("expected '") + tokName(kind) + "'");
    return toks_[pos_++];
  }
  bool accept(Tok kind) {
    if (cur().kind != kind) return false;
    ++pos_;
    return true;
  }

  bool atTypeKeyword() const {
    const Tok k = cur().kind;
    return k == Tok::KwInt || k == Tok::KwLong || k == Tok::KwFloat ||
           k == Tok::KwDouble || k == Tok::KwVoid;
  }

  CType parseType() {
    CType t;
    switch (cur().kind) {
    case Tok::KwInt: t.base = BaseType::Int; break;
    case Tok::KwLong: t.base = BaseType::Long; break;
    case Tok::KwFloat: t.base = BaseType::Float; break;
    case Tok::KwDouble: t.base = BaseType::Double; break;
    case Tok::KwVoid: t.base = BaseType::Void; break;
    default: error("expected type");
    }
    ++pos_;
    while (accept(Tok::Star)) ++t.ptrDepth;
    return t;
  }

  void parseTopLevel(TranslationUnit& tu) {
    const bool isExtern = accept(Tok::KwExtern);
    const Pos p = here();
    CType type = parseType();
    const std::string name = eat(Tok::Ident).text;

    if (cur().kind == Tok::LParen) {
      FuncDecl fd;
      fd.retType = type;
      fd.name = name;
      fd.isExtern = isExtern;
      fd.pos = p;
      eat(Tok::LParen);
      if (cur().kind != Tok::RParen) {
        do {
          Param prm;
          prm.type = parseType();
          prm.name = eat(Tok::Ident).text;
          if (prm.type.base == BaseType::Void && !prm.type.isPointer())
            error("void parameter");
          fd.params.push_back(std::move(prm));
        } while (accept(Tok::Comma));
      }
      eat(Tok::RParen);
      if (isExtern || cur().kind == Tok::Semi) {
        eat(Tok::Semi);
        fd.isExtern = true;
      } else {
        fd.body = parseBlock();
      }
      tu.funcs.push_back(std::move(fd));
      return;
    }

    // Global variable.
    if (isExtern) error("extern globals are not supported");
    GlobalDecl gd;
    gd.type = type;
    gd.name = name;
    gd.pos = p;
    if (accept(Tok::LBracket)) {
      gd.arraySize = eat(Tok::IntLit).intVal;
      if (gd.arraySize <= 0) error("array size must be positive");
      eat(Tok::RBracket);
    } else if (accept(Tok::Assign)) {
      gd.init = parseExpr();
    }
    eat(Tok::Semi);
    tu.globals.push_back(std::move(gd));
  }

  std::unique_ptr<Stmt> parseBlock() {
    auto blk = std::make_unique<Stmt>(StmtKind::Block, here());
    eat(Tok::LBrace);
    while (cur().kind != Tok::RBrace) blk->stmts.push_back(parseStmt());
    eat(Tok::RBrace);
    return blk;
  }

  std::unique_ptr<Stmt> parseStmt() {
    const Pos p = here();
    switch (cur().kind) {
    case Tok::LBrace:
      return parseBlock();
    case Tok::KwIf: {
      auto s = std::make_unique<Stmt>(StmtKind::If, p);
      eat(Tok::KwIf);
      eat(Tok::LParen);
      s->exprs.push_back(parseExpr());
      eat(Tok::RParen);
      s->stmts.push_back(parseStmt());
      if (accept(Tok::KwElse)) s->stmts.push_back(parseStmt());
      return s;
    }
    case Tok::KwWhile: {
      auto s = std::make_unique<Stmt>(StmtKind::While, p);
      eat(Tok::KwWhile);
      eat(Tok::LParen);
      s->exprs.push_back(parseExpr());
      eat(Tok::RParen);
      s->stmts.push_back(parseStmt());
      return s;
    }
    case Tok::KwFor: {
      auto s = std::make_unique<Stmt>(StmtKind::For, p);
      eat(Tok::KwFor);
      eat(Tok::LParen);
      // init: declaration, expression or empty
      if (cur().kind == Tok::Semi) {
        s->stmts.push_back(nullptr);
        eat(Tok::Semi);
      } else if (atTypeKeyword()) {
        s->stmts.push_back(parseDeclStmt());
      } else {
        auto es = std::make_unique<Stmt>(StmtKind::ExprStmt, here());
        es->exprs.push_back(parseExpr());
        s->stmts.push_back(std::move(es));
        eat(Tok::Semi);
      }
      // cond
      if (cur().kind == Tok::Semi) {
        s->exprs.push_back(nullptr);
      } else {
        s->exprs.push_back(parseExpr());
      }
      eat(Tok::Semi);
      // step
      if (cur().kind == Tok::RParen) {
        s->exprs.push_back(nullptr);
      } else {
        s->exprs.push_back(parseExpr());
      }
      eat(Tok::RParen);
      s->stmts.push_back(parseStmt()); // body is stmts[1]
      return s;
    }
    case Tok::KwReturn: {
      auto s = std::make_unique<Stmt>(StmtKind::Return, p);
      eat(Tok::KwReturn);
      if (cur().kind != Tok::Semi) s->exprs.push_back(parseExpr());
      eat(Tok::Semi);
      return s;
    }
    case Tok::KwBreak: {
      eat(Tok::KwBreak);
      eat(Tok::Semi);
      return std::make_unique<Stmt>(StmtKind::Break, p);
    }
    case Tok::KwContinue: {
      eat(Tok::KwContinue);
      eat(Tok::Semi);
      return std::make_unique<Stmt>(StmtKind::Continue, p);
    }
    case Tok::KwAssert: {
      auto s = std::make_unique<Stmt>(StmtKind::Assert, p);
      eat(Tok::KwAssert);
      eat(Tok::LParen);
      s->exprs.push_back(parseExpr());
      eat(Tok::RParen);
      eat(Tok::Semi);
      return s;
    }
    default:
      if (atTypeKeyword()) return parseDeclStmt();
      auto s = std::make_unique<Stmt>(StmtKind::ExprStmt, p);
      s->exprs.push_back(parseExpr());
      eat(Tok::Semi);
      return s;
    }
  }

  std::unique_ptr<Stmt> parseDeclStmt() {
    auto s = std::make_unique<Stmt>(StmtKind::Decl, here());
    s->declType = parseType();
    s->declName = eat(Tok::Ident).text;
    if (accept(Tok::LBracket)) {
      s->arraySize = eat(Tok::IntLit).intVal;
      if (s->arraySize <= 0) error("array size must be positive");
      eat(Tok::RBracket);
    } else if (accept(Tok::Assign)) {
      s->exprs.push_back(parseExpr());
    }
    eat(Tok::Semi);
    return s;
  }

  // --- expressions (precedence climbing) ----------------------------------

  std::unique_ptr<Expr> parseExpr() { return parseAssign(); }

  std::unique_ptr<Expr> parseAssign() {
    auto lhs = parseTernary();
    if (cur().kind == Tok::Assign) {
      const Pos p = here();
      eat(Tok::Assign);
      if (lhs->kind != ExprKind::VarRef && lhs->kind != ExprKind::Index)
        raise("parse error at " + std::to_string(p.line) + ":" +
              std::to_string(p.col) + ": assignment target must be a " +
              "variable or array element");
      auto e = std::make_unique<Expr>(ExprKind::Assign, p);
      e->kids.push_back(std::move(lhs));
      e->kids.push_back(parseAssign());
      return e;
    }
    return lhs;
  }

  std::unique_ptr<Expr> parseTernary() {
    auto cond = parseBinary(0);
    if (cur().kind != Tok::Question) return cond;
    const Pos p = here();
    eat(Tok::Question);
    auto e = std::make_unique<Expr>(ExprKind::Ternary, p);
    e->kids.push_back(std::move(cond));
    e->kids.push_back(parseAssign());
    eat(Tok::Colon);
    e->kids.push_back(parseAssign());
    return e;
  }

  /// Precedence climbing: every level is left-associative and each node
  /// sits at its operator token.
  std::unique_ptr<Expr> parseBinary(int minLevel) {
    auto lhs = parseUnary();
    for (;;) {
      const BinOpInfo* info = binOpInfo(cur().kind);
      if (!info || info->level < minLevel) return lhs;
      auto e = std::make_unique<Expr>(ExprKind::Binary, here());
      ++pos_;
      e->binOp = info->op;
      e->kids.push_back(std::move(lhs));
      e->kids.push_back(parseBinary(info->level + 1));
      lhs = std::move(e);
    }
  }

  std::unique_ptr<Expr> parseUnary() {
    const Pos p = here();
    if (accept(Tok::Minus)) {
      auto e = std::make_unique<Expr>(ExprKind::Unary, p);
      e->unOp = UnOp::Neg;
      e->kids.push_back(parseUnary());
      return e;
    }
    if (accept(Tok::Not)) {
      auto e = std::make_unique<Expr>(ExprKind::Unary, p);
      e->unOp = UnOp::Not;
      e->kids.push_back(parseUnary());
      return e;
    }
    // cast: "(" type ")" unary  — lookahead for a type keyword after '('.
    if (cur().kind == Tok::LParen) {
      const Tok after = peek().kind;
      if (after == Tok::KwInt || after == Tok::KwLong ||
          after == Tok::KwFloat || after == Tok::KwDouble) {
        eat(Tok::LParen);
        auto e = std::make_unique<Expr>(ExprKind::Cast, p);
        e->castType = parseType();
        eat(Tok::RParen);
        e->kids.push_back(parseUnary());
        return e;
      }
    }
    return parsePostfix();
  }

  std::unique_ptr<Expr> parsePostfix() {
    auto e = parsePrimary();
    while (cur().kind == Tok::LBracket) {
      const Pos p = here();
      eat(Tok::LBracket);
      auto idx = std::make_unique<Expr>(ExprKind::Index, p);
      idx->kids.push_back(std::move(e));
      idx->kids.push_back(parseExpr());
      eat(Tok::RBracket);
      e = std::move(idx);
    }
    return e;
  }

  std::unique_ptr<Expr> parsePrimary() {
    const Pos p = here();
    switch (cur().kind) {
    case Tok::IntLit: {
      auto e = std::make_unique<Expr>(ExprKind::IntLit, p);
      e->intVal = eat(Tok::IntLit).intVal;
      return e;
    }
    case Tok::FloatLit: {
      auto e = std::make_unique<Expr>(ExprKind::FloatLit, p);
      e->floatVal = eat(Tok::FloatLit).floatVal;
      return e;
    }
    case Tok::Ident: {
      const std::string name = eat(Tok::Ident).text;
      if (cur().kind == Tok::LParen) {
        auto e = std::make_unique<Expr>(ExprKind::Call, p);
        e->name = name;
        eat(Tok::LParen);
        if (cur().kind != Tok::RParen) {
          do {
            e->kids.push_back(parseExpr());
          } while (accept(Tok::Comma));
        }
        eat(Tok::RParen);
        return e;
      }
      auto e = std::make_unique<Expr>(ExprKind::VarRef, p);
      e->name = name;
      return e;
    }
    case Tok::LParen: {
      eat(Tok::LParen);
      auto e = parseExpr();
      eat(Tok::RParen);
      return e;
    }
    default:
      error("expected expression");
    }
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
};

} // namespace

TranslationUnit parse(const std::string& source) {
  return Parser(tokenize(source)).run();
}

} // namespace care::lang
