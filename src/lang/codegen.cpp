#include <map>
#include <set>
#include <vector>

#include "ir/irbuilder.hpp"
#include "ir/scalar.hpp"
#include "lang/compile.hpp"
#include "lang/parser.hpp"
#include "support/error.hpp"

namespace care::lang {
namespace {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::IRBuilder;
using ir::Module;
using ir::Opcode;
using ir::Type;
using ir::Value;

Type* lowerScalar(BaseType b) {
  switch (b) {
  case BaseType::Void: return Type::voidTy();
  case BaseType::Int: return Type::i32();
  case BaseType::Long: return Type::i64();
  case BaseType::Float: return Type::f32();
  case BaseType::Double: return Type::f64();
  }
  CARE_UNREACHABLE("bad base type");
}

Type* lowerType(const CType& t) {
  Type* ty = lowerScalar(t.base);
  for (unsigned i = 0; i < t.ptrDepth; ++i) ty = Type::ptrTo(ty);
  return ty;
}

class Codegen {
public:
  Codegen(Module& mod, std::uint32_t fileId)
      : mod_(mod), builder_(&mod), fileId_(fileId) {}

  void run(const TranslationUnit& tu) {
    declareRuntime();
    for (const GlobalDecl& g : tu.globals) genGlobal(g);
    // Two passes over functions: declare signatures first so any order of
    // definition (and mutual recursion) works.
    for (const FuncDecl& f : tu.funcs) declareFunction(f);
    for (const FuncDecl& f : tu.funcs)
      if (f.body) genFunction(f);
    markSimpleFunctions(mod_);
  }

private:
  struct Local {
    Value* addr = nullptr; // alloca or global (pointer-typed)
    Type* valueType = nullptr;
    bool isArray = false;  // arrays decay: VarRef yields addr itself
  };

  [[noreturn]] void err(Pos p, const std::string& msg) {
    raise("type error at " + std::to_string(p.line) + ":" +
          std::to_string(p.col) + ": " + msg);
  }

  void setLoc(Pos p) { builder_.setDebugLoc({fileId_, p.line, p.col}); }

  /// The services MiniC programs call; Sentinel adds its trap later.
  void declareRuntime() {
    for (ir::RuntimeFn fn : {ir::RuntimeFn::Emit, ir::RuntimeFn::EmitI,
                             ir::RuntimeFn::Abort, ir::RuntimeFn::Barrier})
      mod_.runtime(fn);
  }

  void genGlobal(const GlobalDecl& g) {
    if (g.type.isPointer()) err(g.pos, "global pointers are not supported");
    Type* elem = lowerScalar(g.type.base);
    if (elem->isVoid()) err(g.pos, "void global");
    const std::uint64_t count =
        g.arraySize > 0 ? static_cast<std::uint64_t>(g.arraySize) : 1;
    ir::GlobalVariable* gv = mod_.addGlobal(elem, count, g.name);
    gv->setIsArray(g.arraySize > 0);
    if (g.init) {
      double v = 0;
      if (g.init->kind == ExprKind::IntLit) {
        v = static_cast<double>(g.init->intVal);
      } else if (g.init->kind == ExprKind::FloatLit) {
        v = g.init->floatVal;
      } else if (g.init->kind == ExprKind::Unary &&
                 g.init->unOp == UnOp::Neg &&
                 g.init->kids[0]->kind == ExprKind::IntLit) {
        v = -static_cast<double>(g.init->kids[0]->intVal);
      } else if (g.init->kind == ExprKind::Unary &&
                 g.init->unOp == UnOp::Neg &&
                 g.init->kids[0]->kind == ExprKind::FloatLit) {
        v = -g.init->kids[0]->floatVal;
      } else {
        err(g.pos, "global initializer must be a literal");
      }
      gv->setInit({v});
    }
    globals_[g.name] = gv;
  }

  void declareFunction(const FuncDecl& fd) {
    // The backend lowers calls to a runtime service to a MIR op and never
    // lowers a body for one.
    if (fd.body && ir::runtimeFnByName(fd.name))
      err(fd.pos, fd.name + " is a runtime service and cannot be defined");
    if (Function* existing = mod_.findFunction(fd.name)) {
      // Defining a previously forward-declared function is fine (the body
      // is attached by genFunction); an actual second body is not.
      if (fd.body && definedNames_.count(fd.name))
        err(fd.pos, "redefinition of " + fd.name);
      // Signature must agree with the earlier declaration.
      bool matches = existing->returnType() == lowerType(fd.retType) &&
                     existing->numArgs() == fd.params.size();
      for (unsigned i = 0; matches && i < fd.params.size(); ++i)
        matches = existing->arg(i)->type() == lowerType(fd.params[i].type);
      if (!matches)
        err(fd.pos, "conflicting declaration of " + fd.name);
      if (fd.body) definedNames_.insert(fd.name);
      return;
    }
    if (fd.body) definedNames_.insert(fd.name);
    std::vector<Type*> params;
    params.reserve(fd.params.size());
    for (const Param& p : fd.params) params.push_back(lowerType(p.type));
    Function* f =
        mod_.addFunction(fd.name, lowerType(fd.retType), std::move(params));
    for (unsigned i = 0; i < fd.params.size(); ++i)
      f->setArgName(i, fd.params[i].name);
  }

  void genFunction(const FuncDecl& fd) {
    Function* f = mod_.findFunction(fd.name);
    CARE_ASSERT(f, "function not declared");
    fn_ = f;
    BasicBlock* entry = f->addBlock("entry");
    builder_.setInsertPoint(entry);
    scopes_.clear();
    scopes_.emplace_back();
    breakTargets_.clear();
    continueTargets_.clear();

    // clang -O0 style: spill every parameter to a stack slot.
    setLoc(fd.pos);
    for (unsigned i = 0; i < f->numArgs(); ++i) {
      ir::Argument* a = f->arg(i);
      Instruction* slot = builder_.alloca_(a->type(), 1, a->name() + ".addr");
      builder_.store(a, slot);
      scopes_.back()[a->name()] = Local{slot, a->type(), false};
    }

    genStmt(*fd.body);

    // Fall-off-the-end: synthesize a return.
    if (!builder_.insertBlock()->terminator()) {
      if (f->returnType()->isVoid())
        builder_.ret();
      else
        builder_.ret(zeroOf(f->returnType()));
    }
    fn_ = nullptr;
  }

  // --- helpers ------------------------------------------------------------

  Value* zeroOf(Type* t) {
    if (t->isFloat()) return mod_.constFP(t, 0.0);
    if (t->isInteger()) return mod_.constInt(t, 0);
    CARE_UNREACHABLE("zero of pointer/void");
  }

  Local* lookup(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto f = it->find(name);
      if (f != it->end()) return &f->second;
    }
    return nullptr;
  }

  /// Convert `v` to type `to` with the usual C rules.
  Value* convert(Value* v, Type* to, Pos p) {
    Type* from = v->type();
    if (from == to) return v;
    if (from->isBool() && to->isInteger())
      return builder_.cast(Opcode::Zext, v, to);
    if (from->isBool() && to->isFloat()) {
      Value* i = builder_.cast(Opcode::Zext, v, Type::i32());
      return builder_.cast(Opcode::SIToFP, i, to);
    }
    if (from->isInteger() && to->isInteger()) {
      return builder_.cast(from->sizeBytes() < to->sizeBytes() ? Opcode::Sext
                                                               : Opcode::Trunc,
                           v, to);
    }
    if (from->isInteger() && to->isFloat())
      return builder_.cast(Opcode::SIToFP, v, to);
    if (from->isFloat() && to->isInteger())
      return builder_.cast(Opcode::FPToSI, v, to);
    if (from->isFloat() && to->isFloat())
      return builder_.cast(from->sizeBytes() < to->sizeBytes()
                               ? Opcode::FPExt
                               : Opcode::FPTrunc,
                           v, to);
    err(p, "cannot convert " + from->str() + " to " + to->str());
  }

  /// Usual arithmetic conversions: pick the common type of two operands.
  Type* commonType(Type* a, Type* b) {
    auto rank = [](Type* t) {
      if (t == Type::f64()) return 5;
      if (t == Type::f32()) return 4;
      if (t == Type::i64()) return 3;
      if (t == Type::i32()) return 2;
      return 1; // i1
    };
    Type* hi = rank(a) >= rank(b) ? a : b;
    return hi->isBool() ? Type::i32() : hi;
  }

  /// Coerce to i1 for use as a branch condition.
  Value* toBool(Value* v, Pos p) {
    if (v->type()->isBool()) return v;
    if (v->type()->isInteger())
      return builder_.icmp(ir::CmpPred::NE, v, zeroOf(v->type()));
    if (v->type()->isFloat())
      return builder_.fcmp(ir::CmpPred::NE, v, zeroOf(v->type()));
    if (v->type()->isPointer())
      err(p, "pointer used as condition");
    err(p, "bad condition type");
  }

  // --- statements -----------------------------------------------------------

  void genStmt(const Stmt& s) {
    setLoc(s.pos);
    switch (s.kind) {
    case StmtKind::Block: {
      scopes_.emplace_back();
      for (const auto& sub : s.stmts) genStmt(*sub);
      scopes_.pop_back();
      return;
    }
    case StmtKind::ExprStmt:
      genExpr(*s.exprs[0]);
      return;
    case StmtKind::Decl:
      genDecl(s);
      return;
    case StmtKind::If: {
      Value* cond = toBool(genExpr(*s.exprs[0]), s.pos);
      BasicBlock* thenBB = fn_->addBlock("if.then");
      BasicBlock* endBB = fn_->addBlock("if.end");
      BasicBlock* elseBB =
          s.stmts.size() > 1 ? fn_->addBlock("if.else") : endBB;
      builder_.condBr(cond, thenBB, elseBB);
      builder_.setInsertPoint(thenBB);
      genStmt(*s.stmts[0]);
      if (!builder_.insertBlock()->terminator()) builder_.br(endBB);
      if (s.stmts.size() > 1) {
        builder_.setInsertPoint(elseBB);
        genStmt(*s.stmts[1]);
        if (!builder_.insertBlock()->terminator()) builder_.br(endBB);
      }
      builder_.setInsertPoint(endBB);
      return;
    }
    case StmtKind::While: {
      BasicBlock* condBB = fn_->addBlock("while.cond");
      BasicBlock* bodyBB = fn_->addBlock("while.body");
      BasicBlock* endBB = fn_->addBlock("while.end");
      builder_.br(condBB);
      builder_.setInsertPoint(condBB);
      Value* cond = toBool(genExpr(*s.exprs[0]), s.pos);
      builder_.condBr(cond, bodyBB, endBB);
      builder_.setInsertPoint(bodyBB);
      breakTargets_.push_back(endBB);
      continueTargets_.push_back(condBB);
      genStmt(*s.stmts[0]);
      breakTargets_.pop_back();
      continueTargets_.pop_back();
      if (!builder_.insertBlock()->terminator()) builder_.br(condBB);
      builder_.setInsertPoint(endBB);
      return;
    }
    case StmtKind::For: {
      scopes_.emplace_back(); // scope for the init declaration
      if (s.stmts[0]) genStmt(*s.stmts[0]);
      BasicBlock* condBB = fn_->addBlock("for.cond");
      BasicBlock* bodyBB = fn_->addBlock("for.body");
      BasicBlock* stepBB = fn_->addBlock("for.step");
      BasicBlock* endBB = fn_->addBlock("for.end");
      builder_.br(condBB);
      builder_.setInsertPoint(condBB);
      if (s.exprs[0]) {
        Value* cond = toBool(genExpr(*s.exprs[0]), s.pos);
        builder_.condBr(cond, bodyBB, endBB);
      } else {
        builder_.br(bodyBB);
      }
      builder_.setInsertPoint(bodyBB);
      breakTargets_.push_back(endBB);
      continueTargets_.push_back(stepBB);
      genStmt(*s.stmts[1]);
      breakTargets_.pop_back();
      continueTargets_.pop_back();
      if (!builder_.insertBlock()->terminator()) builder_.br(stepBB);
      builder_.setInsertPoint(stepBB);
      if (s.exprs[1]) genExpr(*s.exprs[1]);
      builder_.br(condBB);
      builder_.setInsertPoint(endBB);
      scopes_.pop_back();
      return;
    }
    case StmtKind::Return: {
      if (s.exprs.empty()) {
        if (!fn_->returnType()->isVoid())
          err(s.pos, "return without value in non-void function");
        builder_.ret();
      } else {
        Value* v = genExpr(*s.exprs[0]);
        builder_.ret(convert(v, fn_->returnType(), s.pos));
      }
      startDeadBlock();
      return;
    }
    case StmtKind::Break: {
      if (breakTargets_.empty()) err(s.pos, "break outside loop");
      builder_.br(breakTargets_.back());
      startDeadBlock();
      return;
    }
    case StmtKind::Continue: {
      if (continueTargets_.empty()) err(s.pos, "continue outside loop");
      builder_.br(continueTargets_.back());
      startDeadBlock();
      return;
    }
    case StmtKind::Assert: {
      Value* cond = toBool(genExpr(*s.exprs[0]), s.pos);
      BasicBlock* okBB = fn_->addBlock("assert.ok");
      BasicBlock* failBB = fn_->addBlock("assert.fail");
      builder_.condBr(cond, okBB, failBB);
      builder_.setInsertPoint(failBB);
      builder_.call(mod_.runtime(ir::RuntimeFn::Abort), {});
      // __abort never returns; still terminate the block for the verifier.
      if (fn_->returnType()->isVoid())
        builder_.ret();
      else
        builder_.ret(zeroOf(fn_->returnType()));
      builder_.setInsertPoint(okBB);
      return;
    }
    }
    CARE_UNREACHABLE("bad stmt kind");
  }

  /// After an unconditional transfer, keep emitting into a fresh block that
  /// is unreachable (simplifycfg removes it at O1; the VM never enters it).
  void startDeadBlock() {
    builder_.setInsertPoint(fn_->addBlock("dead"));
  }

  void genDecl(const Stmt& s) {
    Type* ty = lowerType(s.declType);
    if (ty->isVoid()) err(s.pos, "void variable");
    if (lookup(s.declName) && scopes_.back().count(s.declName))
      err(s.pos, "redeclaration of " + s.declName);
    if (s.arraySize > 0) {
      Instruction* slot = builder_.alloca_(
          ty, static_cast<std::uint64_t>(s.arraySize), s.declName);
      scopes_.back()[s.declName] = Local{slot, ty, true};
      return;
    }
    Instruction* slot = builder_.alloca_(ty, 1, s.declName);
    scopes_.back()[s.declName] = Local{slot, ty, false};
    if (!s.exprs.empty()) {
      Value* v = genExpr(*s.exprs[0]);
      setLoc(s.pos);
      builder_.store(convert(v, ty, s.pos), slot);
    }
  }

  // --- expressions ----------------------------------------------------------

  /// Address of an lvalue (VarRef or Index); returns pointer-typed value.
  Value* genAddr(const Expr& e) {
    setLoc(e.pos);
    switch (e.kind) {
    case ExprKind::VarRef: {
      if (Local* l = lookup(e.name)) {
        if (l->isArray) err(e.pos, "cannot assign to array " + e.name);
        return l->addr;
      }
      auto g = globals_.find(e.name);
      if (g != globals_.end()) {
        if (g->second->isArray())
          err(e.pos, "cannot assign to array " + e.name);
        return g->second;
      }
      err(e.pos, "undeclared variable " + e.name);
    }
    case ExprKind::Index: {
      Value* base = genExpr(*e.kids[0]); // pointer (array decays)
      if (!base->type()->isPointer()) err(e.pos, "indexing a non-pointer");
      Value* idx = genExpr(*e.kids[1]);
      if (!idx->type()->isInteger()) err(e.pos, "non-integer index");
      setLoc(e.pos);
      idx = convert(idx, Type::i64(), e.pos);
      return builder_.gep(base, idx);
    }
    default:
      err(e.pos, "expression is not assignable");
    }
  }

  Value* genExpr(const Expr& e) {
    setLoc(e.pos);
    switch (e.kind) {
    case ExprKind::IntLit:
      // Literals default to `int` unless they need 64 bits.
      if (e.intVal >= INT32_MIN && e.intVal <= INT32_MAX)
        return mod_.constI32(static_cast<std::int32_t>(e.intVal));
      return mod_.constI64(e.intVal);
    case ExprKind::FloatLit:
      return mod_.constF64(e.floatVal);
    case ExprKind::VarRef: {
      if (Local* l = lookup(e.name)) {
        if (l->isArray) return l->addr; // decay to pointer
        return builder_.load(l->addr, e.name);
      }
      auto g = globals_.find(e.name);
      if (g != globals_.end()) {
        if (g->second->isArray()) return g->second; // array decay
        return builder_.load(g->second, e.name);
      }
      err(e.pos, "undeclared variable " + e.name);
    }
    case ExprKind::Index: {
      Value* addr = genAddr(e);
      setLoc(e.pos);
      return builder_.load(addr);
    }
    case ExprKind::Assign: {
      Value* v = genExpr(*e.kids[1]);
      Value* addr = genAddr(*e.kids[0]);
      setLoc(e.pos);
      Value* conv = convert(v, addr->type()->pointee(), e.pos);
      builder_.store(conv, addr);
      return conv;
    }
    case ExprKind::Unary: {
      Value* v = genExpr(*e.kids[0]);
      setLoc(e.pos);
      if (e.unOp == UnOp::Neg) {
        if (v->type()->isBool()) v = convert(v, Type::i32(), e.pos);
        if (v->type()->isFloat())
          return builder_.fsub(zeroOf(v->type()), v);
        if (v->type()->isInteger())
          return builder_.sub(zeroOf(v->type()), v);
        err(e.pos, "cannot negate this type");
      }
      // Logical not: (v == 0)
      Value* b = toBool(v, e.pos);
      return builder_.icmp(ir::CmpPred::EQ, b, mod_.constBool(false));
    }
    case ExprKind::Binary:
      return genBinary(e);
    case ExprKind::Ternary: {
      Value* cond = toBool(genExpr(*e.kids[0]), e.pos);
      BasicBlock* thenBB = fn_->addBlock("sel.then");
      BasicBlock* elseBB = fn_->addBlock("sel.else");
      BasicBlock* endBB = fn_->addBlock("sel.end");
      builder_.condBr(cond, thenBB, elseBB);
      builder_.setInsertPoint(thenBB);
      Value* tv = genExpr(*e.kids[1]);
      BasicBlock* thenOut = builder_.insertBlock();
      builder_.setInsertPoint(elseBB);
      Value* fv = genExpr(*e.kids[2]);
      BasicBlock* elseOut = builder_.insertBlock();
      Type* ct = commonType(tv->type(), fv->type());
      builder_.setInsertPoint(thenOut);
      tv = convert(tv, ct, e.pos);
      builder_.br(endBB);
      builder_.setInsertPoint(elseOut);
      fv = convert(fv, ct, e.pos);
      builder_.br(endBB);
      builder_.setInsertPoint(endBB);
      Instruction* phi = builder_.phi(ct);
      phi->addPhiIncoming(tv, thenOut);
      phi->addPhiIncoming(fv, elseOut);
      return phi;
    }
    case ExprKind::Cast: {
      Value* v = genExpr(*e.kids[0]);
      setLoc(e.pos);
      if (e.castType.isPointer()) err(e.pos, "pointer casts not supported");
      return convert(v, lowerScalar(e.castType.base), e.pos);
    }
    case ExprKind::Call:
      return genCall(e);
    }
    CARE_UNREACHABLE("bad expr kind");
  }

  Value* genBinary(const Expr& e) {
    // Short-circuit logicals get control flow, not data flow.
    if (e.binOp == BinOp::LAnd || e.binOp == BinOp::LOr) {
      const bool isAnd = e.binOp == BinOp::LAnd;
      Value* lhs = toBool(genExpr(*e.kids[0]), e.pos);
      BasicBlock* lhsOut = builder_.insertBlock();
      BasicBlock* rhsBB = fn_->addBlock(isAnd ? "land.rhs" : "lor.rhs");
      BasicBlock* endBB = fn_->addBlock(isAnd ? "land.end" : "lor.end");
      if (isAnd)
        builder_.condBr(lhs, rhsBB, endBB);
      else
        builder_.condBr(lhs, endBB, rhsBB);
      builder_.setInsertPoint(rhsBB);
      Value* rhs = toBool(genExpr(*e.kids[1]), e.pos);
      BasicBlock* rhsOut = builder_.insertBlock();
      builder_.br(endBB);
      builder_.setInsertPoint(endBB);
      Instruction* phi = builder_.phi(ir::Type::i1());
      phi->addPhiIncoming(mod_.constBool(!isAnd), lhsOut);
      phi->addPhiIncoming(rhs, rhsOut);
      return phi;
    }

    Value* a = genExpr(*e.kids[0]);
    Value* b = genExpr(*e.kids[1]);
    setLoc(e.pos);
    if (a->type()->isPointer() || b->type()->isPointer())
      err(e.pos, "pointer arithmetic is not supported; use indexing");
    Type* ct = commonType(a->type(), b->type());
    a = convert(a, ct, e.pos);
    b = convert(b, ct, e.pos);

    const bool fp = ct->isFloat();
    switch (e.binOp) {
    case BinOp::Add: return fp ? builder_.fadd(a, b) : builder_.add(a, b);
    case BinOp::Sub: return fp ? builder_.fsub(a, b) : builder_.sub(a, b);
    case BinOp::Mul: return fp ? builder_.fmul(a, b) : builder_.mul(a, b);
    case BinOp::Div: return fp ? builder_.fdiv(a, b) : builder_.sdiv(a, b);
    case BinOp::Rem:
      if (fp) err(e.pos, "% on floating point");
      return builder_.srem(a, b);
    case BinOp::Eq: return cmp(ir::CmpPred::EQ, a, b, fp);
    case BinOp::Ne: return cmp(ir::CmpPred::NE, a, b, fp);
    case BinOp::Lt: return cmp(ir::CmpPred::LT, a, b, fp);
    case BinOp::Le: return cmp(ir::CmpPred::LE, a, b, fp);
    case BinOp::Gt: return cmp(ir::CmpPred::GT, a, b, fp);
    case BinOp::Ge: return cmp(ir::CmpPred::GE, a, b, fp);
    default: CARE_UNREACHABLE("logical op handled above");
    }
  }

  Value* cmp(ir::CmpPred p, Value* a, Value* b, bool fp) {
    return fp ? builder_.fcmp(p, a, b) : builder_.icmp(p, a, b);
  }

  Value* genCall(const Expr& e) {
    Function* callee = nullptr;
    if (ir::isMathFn(e.name)) {
      callee = mod_.intrinsic(e.name);
    } else {
      callee = mod_.findFunction(e.name);
      if (!callee) err(e.pos, "call to undeclared function " + e.name);
    }
    if (callee->numArgs() != e.kids.size())
      err(e.pos, "wrong number of arguments to " + e.name);
    std::vector<Value*> args;
    args.reserve(e.kids.size());
    for (unsigned i = 0; i < e.kids.size(); ++i) {
      Value* v = genExpr(*e.kids[i]);
      setLoc(e.kids[i]->pos);
      Type* want = callee->arg(i)->type();
      if (want->isPointer()) {
        if (v->type() != want)
          err(e.pos, "pointer argument type mismatch in call to " + e.name);
        args.push_back(v);
      } else {
        args.push_back(convert(v, want, e.pos));
      }
    }
    setLoc(e.pos);
    return builder_.call(callee, args);
  }

  Module& mod_;
  IRBuilder builder_;
  std::uint32_t fileId_;
  Function* fn_ = nullptr;
  std::vector<std::map<std::string, Local>> scopes_;
  std::map<std::string, ir::GlobalVariable*> globals_;
  std::set<std::string> definedNames_;
  std::vector<BasicBlock*> breakTargets_;
  std::vector<BasicBlock*> continueTargets_;
};

} // namespace

void compileIntoModule(const std::string& source, const std::string& fileName,
                       ir::Module& mod) {
  TranslationUnit tu = parse(source);
  const std::uint32_t fileId = mod.internFile(fileName);
  Codegen(mod, fileId).run(tu);
}

void markSimpleFunctions(ir::Module& mod) {
  // Fixed point: start by assuming every defined function with only scalar
  // params and a non-void return is simple, then strike out any that stores
  // to non-local memory or calls a non-simple function.
  for (ir::Function* f : mod) {
    if (f->isIntrinsic()) continue;
    bool simple = !f->isDeclaration() && !f->returnType()->isVoid();
    for (unsigned i = 0; simple && i < f->numArgs(); ++i)
      if (f->arg(i)->type()->isPointer()) simple = false;
    f->setSimpleCall(simple);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (ir::Function* f : mod) {
      if (!f->isSimpleCall() || f->isIntrinsic() || f->isDeclaration())
        continue;
      bool simple = true;
      for (ir::BasicBlock* bb : *f) {
        for (ir::Instruction* in : *bb) {
          // Any reference to a global disqualifies: Armor clones simple
          // callees into the stand-alone recovery library, which cannot
          // alias the application's globals.
          for (unsigned oi = 0; oi < in->numOperands(); ++oi)
            if (in->operand(oi)->kind() == ir::ValueKind::GlobalVariable)
              simple = false;
          if (in->opcode() == ir::Opcode::Store) {
            // A store is local iff its pointer is based on an alloca.
            const auto* base = dynamic_cast<const ir::Instruction*>(
                ir::baseObject(in->pointerOperand()));
            if (!base || base->opcode() != ir::Opcode::Alloca) simple = false;
          } else if (in->opcode() == ir::Opcode::Call) {
            if (!in->callee()->isSimpleCall() && !in->callee()->isIntrinsic())
              simple = false;
          }
          if (!simple) break;
        }
        if (!simple) break;
      }
      if (!simple) {
        f->setSimpleCall(false);
        changed = true;
      }
    }
  }
}

} // namespace care::lang
