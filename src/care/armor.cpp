#include "care/armor.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "analysis/liveness.hpp"
#include "analysis/loopinfo.hpp"
#include "analysis/slice.hpp"
#include "ir/irbuilder.hpp"
#include "ir/names.hpp"
#include "support/error.hpp"

namespace care::core {

using analysis::Liveness;
using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Module;
using ir::Opcode;
using ir::Value;

namespace {

using analysis::isSimpleCallInst;

class ArmorPass {
public:
  ArmorPass(Module& app, const ArmorOptions& opts)
      : app_(app), opts_(opts),
        kernels_(std::make_unique<Module>(app.name() + ".recovery")) {}

  ArmorResult run() {
    ir::uniquifyNames(app_);
    for (Function* f : app_) {
      if (f->isDeclaration()) continue;
      processFunction(*f);
    }
    ArmorResult res;
    res.kernelModule = std::move(kernels_);
    res.table = std::move(table_);
    res.stats = stats_;
    return res;
  }

private:
  // ------------------------------------------------------------------
  // Slicing (paper Fig. 5) — shared with the Sentinel ADDR detector via
  // analysis::extractAddressSlice; Armor's configuration keeps the
  // Terminal Value liveness rule and load expansion.
  // ------------------------------------------------------------------

  using Slice = analysis::AddressSlice;

  Slice extract(const Instruction* memInst, const Liveness& live) const {
    analysis::SliceOptions so;
    so.requireNonLocalUse = opts_.requireNonLocalUse;
    so.maximal = opts_.maximalSlicing;
    so.expandLoads = true;
    return analysis::extractAddressSlice(memInst, live, so);
  }

  // ------------------------------------------------------------------
  // Kernel construction
  // ------------------------------------------------------------------

  /// A value from outside a cloned body, in the kernel module: constants
  /// are re-created there, callees cloned, and everything else comes from
  /// `args` (the kernel's parameters, or a cloned callee's arguments).
  Value* kernelValue(const Value* v,
                     const std::map<const Value*, Value*>& args) {
    if (const auto* ci = dynamic_cast<const ir::ConstantInt*>(v))
      return kernels_->constInt(ci->type(), ci->value());
    if (const auto* cf = dynamic_cast<const ir::ConstantFP*>(v))
      return kernels_->constFP(cf->type(), cf->value());
    if (const auto* f = dynamic_cast<const Function*>(v)) return cloneCallee(f);
    auto it = args.find(v);
    CARE_ASSERT(it != args.end(),
                "kernel clone: unmapped value (global in a simple callee?)");
    return it->second;
  }

  /// Clone a "simple" callee (and transitively its simple callees) into the
  /// kernel module so kernels can call it (the paper links kernel libraries
  /// against the objects providing such helpers).
  Function* cloneCallee(const Function* f) {
    auto it = clonedFns_.find(f);
    if (it != clonedFns_.end()) return it->second;
    if (f->isIntrinsic()) {
      Function* decl = kernels_->intrinsic(f->name());
      clonedFns_[f] = decl;
      return decl;
    }
    std::vector<ir::Type*> params;
    for (unsigned i = 0; i < f->numArgs(); ++i)
      params.push_back(f->arg(i)->type());
    Function* nf =
        kernels_->addFunction(f->name(), f->returnType(), std::move(params));
    nf->setSimpleCall(true);
    clonedFns_[f] = nf;
    std::map<const Value*, Value*> args;
    for (unsigned i = 0; i < f->numArgs(); ++i) {
      nf->setArgName(i, f->arg(i)->name());
      args[f->arg(i)] = nf->arg(i);
    }
    ir::cloneBody(*f, *nf, "",
                  [&](const Value* v) { return kernelValue(v, args); });
    return nf;
  }

  void buildKernel(const Instruction* memInst, const Slice& slice) {
    const std::string symbol = "care_k" + std::to_string(kernelCounter_++);
    std::vector<ir::Type*> paramTypes;
    for (const Value* p : slice.params) paramTypes.push_back(p->type());
    Function* kf = kernels_->addFunction(
        symbol, memInst->pointerOperand()->type(), std::move(paramTypes));
    ir::IRBuilder b(kernels_.get());
    b.setInsertPoint(kf->addBlock("entry"));

    // Parameters map to the kernel's arguments, statements to their clones.
    std::map<const Value*, Value*> vmap;
    for (unsigned i = 0; i < slice.params.size(); ++i) {
      kf->setArgName(i, slice.params[i]->name());
      vmap[slice.params[i]] = kf->arg(i);
    }
    for (const Instruction* in : slice.stmts) {
      Instruction* ni = b.clone(*in, in->name());
      ni->setDebugLoc({}); // kernels carry no source locations
      if (in->callee()) ni->setCallee(cloneCallee(in->callee()));
      for (unsigned i = 0; i < in->numOperands(); ++i)
        ni->addOperand(kernelValue(in->operand(i), vmap));
      vmap[in] = ni;
    }
    b.ret(kernelValue(memInst->pointerOperand(), vmap));

    stats_.kernelsBuilt++;
    stats_.kernelInstrs += slice.stmts.size();

    // Recovery-table entry.
    RecoveryEntry entry;
    entry.symbol = symbol;
    for (const Value* p : slice.params) {
      ParamDesc pd;
      pd.name = p->name();
      pd.type = p->type();
      pd.isGlobal = p->kind() == ir::ValueKind::GlobalVariable;
      if (opts_.inductionRecovery) attachIvAlt(p, pd);
      entry.params.push_back(std::move(pd));
    }
    const ir::DebugLoc& loc = memInst->debugLoc();
    table_.add(recoveryKey(app_.fileName(loc.file), loc.line, loc.col),
               std::move(entry));
  }

  // ------------------------------------------------------------------
  // Fig. 11: induction-variable equivalences
  // ------------------------------------------------------------------

  /// A "simple" induction phi: header phi with a constant init from the
  /// preheader edge and a phi±constant update along the back edge.
  struct SimpleIv {
    std::int64_t init = 0;
    std::int64_t step = 0;
    const BasicBlock* header = nullptr;
  };

  static std::optional<SimpleIv> classifyIv(const Instruction* phi) {
    if (phi->opcode() != Opcode::Phi || !phi->type()->isInteger())
      return std::nullopt;
    if (phi->numPhiIncoming() != 2) return std::nullopt;
    SimpleIv iv;
    iv.header = phi->parent();
    bool haveInit = false, haveStep = false;
    for (unsigned i = 0; i < 2; ++i) {
      const Value* in = phi->operand(i);
      if (const auto* c = dynamic_cast<const ir::ConstantInt*>(in)) {
        iv.init = c->value();
        haveInit = true;
        continue;
      }
      const auto* upd = dynamic_cast<const Instruction*>(in);
      if (!upd) return std::nullopt;
      if (upd->opcode() == Opcode::Add || upd->opcode() == Opcode::Sub) {
        const auto* c = dynamic_cast<const ir::ConstantInt*>(upd->operand(1));
        if (c && upd->operand(0) == phi) {
          iv.step = upd->opcode() == Opcode::Add ? c->value() : -c->value();
          haveStep = true;
          continue;
        }
        const auto* c0 =
            dynamic_cast<const ir::ConstantInt*>(upd->operand(0));
        if (c0 && upd->opcode() == Opcode::Add && upd->operand(1) == phi) {
          iv.step = c0->value();
          haveStep = true;
          continue;
        }
      }
      return std::nullopt;
    }
    if (!haveInit || !haveStep || iv.step == 0) return std::nullopt;
    return iv;
  }

  /// If `p` is a simple induction phi with a distinct lock-step peer in the
  /// same loop header, record the affine equivalence on `pd`.
  void attachIvAlt(const Value* p, ParamDesc& pd) const {
    const auto* phi = dynamic_cast<const Instruction*>(p);
    if (!phi) return;
    const auto self = classifyIv(phi);
    if (!self) return;
    for (const Instruction* cand : *self->header) {
      if (cand == phi) continue;
      if (cand->opcode() != Opcode::Phi) break;
      const auto peer = classifyIv(cand);
      if (!peer) continue;
      pd.hasIvAlt = true;
      pd.ivAlt.peerName = cand->name();
      pd.ivAlt.selfInit = self->init;
      pd.ivAlt.selfStep = self->step;
      pd.ivAlt.peerInit = peer->init;
      pd.ivAlt.peerStep = peer->step;
      return;
    }
  }

  // ------------------------------------------------------------------
  // Debug-tuple uniqueness (the paper's key-conflict resolution)
  // ------------------------------------------------------------------

  void ensureUniqueLoc(Instruction* memInst) {
    ir::DebugLoc loc = memInst->debugLoc();
    if (!loc.valid()) {
      // "Fake debug data": synthesize a unique location.
      loc.file = app_.internFile("<armor>");
      loc.line = nextFakeLine_++;
      loc.col = 1;
    }
    auto tuple = [&](const ir::DebugLoc& l) {
      return app_.fileName(l.file) + ":" + std::to_string(l.line) + ":" +
             std::to_string(l.col);
    };
    while (usedTuples_.count(tuple(loc))) loc.col += 1000; // disambiguate
    usedTuples_.insert(tuple(loc));
    memInst->setDebugLoc(loc);
  }

  // ------------------------------------------------------------------

  /// Table 5's operation count of an address calculation: the statements
  /// of its maximal slice, loads expanded.
  std::size_t countAddrOps(const Instruction* memInst,
                           const Liveness& live) const {
    analysis::SliceOptions so;
    so.maximal = true;
    std::size_t ops = 0;
    for (const Instruction* in :
         analysis::extractAddressSlice(memInst, live, so).stmts) {
      if (in->isBinaryOp() || isSimpleCallInst(in)) ++ops;
      // A gep with a variable index is a scale-multiply plus a base-add at
      // machine level (the paper counts address *operations*, e.g. Fig. 2's
      // "3 or 4 additions, 1 subtraction, and 1 multiplication").
      if (in->opcode() == Opcode::Gep)
        ops += dynamic_cast<const ir::ConstantInt*>(in->operand(1)) ? 1 : 2;
    }
    return ops;
  }

  void processFunction(Function& f) {
    Liveness live(f);
    // Snapshot the access list first: buildKernel doesn't mutate code, but
    // ensureUniqueLoc rewrites debug locs in place.
    std::vector<Instruction*> accesses;
    for (BasicBlock* bb : f)
      for (Instruction* in : *bb)
        if (in->isMemAccess()) accesses.push_back(in);

    for (Instruction* memInst : accesses) {
      stats_.memAccesses++;
      const std::size_t ops = countAddrOps(memInst, live);
      if (ops > 1) {
        stats_.multiOpAccesses++;
        stats_.totalAddrOps += ops;
      }
      const Value* ptr = memInst->pointerOperand();
      // Paper: accesses straight to an alloca or global involve no address
      // computation — no kernel.
      if (ptr->kind() == ir::ValueKind::GlobalVariable) continue;
      if (const auto* pi = dynamic_cast<const Instruction*>(ptr);
          pi && pi->opcode() == Opcode::Alloca)
        continue;
      ensureUniqueLoc(memInst);
      Slice slice = extract(memInst, live);
      buildKernel(memInst, slice);
    }
  }

  Module& app_;
  ArmorOptions opts_;
  std::unique_ptr<Module> kernels_;
  RecoveryTable table_;
  ArmorStats stats_;
  std::map<const Function*, Function*> clonedFns_;
  std::set<std::string> usedTuples_;
  std::size_t kernelCounter_ = 0;
  std::uint32_t nextFakeLine_ = 1000000;
};

} // namespace

ArmorResult runArmor(Module& app, const ArmorOptions& opts) {
  return ArmorPass(app, opts).run();
}

} // namespace care::core
