#include "sentinel/sentinel.hpp"

#include <map>
#include <set>

#include "analysis/liveness.hpp"
#include "analysis/loopinfo.hpp"
#include "analysis/slice.hpp"
#include "ir/irbuilder.hpp"
#include "ir/scalar.hpp"
#include "support/error.hpp"

namespace care::sentinel {

using ir::BasicBlock;
using ir::CmpPred;
using ir::Function;
using ir::Instruction;
using ir::Module;
using ir::Opcode;
using ir::Type;
using ir::Value;

DetectOptions parseDetect(const std::string& spec) {
  DetectOptions o;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    while (!tok.empty() && (tok.front() == ' ' || tok.front() == '\t'))
      tok.erase(tok.begin());
    while (!tok.empty() && (tok.back() == ' ' || tok.back() == '\t'))
      tok.pop_back();
    if (tok.empty() || tok == "none" || tok == "off") continue;
    if (tok == "cfc") o.cfc = true;
    else if (tok == "addr") o.addr = true;
    else if (tok == "all") o.cfc = o.addr = true;
    else raise("unknown detector '" + tok + "' (want cfc, addr, all, none)");
  }
  return o;
}

namespace {

/// Instruments one function: ADDR first (it only splits straight-line code
/// around accesses), then CFC over the resulting CFG (so the shadow-chain
/// blocks are signature-protected too). All new value and block names carry
/// a "sent." prefix, checked against the function's existing names so
/// Armor's recovery-table name linkage can never be clobbered.
class FunctionInstrumenter {
public:
  FunctionInstrumenter(Module& m, Function& f, const DetectOptions& opts,
                       const pareto::SampleConfig& sample, Function* trapFn)
      : m_(m), f_(f), opts_(opts), sample_(sample), trapFn_(trapFn) {}

  FunctionSentinelStats run() {
    stats_.function = f_.name();
    for (unsigned i = 0; i < f_.numArgs(); ++i)
      names_.insert(f_.arg(i)->name());
    for (BasicBlock* bb : f_) {
      names_.insert(bb->name());
      for (Instruction* in : *bb) names_.insert(in->name());
    }
    const std::size_t before = instrCount();
    if (opts_.addr) runAddr();
    if (opts_.cfc) runCfc();
    stats_.addedInstrs = instrCount() - before;
    return std::move(stats_);
  }

private:
  // --- shared machinery -------------------------------------------------

  std::string freshName(const std::string& base) {
    for (;;) {
      std::string n = "sent." + base + std::to_string(counter_++);
      if (names_.insert(n).second) return n;
    }
  }

  std::size_t instrCount() const {
    std::size_t n = 0;
    for (const BasicBlock* bb : f_) n += bb->size();
    return n;
  }

  /// The function's (lazily created) detector-abort block: calls the
  /// `__sentinel_trap` runtime service, which the backend lowers to a
  /// trapping MIR op; the self-branch after it never executes and exists
  /// only to satisfy the verifier.
  BasicBlock* trapBlock() {
    if (trapBB_) return trapBB_;
    trapBB_ = f_.addBlock(freshName("trap"));
    ir::IRBuilder b(&m_);
    b.setInsertPoint(trapBB_);
    b.call(trapFn_, {});
    b.br(trapBB_);
    return trapBB_;
  }

  /// Split the builder's block at its insertion point into a fresh
  /// continuation block and end it with "trap if `fail`, else continue".
  void trapIf(ir::IRBuilder& b, Instruction* fail) {
    BasicBlock* bb = b.insertBlock();
    BasicBlock* cont = bb->splitAt(b.insertIndex(), freshName("cont"));
    b.setInsertPoint(bb);
    b.condBr(fail, trapBlock(), cont);
  }

  // --- ADDR: address-chain duplication ----------------------------------

  void runAddr() {
    analysis::Liveness live(f_);
    analysis::SliceOptions so;
    so.maximal = true;      // inline shadow: SSA dominance == availability
    so.expandLoads = false; // never re-execute loads inline
    // Snapshot the accesses first; instrumentation splits blocks but the
    // Instruction pointers stay valid (detach/append keep ownership moves
    // inside the function).
    std::vector<Instruction*> accesses;
    for (BasicBlock* bb : f_)
      for (Instruction* in : *bb)
        if (in->isMemAccess()) accesses.push_back(in);
    for (Instruction* access : accesses) {
      const Value* ptr = access->pointerOperand();
      // Accesses straight to a global or an alloca carry no address
      // computation to duplicate (same exemption Armor applies).
      if (ptr->kind() == ir::ValueKind::GlobalVariable) continue;
      if (const auto* pi = dynamic_cast<const Instruction*>(ptr);
          pi && pi->opcode() == Opcode::Alloca)
        continue;
      const analysis::AddressSlice slice =
          analysis::extractAddressSlice(access, live, so);
      if (slice.stmts.empty()) continue; // address is itself a terminal
      // Sampling site: the ordinal counts protectable accesses in the
      // original function's iteration order — the pre-instrumentation
      // module is identical across epochs, so site identity (and thus the
      // epoch partition) is stable across differently-sampled builds.
      const std::uint64_t site =
          pareto::siteHash(f_.name(), "addr", stats_.addrSites++);
      if (!pareto::armed(sample_, site)) continue;
      stats_.addrArmed++;
      instrumentAccess(access, slice);
    }
  }

  void instrumentAccess(Instruction* access,
                        const analysis::AddressSlice& slice) {
    BasicBlock* bb = access->parent();
    ir::IRBuilder b(&m_);
    b.setInsertPoint(bb, bb->indexOf(access));

    // Clone the slice (topo order, deps first) right before the access.
    // Terminals — params, constants, loads — are shared with the original
    // chain; PRESAGE-style duplication protects the arithmetic between
    // them and the effective address.
    std::map<const Value*, Value*> vmap;
    for (const Instruction* in : slice.stmts) {
      Instruction* cloned = b.clone(*in, freshName("a"));
      for (unsigned i = 0; i < in->numOperands(); ++i) {
        Value* op = in->operand(i);
        auto it = vmap.find(op);
        cloned->addOperand(it != vmap.end() ? it->second : op);
      }
      vmap[in] = cloned;
    }
    // A nonempty slice always contains the pointer computation itself.
    Value* shadow = vmap.at(access->pointerOperand());
    trapIf(b, b.icmp(CmpPred::NE, access->pointerOperand(), shadow,
                     freshName("chk")));

    stats_.shadowChains++;
    stats_.shadowInstrs += slice.stmts.size();
  }

  // --- CFC: control-flow signature checking -----------------------------
  //
  // CFCSS with run-time adjusting values. Each block B gets a compile-time
  // signature s(B); a stack cell holds the run-time signature. At entry the
  // cell is seeded with s(entry); every other block updates it with the XOR
  // difference to its (base) predecessor, branch-fan-in blocks additionally
  // XOR an adjusting value their predecessors store before branching.
  // Fault-free, the cell equals s(B) inside B; the constant is compared at
  // function exits and loop back-edges, and mismatches jump to the trap
  // block. Critical edges into fan-in blocks are split first so each
  // predecessor stores exactly one adjusting value.

  void splitCriticalEdges() {
    // Set-semantics predecessor counts (parallel condbr edges count once).
    std::map<BasicBlock*, std::size_t> predCount;
    for (BasicBlock* bb : f_)
      predCount[bb] = bb->predecessors().size();

    std::vector<BasicBlock*> blocks;
    for (BasicBlock* bb : f_) blocks.push_back(bb);
    // For a condbr whose two edges go to the same fan-in block, the first
    // split steals the phi incoming entry; the second duplicates it.
    std::map<std::pair<BasicBlock*, BasicBlock*>, BasicBlock*> firstEdge;
    for (BasicBlock* bb : blocks) {
      if (bb == trapBB_) continue;
      Instruction* term = bb->terminator();
      if (!term || term->numSuccs() < 2) continue;
      for (unsigned i = 0; i < term->numSuccs(); ++i) {
        BasicBlock* succ = term->succ(i);
        if (succ == trapBB_ || predCount[succ] < 2) continue;
        BasicBlock* edge = f_.addBlock(freshName("edge"));
        ir::IRBuilder b(&m_);
        b.setInsertPoint(edge);
        b.br(succ);
        term->setSucc(i, edge);
        auto key = std::make_pair(bb, succ);
        auto fe = firstEdge.find(key);
        if (fe == firstEdge.end()) {
          succ->repointPhis(bb, edge);
          firstEdge[key] = edge;
          continue;
        }
        for (Instruction* phi : *succ) {
          if (phi->opcode() != Opcode::Phi) break;
          for (unsigned k = 0; k < phi->numPhiIncoming(); ++k)
            if (phi->phiBlock(k) == fe->second) {
              phi->addPhiIncoming(phi->operand(k), edge);
              break;
            }
        }
      }
    }
  }

  void runCfc() {
    // A branch back into the entry block would leave nowhere to seed the
    // signature; MiniC never produces that shape, but stay safe.
    if (!f_.entry()->predecessors().empty()) return;
    // Sampling site: the whole function. A partially-instrumented
    // signature scheme is unsound (un-updated blocks would trip the next
    // check), so CFC arms per function rather than per check.
    stats_.cfcSites++;
    if (!pareto::armed(sample_, pareto::siteHash(f_.name(), "cfc", 0)))
      return;
    stats_.cfcArmed++;
    splitCriticalEdges();

    // Compile-time signatures: position + 1, so all are distinct and
    // nonzero. The trap block is outside the protected CFG.
    std::map<const BasicBlock*, std::uint64_t> sig;
    std::uint64_t next = 1;
    for (BasicBlock* bb : f_) {
      if (bb == trapBB_) continue;
      sig[bb] = next++;
    }

    std::map<BasicBlock*, std::vector<BasicBlock*>> preds;
    bool fanIn = false;
    for (BasicBlock* bb : f_) {
      if (bb == trapBB_) continue;
      preds[bb] = bb->predecessors();
      if (preds[bb].size() >= 2) fanIn = true;
    }

    // Signature (and, with fan-in blocks, adjusting-value) stack cells.
    BasicBlock* entry = f_.entry();
    ir::IRBuilder b(&m_);
    b.setInsertPoint(entry, entry->firstNonPhi());
    Instruction* sigCell = b.alloca_(Type::i64(), 1, freshName("sig"));
    Instruction* adjCell =
        fanIn ? b.alloca_(Type::i64(), 1, freshName("adj")) : nullptr;
    b.store(m_.constI64(std::int64_t(sig[entry])), sigCell);
    if (adjCell) b.store(m_.constI64(0), adjCell);
    stats_.signatureBlocks++;

    // Per-block signature updates (after phis). Unreachable blocks with no
    // predecessors are left alone — nothing flows into them.
    for (BasicBlock* bb : f_) {
      if (bb == trapBB_ || bb == entry) continue;
      const auto& ps = preds[bb];
      if (ps.empty()) continue;
      b.setInsertPoint(bb, bb->firstNonPhi());
      Instruction* cur = b.load(sigCell, freshName("s"));
      if (ps.size() >= 2) {
        Instruction* adj = b.load(adjCell, freshName("r"));
        cur = b.binary(Opcode::Xor, cur, adj, freshName("x"));
      }
      const std::uint64_t d = sig[ps.front()] ^ sig[bb];
      cur = b.binary(Opcode::Xor, cur, m_.constI64(std::int64_t(d)),
                     freshName("x"));
      b.store(cur, sigCell);
      stats_.signatureBlocks++;
    }

    // Adjusting values: each predecessor of a fan-in block stores
    // s(P) ^ s(P1) before branching (edge splitting above guarantees it
    // has a unique fan-in successor).
    for (BasicBlock* bb : f_) {
      if (bb == trapBB_) continue;
      const auto& ps = preds[bb];
      if (ps.size() < 2) continue;
      const std::uint64_t base = sig[ps.front()];
      for (BasicBlock* p : ps) {
        b.setInsertPoint(p, p->indexOf(p->terminator()));
        b.store(m_.constI64(std::int64_t(sig[p] ^ base)), adjCell);
      }
    }

    // Check sites: every function exit, plus every loop back-edge source.
    // Collected before any check splits blocks (the latch keeps its
    // identity; only its terminator moves to a continuation block).
    std::vector<BasicBlock*> checkSites;
    std::set<BasicBlock*> seen;
    for (BasicBlock* bb : f_) {
      if (bb == trapBB_) continue;
      Instruction* term = bb->terminator();
      if (term && term->opcode() == Opcode::Ret && seen.insert(bb).second)
        checkSites.push_back(bb);
    }
    analysis::DominatorTree dt(f_);
    analysis::LoopInfo li(f_, dt);
    for (const auto& loop : li.loops()) {
      if (!sig.count(loop->header)) continue; // the trap self-loop
      // In function block order: loop->blocks is ordered by address, which
      // would make the image depend on the process's allocation history.
      for (BasicBlock* bb : f_) {
        if (!loop->contains(bb)) continue;
        Instruction* term = bb->terminator();
        if (!term) continue;
        bool backEdge = false;
        for (unsigned i = 0; i < term->numSuccs(); ++i)
          if (term->succ(i) == loop->header) backEdge = true;
        if (backEdge && seen.insert(bb).second) checkSites.push_back(bb);
      }
    }

    for (BasicBlock* bb : checkSites) {
      b.setInsertPoint(bb, bb->indexOf(bb->terminator()));
      Instruction* cur = b.load(sigCell, freshName("s"));
      trapIf(b, b.icmp(CmpPred::NE, cur, m_.constI64(std::int64_t(sig[bb])),
                       freshName("chk")));
      stats_.signatureChecks++;
    }
  }

  Module& m_;
  Function& f_;
  const DetectOptions& opts_;
  pareto::SampleConfig sample_;
  Function* trapFn_;
  BasicBlock* trapBB_ = nullptr;
  FunctionSentinelStats stats_;
  std::set<std::string> names_;
  unsigned counter_ = 0;
};

} // namespace

SentinelStats runSentinel(Module& m, const DetectOptions& opts,
                          const pareto::SampleConfig& sample) {
  SentinelStats stats;
  if (!opts.any()) return stats;
  // The trap service, lowered to MOp::SentinelTrap → vm::TrapKind::Sentinel.
  Function* trapFn = m.runtime(ir::RuntimeFn::SentinelTrap);
  for (Function* f : m) {
    if (f->isDeclaration()) continue;
    FunctionInstrumenter fi(m, *f, opts, sample, trapFn);
    FunctionSentinelStats fs = fi.run();
    // Keep the stats entry when the function has sites even if sampling
    // armed none of them — total_sites must not depend on the epoch.
    if (fs.addedInstrs || fs.cfcSites || fs.addrSites)
      stats.functions.push_back(std::move(fs));
  }
  return stats;
}

} // namespace care::sentinel
