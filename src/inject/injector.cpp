#include "inject/injector.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <tuple>

#include "support/bitutil.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"

namespace care::inject {

using backend::MInst;
using backend::MOp;
using vm::CodeLoc;
using vm::Executor;

const char* outcomeName(Outcome o) {
  switch (o) {
  case Outcome::Benign: return "Benign";
  case Outcome::SoftFailure: return "SoftFailure";
  case Outcome::SDC: return "SDC";
  case Outcome::Hang: return "Hang";
  case Outcome::Detected: return "Detected";
  case Outcome::RolledBack: return "RolledBack";
  case Outcome::Corrected: return "Corrected";
  }
  return "?";
}

const char* faultModelName(FaultModel m) {
  switch (m) {
  case FaultModel::Reg: return "reg";
  case FaultModel::Mem1: return "mem1";
  case FaultModel::Mem2Adj: return "mem2adj";
  case FaultModel::Burst: return "burst";
  }
  return "?";
}

FaultModel parseFaultModel(const std::string& s) {
  if (s == "reg") return FaultModel::Reg;
  if (s == "mem1") return FaultModel::Mem1;
  if (s == "mem2adj") return FaultModel::Mem2Adj;
  if (s == "burst") return FaultModel::Burst;
  raise("unknown fault model '" + s +
        "' (expected reg, mem1, mem2adj or burst)");
}

namespace {

/// Destination operand classification: (hasDest, isFPReg, isMemory).
struct DestInfo {
  bool has = false;
  bool fpReg = false;
  bool memory = false;
};

DestInfo destOf(const MInst& in) {
  switch (in.op) {
  case MOp::Store:
    return {true, false, true};
  case MOp::Mov: case MOp::MovImm: case MOp::Lea:
  case MOp::IAdd: case MOp::ISub: case MOp::IMul: case MOp::IDiv:
  case MOp::IRem: case MOp::IAnd: case MOp::IOr: case MOp::IXor:
  case MOp::IShl: case MOp::IAshr: case MOp::Sext32: case MOp::IAluMem:
  case MOp::SetCmp: case MOp::FSetCmp: case MOp::CvtFToSi:
    return {true, false, false};
  case MOp::FMov: case MOp::FMovImm:
  case MOp::FAdd: case MOp::FSub: case MOp::FMul: case MOp::FDiv:
  case MOp::FAluMem: case MOp::CvtSiToF: case MOp::CvtF32F64:
  case MOp::CvtF64F32: case MOp::MathCall:
    return {true, true, false};
  case MOp::Load:
    return {true, backend::mtypeIsFP(in.mem.type), false};
  default:
    return {};
  }
}

/// Upper bound on replay-cache segments: a tiny interval on a
/// multi-million-instruction run must not balloon into thousands of page-map
/// copies. The interval is widened until the segment count fits.
constexpr std::uint64_t kMaxCheckpoints = 4096;

/// A checkpoint spacing knob resolved against the golden run: kCkptAuto is
/// golden/64, and a nonzero spacing is widened to at most kMaxCheckpoints
/// segments. 0 stays 0.
std::uint64_t resolveSpacing(std::uint64_t knob, std::uint64_t golden) {
  std::uint64_t v = knob == CampaignConfig::kCkptAuto ? golden / 64 : knob;
  if (v > 0 && v < golden / kMaxCheckpoints + 1)
    v = golden / kMaxCheckpoints + 1;
  return v;
}

} // namespace

bool Campaign::injectable(const MInst& in) { return destOf(in).has; }

void Campaign::corruptDestination(Executor& ex, const CodeLoc& loc,
                                  const std::vector<unsigned>& bits) {
  const MInst& in = ex.image()->instruction(loc);
  const DestInfo d = destOf(in);
  CARE_ASSERT(d.has, "injection at instruction without destination");
  if (d.memory) {
    // Recompute the store's effective address and flip bits in the cell.
    const backend::MemRef& m = in.mem;
    std::uint64_t a = static_cast<std::uint64_t>(m.disp);
    if (m.globalIdx >= 0)
      a += ex.image()
               ->module(static_cast<std::size_t>(loc.module))
               .globalAddr[static_cast<std::size_t>(m.globalIdx)];
    if (m.base != backend::kNoReg) a += ex.state().g[m.base];
    if (m.index != backend::kNoReg) a += ex.state().g[m.index] * m.scale;
    const unsigned size = backend::mtypeSize(m.type);
    std::uint8_t buf[8] = {};
    if (!ex.memory().readBytes(a, buf, size)) return; // store itself trapped
    // Bits were sampled within the destination's width (sample() consults
    // the store's MType), so no reduction happens here: a modulo at this
    // point would silently alias distinct sampled positions onto the same
    // cell bit and degenerate bits=2 flips into no-ops.
    for (unsigned b : bits) flipBitBuffer(buf, size, b);
    ex.memory().writeBytes(a, buf, size);
    return;
  }
  if (d.fpReg) {
    double& v = ex.state().f[in.dst];
    for (unsigned b : bits) v = flipBitF64(v, b);
    return;
  }
  std::uint64_t& v = ex.state().g[in.dst];
  for (unsigned b : bits) v = flipBit(v, b);
}

Campaign::Campaign(const vm::Image* image, CampaignConfig cfg)
    : image_(image), cfg_(std::move(cfg)) {
  vm::Memory base;
  image_->initMemory(base);
  baseMem_ = vm::MemorySnapshot::capture(base);
  // Memory-fault site population: every page mapped at entry, in sorted
  // order so sampling is deterministic across processes.
  pageNos_ = baseMem_.pageNumbers();
}

bool Campaign::profile() {
  trace::Span profileSpan("campaign.profile", "campaign");
  Executor ex(image_, baseMem_);
  ex.enableProfiling();
  ex.setBudget(2'000'000'000ull);
  trace::Span goldenSpan("campaign.golden_run", "campaign");
  const vm::RunResult res = vm::runToCompletion(ex, cfg_.entry);
  goldenSpan.end();
  if (res.status != vm::RunStatus::Done) return false;
  goldenInstrs_ = res.instrCount;
  goldenOutput_ = ex.output();

  sites_.clear();
  counts_.clear();
  cumulative_.clear();
  totalWeight_ = 0;
  for (std::int32_t m : cfg_.targetModules) {
    const auto& fns = image_->module(static_cast<std::size_t>(m)).mod->functions;
    for (std::size_t f = 0; f < fns.size(); ++f) {
      for (std::size_t i = 0; i < fns[f].code.size(); ++i) {
        if (!injectable(fns[f].code[i])) continue;
        const CodeLoc loc{m, static_cast<std::int32_t>(f),
                          static_cast<std::int32_t>(i)};
        const std::uint64_t count = ex.profileCount(loc);
        if (count == 0) continue;
        sites_.push_back(loc);
        counts_.push_back(count);
        totalWeight_ += count;
        cumulative_.push_back(totalWeight_);
      }
    }
  }
  if (totalWeight_ == 0) return false;

  // Replay cache (DESIGN.md §4c): resolve the segment length, then capture
  // the golden run's boundary states in a second pass (the auto interval
  // and the site table both depend on this first pass).
  checkpoints_.clear();
  ckptInterval_ = resolveSpacing(cfg_.checkpointEveryInstrs, goldenInstrs_);
  if (ckptInterval_ > 0) buildCheckpoints();

  // Rollback-ring spacing (DESIGN.md §4f): same auto rule, deliberately
  // its own knob — rollback trials must behave identically whether or not
  // the replay cache is enabled.
  rollbackInterval_ = resolveSpacing(cfg_.rollbackEveryInstrs, goldenInstrs_);
  if (rollbackInterval_ == 0)
    rollbackInterval_ = goldenInstrs_ + 1; // entry checkpoint only

  // Pruning support (DESIGN.md §4j): the deadmem class needs a per-word
  // last-access bound, built from one traced golden run. Register-model
  // campaigns degenerate to dup-only grouping and skip the trace.
  if (cfg_.prune.enabled && cfg_.fault != FaultModel::Reg) {
    trace::Span lifeSpan("campaign.memory_life", "campaign");
    memLife_ = std::make_unique<pareto::MemoryLife>();
    memLife_->build(image_, baseMem_, cfg_.entry, goldenInstrs_);
  }
  return true;
}

std::string Campaign::pruneKey(const InjectionPoint& pt) const {
  std::string key;
  // deadmem: a memory fault whose word is provably never accessed at or
  // after the strike. The run completes on the golden path and every
  // deterministic field is a function of (model, ECC, bit pattern): the
  // pattern decides the SECDED scrub verdict, so it stays in the key
  // whenever ECC is armed (under ECC-off the flip is entirely inert).
  if (pt.model != FaultModel::Reg && memLife_ &&
      memLife_->deadAfter(pt.memAddr, pt.nth)) {
    key = "deadmem";
    if (cfg_.ecc != vm::EccMode::Off)
      for (unsigned b : pt.bits) key += "." + std::to_string(b);
    return key;
  }
  // dup: the identical experiment. Collisions are textual equality only.
  key = "dup.m" + std::to_string(static_cast<unsigned>(pt.model)) + "." +
        std::to_string(pt.loc.module) + "." + std::to_string(pt.loc.func) +
        "." + std::to_string(pt.loc.instr) + "@" + std::to_string(pt.nth) +
        "+" + std::to_string(pt.memAddr);
  for (unsigned b : pt.bits) key += "." + std::to_string(b);
  return key;
}

void Campaign::buildCheckpoints() {
  trace::Span span("campaign.build_checkpoints", "campaign");
  // Re-run the golden execution through the shared boundary driver
  // (vm/checkpoint_ring.hpp), capturing a TrialCheckpoint at every segment
  // boundary. The driver also pauses once at entry (instruction 0) for
  // rollback rings; the replay cache has no use for that boundary — a
  // trial with no earlier checkpoint simply runs from scratch — so the
  // first callback is skipped to keep the pre-existing checkpoint set.
  Executor ex(image_, baseMem_);
  ex.enableProfiling();
  bool atEntry = true;
  vm::runCheckpointed(ex, cfg_.entry, ckptInterval_, goldenInstrs_,
                      [&](Executor& e) {
                        if (atEntry) {
                          atEntry = false;
                          return;
                        }
                        TrialCheckpoint ck;
                        ck.rp = e.resumePoint();
                        ck.siteCounts.reserve(sites_.size());
                        for (const CodeLoc& loc : sites_)
                          ck.siteCounts.push_back(e.profileCount(loc));
                        checkpoints_.push_back(std::move(ck));
                      });
}

std::ptrdiff_t Campaign::siteIndexOf(const CodeLoc& loc) const {
  // sites_ is built in ascending (module, func, instr) order.
  const auto key = std::make_tuple(loc.module, loc.func, loc.instr);
  const auto it = std::lower_bound(
      sites_.begin(), sites_.end(), key, [](const CodeLoc& s, const auto& k) {
        return std::make_tuple(s.module, s.func, s.instr) < k;
      });
  if (it == sites_.end() ||
      std::make_tuple(it->module, it->func, it->instr) != key)
    return -1;
  return it - sites_.begin();
}

const Campaign::TrialCheckpoint*
Campaign::replaySource(const InjectionPoint& pt) const {
  if (checkpoints_.empty()) return nullptr;
  const std::ptrdiff_t si = siteIndexOf(pt.loc);
  if (si < 0) return nullptr;
  // Per-site counts are monotone over checkpoints: find the first boundary
  // at which pt.loc has already executed pt.nth times; the one before it is
  // the last boundary still strictly *before* the fault site.
  std::size_t lo = 0, hi = checkpoints_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (checkpoints_[mid].siteCounts[static_cast<std::size_t>(si)] < pt.nth)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo > 0 ? &checkpoints_[lo - 1] : nullptr;
}

const Campaign::TrialCheckpoint*
Campaign::replaySourceAt(std::uint64_t instrAt) const {
  if (checkpoints_.empty()) return nullptr;
  // Boundaries are captured in ascending instrCount order: find the last
  // one at or before the fault time (injection happens at the boundary
  // state, before instruction `instrAt` executes, so == is usable).
  std::size_t lo = 0, hi = checkpoints_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (checkpoints_[mid].rp.instrCount <= instrAt) lo = mid + 1;
    else hi = mid;
  }
  return lo > 0 ? &checkpoints_[lo - 1] : nullptr;
}

InjectionPoint Campaign::sample(Rng& rng) const {
  CARE_ASSERT(totalWeight_ > 0, "profile() must succeed before sample()");
  InjectionPoint pt;
  pt.model = cfg_.fault;
  if (pt.model != FaultModel::Reg) {
    // Memory-resident models (DESIGN.md §4i): an absolute dynamic-
    // instruction time and an aligned 64-bit word in a mapped page,
    // decoupled from any instruction's operands. pt.loc stays invalid.
    CARE_ASSERT(!pageNos_.empty(), "image mapped no memory at entry");
    pt.nth = rng.below(goldenInstrs_);
    const std::uint64_t page = pageNos_[rng.below(pageNos_.size())];
    pt.memAddr = page * vm::Memory::kPageSize + 8 * rng.below(512);
    switch (pt.model) {
    case FaultModel::Mem1:
      pt.bits.push_back(static_cast<unsigned>(rng.below(64)));
      break;
    case FaultModel::Mem2Adj: {
      // Two adjacent bits: uncorrectable by SECDED, by construction.
      const unsigned p = static_cast<unsigned>(rng.below(63));
      pt.bits.push_back(p);
      pt.bits.push_back(p + 1);
      break;
    }
    case FaultModel::Burst: {
      // Chipkill analogue: one whole 8-bit lane of the word.
      const unsigned lane = static_cast<unsigned>(rng.below(8));
      for (unsigned b = 0; b < 8; ++b) pt.bits.push_back(8 * lane + b);
      break;
    }
    case FaultModel::Reg:
      CARE_UNREACHABLE("handled above");
    }
    return pt;
  }
  const std::uint64_t r = rng.below(totalWeight_);
  // First cumulative strictly greater than r.
  std::size_t lo = 0, hi = cumulative_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cumulative_[mid] <= r) lo = mid + 1;
    else hi = mid;
  }
  pt.loc = sites_[lo];
  pt.nth = 1 + rng.below(counts_[lo]);
  // Bit positions are sampled within the destination's width: a memory
  // destination is its store's cell (8..64 bits), registers are 64-bit.
  // Sampling in-width (instead of reducing 0..63 draws later) keeps
  // multi-bit flips genuinely distinct in the cell — a modulo would fold
  // e.g. bits {3, 35} of an i32 store onto the same physical bit.
  const MInst& in = image_->instruction(pt.loc);
  const DestInfo dd = destOf(in);
  const unsigned width =
      dd.memory ? 8 * backend::mtypeSize(in.mem.type) : 64;
  pt.bits.push_back(static_cast<unsigned>(rng.below(width)));
  for (unsigned extra = 1; extra < cfg_.bitsToFlip; ++extra) {
    unsigned b;
    do {
      b = static_cast<unsigned>(rng.below(width));
    } while (std::find(pt.bits.begin(), pt.bits.end(), b) != pt.bits.end());
    pt.bits.push_back(b);
  }
  return pt;
}

InjectionResult Campaign::runInjection(
    const InjectionPoint& pt,
    const std::map<std::int32_t, core::ModuleArtifacts>* careArtifacts) const {
  InjectionResult res;
  Executor ex(image_, baseMem_);
  // ECC shadows are armed on the trial executor only — the golden run is
  // fault-free, so protecting it would measure nothing (DESIGN.md §4i).
  if (cfg_.ecc != vm::EccMode::Off) ex.memory().setEccMode(cfg_.ecc);
  const bool memFault = pt.model != FaultModel::Reg;
  // Rollback strategies re-execute from ring checkpoints captured *during
  // this trial*; the replay-cache fast-forward is skipped for them so the
  // trial is identical whether or not the cache is enabled (the ring's
  // entry checkpoint must also genuinely be the entry state, which a
  // restored mid-run prefix would not be).
  const bool wantRollback =
      careArtifacts && core::strategyRollsBack(cfg_.recover);
  // Replay cache: fast-forward to the last checkpoint before the fault site
  // and arm with the *remaining* executions (memory faults are timed on the
  // absolute instruction count, so they need no re-arming). instrCount and
  // output are restored absolute, so the hang budget, manifestation latency
  // and SDC comparison below are oblivious to the skipped prefix.
  std::uint64_t armNth = pt.nth;
  if (!wantRollback) {
    if (const TrialCheckpoint* ck =
            memFault ? replaySourceAt(pt.nth) : replaySource(pt)) {
      {
        trace::Span restoreSpan("trial.restore_checkpoint", "campaign");
        ex.restoreCheckpoint(ck->rp);
      }
      if (!memFault)
        armNth = pt.nth -
                 ck->siteCounts[static_cast<std::size_t>(siteIndexOf(pt.loc))];
      res.replaySavedInstrs = ck->rp.instrCount;
    }
  }
  const std::uint64_t budget = goldenInstrs_ * cfg_.hangFactor + 1'000'000;
  vm::CheckpointRing ring(cfg_.rollbackRingCap);
  std::unique_ptr<core::Safeguard> safeguard;
  if (careArtifacts) {
    safeguard = std::make_unique<core::Safeguard>();
    safeguard->setPatchTarget(cfg_.patchTarget);
    safeguard->setStrategy(cfg_.recover);
    if (wantRollback) safeguard->setRollbackSource(&ring);
    for (const auto& [mi, arts] : *careArtifacts)
      safeguard->addModule(mi, arts);
    safeguard->attach(ex);
  }

  std::uint64_t injAt = 0;
  bool fired = false;
  if (!memFault)
    ex.armInjection(pt.loc, armNth, [&](Executor& e) {
      injAt = e.instrCount();
      fired = true;
      corruptDestination(e, pt.loc, pt.bits);
    });

  // One schedule drives every trial (vm/checkpoint_ring.hpp): rollback
  // trials feed the ring at entry and every rollbackInterval_ (a mid-run
  // rollback rewinds instrCount; the grid is absolute, so the re-execution
  // runs back up to the next boundary), and memory models strike their
  // word exactly at pt.nth, after any capture at that count. The strike is
  // transient: a rollback to a checkpoint before pt.nth genuinely erases
  // it. With neither, the trial is one run to completion.
  std::vector<vm::ScheduledEvent> events;
  if (memFault)
    events.push_back({pt.nth, [&](Executor& e) {
                        fired = e.memory().injectFault(pt.memAddr, pt.bits);
                        injAt = pt.nth;
                      }});
  const vm::RunResult run = vm::runCheckpointed(
      ex, cfg_.entry, wantRollback ? rollbackInterval_ : 0, budget,
      [&](Executor& e) { ring.push(e); }, events);
  res.injected = fired;
  res.instrsExecuted = run.instrCount;

  switch (run.status) {
  case vm::RunStatus::Done:
    res.survived = true;
    res.outputMatchesGolden = ex.output() == goldenOutput_;
    res.outcome = res.outputMatchesGolden ? Outcome::Benign : Outcome::SDC;
    break;
  case vm::RunStatus::Trapped:
    // A Sentinel or ECC-uncorrectable trap is a *detected* corruption: the
    // latency field then measures detection latency (injection -> detector
    // check) instead of injection -> crash.
    res.outcome = (run.trap.kind == vm::TrapKind::Sentinel ||
                   run.trap.kind == vm::TrapKind::EccUncorrectable)
                      ? Outcome::Detected
                      : Outcome::SoftFailure;
    res.signal = run.trap.kind;
    res.latencyInstrs = fired ? run.instrCount - injAt : 0;
    break;
  case vm::RunStatus::BudgetExceeded:
    res.outcome = Outcome::Hang;
    break;
  case vm::RunStatus::Yielded:
    CARE_UNREACHABLE("runToCompletion cannot yield");
  }

  // End-of-trial scrub (DESIGN.md §4i): a completed run may still hold the
  // flipped word in a cell it never read back — patrol every shadowed word
  // so the correctable/uncorrectable verdict is about the *fault*, not
  // about whether the workload happened to touch it. Then fold the counters
  // into the record; a clean-output completion that needed a correction is
  // its own outcome class.
  if (ex.memory().eccEnabled()) {
    if (res.survived) (void)ex.memory().scrubEcc();
    res.eccCorrected = ex.memory().eccCorrected();
    res.eccUncorrectable = ex.memory().eccUncorrectable();
    if (res.outcome == Outcome::Benign && res.eccCorrected > 0)
      res.outcome = Outcome::Corrected;
  }

  if (careArtifacts) {
    const core::SafeguardStats& st = safeguard->stats();
    res.safeguardActivations = st.activations;
    res.ivAltRecoveries = st.ivAltRecoveries;
    res.rollbacks = st.rollbacks;
    for (const core::RecoveryRecord& r : st.records) {
      res.recoveryUsTotal += r.totalUs;
      res.kernelUsTotal += r.kernelUs;
      res.keyUsTotal += r.keyUs;
      res.loadUsTotal += r.loadUs;
      res.paramUsTotal += r.paramUs;
      res.patchUsTotal += r.patchUs;
      res.rollbackUsTotal += r.rollbackUs;
      res.rollbackReexecInstrs += r.discardedInstrs;
      if (!r.recovered && !r.rolledBack && res.careFailReason.empty())
        res.careFailReason = r.failReason;
    }
    // A completed run that needed >=1 rollback is its own outcome class:
    // rollback preserves externalized output, so the Benign/SDC verdict
    // above is folded into careRecovered instead — a rollback survival
    // only counts as recovered when no corrupt output escaped.
    if (res.survived && st.rollbacks > 0) res.outcome = Outcome::RolledBack;
    res.careRecovered =
        res.survived &&
        (st.recovered > 0 || (st.rollbacks > 0 && res.outputMatchesGolden));
  }
  return res;
}

} // namespace care::inject
