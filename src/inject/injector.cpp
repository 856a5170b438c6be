#include "inject/injector.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <tuple>

#include "support/bitutil.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"

namespace care::inject {

using backend::MInst;
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

bool Campaign::injectable(const MInst& in) {
  const backend::Operands o = backend::operandsOf(in);
  return o.dst != backend::RegClass::None || o.storesMem;
}

void Campaign::corruptDestination(Executor& ex, const CodeLoc& loc,
                                  const std::vector<unsigned>& bits) {
  const MInst& in = ex.image()->instruction(loc);
  const backend::Operands d = backend::operandsOf(in);
  CARE_ASSERT(injectable(in), "injection at instruction without destination");
  if (d.storesMem) {
    // Recompute the store's effective address and flip bits in the cell.
    const std::uint64_t a = vm::effectiveAddr(
        in.mem, ex.state().g,
        ex.image()->module(static_cast<std::size_t>(loc.module)));
    const unsigned size = backend::mtypeSize(in.mem.type);
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
  if (d.dst == backend::RegClass::FP) {
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
  // Both checkpoint spacings resolve against the golden count
  // (resolveSpacing), and the counting pass stops on the table's grid: the
  // rollback grid under a rolling-back strategy, the replay grid otherwise.
  // With the replay cache off, or a run too short for one segment, it stops
  // nowhere and is the golden run itself.
  const bool replay = cfg_.checkpointEveryInstrs != 0;
  auto runGolden = [&](Executor& ex) {
    trace::Span goldenSpan("campaign.golden_run", "campaign");
    ex.setBudget(2'000'000'000ull);
    const vm::RunResult res = vm::runToCompletion(ex);
    if (res.status != vm::RunStatus::Done) return false;
    goldenInstrs_ = res.instrCount;
    goldenOutput_ = ex.output();
    // Rollback-ring spacing (DESIGN.md §4f): same auto rule, deliberately
    // its own knob — rollback trials must behave identically whether or
    // not the replay cache is enabled.
    rollbackInterval_ =
        resolveSpacing(cfg_.rollbackEveryInstrs, goldenInstrs_);
    ckptInterval_ = !replay ? 0
                    : core::strategyRollsBack(cfg_.recover)
                        ? rollbackInterval_
                        : resolveSpacing(cfg_.checkpointEveryInstrs,
                                         goldenInstrs_);
    if (rollbackInterval_ == 0)
      rollbackInterval_ = goldenInstrs_ + 1; // entry checkpoint only
    return true;
  };

  // Pass 1: a plain golden run at the campaign backend's full speed.
  if (replay) {
    Executor plain(image_, baseMem_);
    if (!runGolden(plain)) return false;
  }

  // Pass 2: one profiled run, capturing the replay cache's boundaries
  // (DESIGN.md §4c) on the way. Captures record every injectable
  // instruction's count; the sampling table keeps those the whole run
  // executed.
  std::vector<CodeLoc> candidates;
  for (std::int32_t m : cfg_.targetModules) {
    const auto& fns = image_->module(static_cast<std::size_t>(m)).mod->functions;
    for (std::size_t f = 0; f < fns.size(); ++f)
      for (std::size_t i = 0; i < fns[f].code.size(); ++i)
        if (injectable(fns[f].code[i]))
          candidates.push_back({m, static_cast<std::int32_t>(f),
                                static_cast<std::int32_t>(i)});
  }
  checkpoints_.clear();
  Executor ex(image_, baseMem_);
  ex.enableProfiling();
  if (replay && ckptInterval_ > 0) {
    const vm::RunResult res = buildCheckpoints(ex, candidates);
    CARE_ASSERT(res.status == vm::RunStatus::Done &&
                    res.instrCount == goldenInstrs_ &&
                    ex.output() == goldenOutput_,
                "the counting pass diverged from the golden run");
  } else if (!runGolden(ex)) {
    return false;
  }

  sites_.clear();
  counts_.clear();
  cumulative_.clear();
  totalWeight_ = 0;
  std::vector<std::size_t> kept;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const std::uint64_t count = ex.profileCount(candidates[c]);
    if (count == 0) continue;
    kept.push_back(c);
    sites_.push_back(candidates[c]);
    counts_.push_back(count);
    totalWeight_ += count;
    cumulative_.push_back(totalWeight_);
  }
  if (totalWeight_ == 0) return false;
  // Project the captures onto the sampling table (kept is ascending).
  for (TrialCheckpoint& ck : checkpoints_) {
    for (std::size_t k = 0; k < kept.size(); ++k)
      ck.siteCounts[k] = ck.siteCounts[kept[k]];
    ck.siteCounts.resize(kept.size());
    ck.siteCounts.shrink_to_fit();
  }
  return true;
}

std::string Campaign::pruneKey(const InjectionPoint& pt) const {
  std::string key;
  // deadmem: a memory fault whose word is provably never accessed at or
  // after the strike, since the watch table has no access from the start
  // of its segment on. The run completes on the golden path and every
  // deterministic field is a function of (model, ECC, bit pattern): the
  // pattern decides the SECDED scrub verdict, so it stays in the key
  // whenever ECC is armed (under ECC-off the flip is entirely inert).
  const auto dead = [&] {
    const auto it = watch_.find(pt.memAddr & ~7ull);
    const std::size_t s = segmentAt(pt.nth);
    return it != watch_.end() && s >= it->second.first &&
           it->second.next[s - it->second.first] == NextAccess::None;
  };
  if (pt.model != FaultModel::Reg && dead()) {
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

vm::RunResult Campaign::buildCheckpoints(
    Executor& ex, const std::vector<CodeLoc>& candidates) {
  trace::Span span("campaign.build_checkpoints", "campaign");
  // Run the golden execution through the shared boundary driver
  // (vm/checkpoint_ring.hpp), capturing a TrialCheckpoint at every segment
  // boundary. The driver first pauses at entry (instruction 0): that
  // capture is entry_, the pinned slot every rollback ring starts with.
  bool atEntry = true;
  return vm::runCheckpointed(
      ex, ckptInterval_, goldenInstrs_, [&](Executor& e) {
        if (atEntry) {
          atEntry = false;
          entry_ = e.resumePoint();
          return;
        }
        TrialCheckpoint ck;
        ck.rp = e.resumePoint();
        ck.siteCounts.reserve(candidates.size());
        for (const CodeLoc& loc : candidates)
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
  // Injection happens at the boundary state, before instruction `instrAt`
  // executes, so a boundary at `instrAt` is usable.
  const std::size_t s = segmentAt(instrAt);
  return s > 0 ? &checkpoints_[s - 1] : nullptr;
}

std::size_t Campaign::segmentAt(std::uint64_t t) const {
  // Boundaries are captured in ascending instrCount order.
  std::size_t lo = 0, hi = checkpoints_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (checkpoints_[mid].rp.instrCount <= t) lo = mid + 1;
    else hi = mid;
  }
  return lo;
}

void Campaign::watch(const std::vector<InjectionPoint>& points) const {
  watch_.clear();
  // Settling reads the table at replay boundaries, pruning at strikes.
  if (cfg_.fault == FaultModel::Reg ||
      (checkpoints_.empty() && !cfg_.prune.enabled))
    return;
  // A word is watched from the segment holding its earliest strike.
  for (const InjectionPoint& pt : points) {
    const std::size_t s = segmentAt(pt.nth);
    auto [it, fresh] = watch_.try_emplace(pt.memAddr & ~7ull);
    if (fresh || s < it->second.first) it->second.first = s;
  }
  if (watch_.empty()) return;
  trace::Span span("campaign.watch", "campaign");
  const std::size_t n = checkpoints_.size(); // segments 0..n
  std::size_t start = n;
  for (auto& [word, w] : watch_) {
    w.next.assign(n + 1 - w.first, NextAccess::None);
    start = std::min(start, w.first);
  }

  // Segment s runs from its start to boundary s (the last one to the
  // end). The pass starts at the first segment any word is watched from,
  // and at each segment start every word watched there or earlier is
  // watched again, so the recorder reports each word's first access per
  // segment.
  Executor ex(image_, baseMem_);
  if (start > 0) ex.restoreCheckpoint(checkpoints_[start - 1].rp);
  ex.setBudget(goldenInstrs_ + 1);
  std::vector<vm::Memory::WordAccess> seen;
  ex.memory().setAccessTrace(&seen);
  for (std::size_t s = start; s <= n; ++s) {
    std::vector<std::uint64_t> armed;
    for (const auto& [word, w] : watch_)
      if (w.first <= s) armed.push_back(word);
    ex.memory().watch(armed);
    if (s < n) {
      const vm::RunResult r = ex.runBounded(checkpoints_[s].rp.instrCount);
      CARE_ASSERT(r.status == vm::RunStatus::BudgetExceeded,
                  "the watch pass diverged from the golden run");
    } else {
      const vm::RunResult r = vm::runToCompletion(ex);
      CARE_ASSERT(r.status == vm::RunStatus::Done &&
                      r.instrCount == goldenInstrs_,
                  "the watch pass diverged from the golden run");
    }
    for (const vm::Memory::WordAccess& a : seen) {
      WatchedWord& w = watch_.at(a.word);
      w.next[s - w.first] = a.kind == vm::Memory::Access::Check
                                ? NextAccess::Check
                                : NextAccess::Overwrite;
    }
    seen.clear();
  }
  // The first access from the start of segment s is segment s's, or
  // failing that the first from the start of segment s + 1.
  for (auto& [word, w] : watch_)
    for (std::size_t k = w.next.size() - 1; k-- > 0;)
      if (w.next[k] == NextAccess::None) w.next[k] = w.next[k + 1];
}

std::optional<NextAccess> Campaign::settle(Executor& e, std::uint64_t word,
                                           std::size_t gi) const {
  // Boundary gi starts segment gi + 1.
  const auto it = watch_.find(word);
  if (it == watch_.end() || gi + 1 < it->second.first) return std::nullopt;
  const Executor::ResumePoint& golden = checkpoints_[gi].rp;
  if (!e.sameState(golden, word)) return std::nullopt;
  // From here the trial repeats the golden run until that run next meets
  // the word, and that access decides it.
  const std::uint64_t goldenWord = *golden.mem.readWord(word);
  const NextAccess next = it->second.next[gi + 1 - it->second.first];
  switch (next) {
  case NextAccess::None: // the end-of-trial scrub settles it, as at the end
    break;
  case NextAccess::Overwrite: // drops the record, leaves golden's value
    (void)e.memory().store(word, backend::MType::I64, goldenWord);
    break;
  case NextAccess::Check: {
    // Only a check that restores golden's value rejoins the golden run; a
    // read-first word under ECC off, or a check that would trap or
    // mis-correct, runs on.
    if (e.memory().eccCheckedValue(word) != goldenWord) return std::nullopt;
    std::uint64_t v = 0;
    (void)e.memory().load(word, backend::MType::I64, v);
    break;
  }
  }
  return next;
}

void Campaign::seedRing(vm::CheckpointRing& ring,
                        const TrialCheckpoint* restored) const {
  // A from-entry trial's ring, when its driver pushes `restored`, holds the
  // entry plus the latest capacity-1 grid boundaries up to `restored`; the
  // table is that grid and the driver pushes `restored` itself, so seed the
  // entry and the capacity-2 table entries before it, in push order.
  const std::size_t prior = std::min<std::size_t>(
      static_cast<std::size_t>(restored - checkpoints_.data()),
      ring.capacity() < 2 ? 0 : ring.capacity() - 2);
  ring.push(entry_);
  for (const TrialCheckpoint* g = restored - prior; g != restored; ++g)
    ring.push(g->rp);
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
  const unsigned width = backend::operandsOf(in).storesMem
                             ? 8 * backend::mtypeSize(in.mem.type)
                             : 64;
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
    const std::map<std::int32_t, core::ModuleArtifacts>* careArtifacts,
    core::SafeguardStats* careStats) const {
  InjectionResult res;
  Executor ex(image_, baseMem_);
  const bool memFault = pt.model != FaultModel::Reg;
  const bool rollsBack = careArtifacts && core::strategyRollsBack(cfg_.recover);
  vm::CheckpointRing ring(cfg_.rollbackRingCap);
  // Replay cache: fast-forward to the last checkpoint before the fault site
  // and arm with the *remaining* executions (memory faults are timed on the
  // absolute instruction count, so they need no re-arming). instrCount and
  // output are restored absolute, so the hang budget, manifestation latency
  // and SDC comparison below are oblivious to the skipped prefix. A
  // rolling-back campaign's checkpoints lie on its rollback grid, so a
  // rolling-back trial restores a boundary its own ring would capture and
  // is handed the ring a from-entry run would hold there (DESIGN.md §4f).
  const TrialCheckpoint* ck =
      memFault ? replaySourceAt(pt.nth) : replaySource(pt);
  std::uint64_t armNth = pt.nth;
  if (ck) {
    {
      trace::Span restoreSpan("trial.restore_checkpoint", "campaign");
      ex.restoreCheckpoint(ck->rp);
    }
    if (!memFault)
      armNth = pt.nth -
               ck->siteCounts[static_cast<std::size_t>(siteIndexOf(pt.loc))];
    res.replaySavedInstrs = ck->rp.instrCount;
    if (rollsBack) seedRing(ring, ck);
  }
  const std::uint64_t budget = goldenInstrs_ * cfg_.hangFactor + 1'000'000;
  std::unique_ptr<core::Safeguard> safeguard;
  if (careArtifacts) {
    safeguard = std::make_unique<core::Safeguard>();
    safeguard->setPatchTarget(cfg_.patchTarget);
    safeguard->setStrategy(cfg_.recover);
    if (rollsBack) safeguard->setRollbackSource(&ring);
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
  // trials feed the ring every rollbackInterval_ from where they start (a
  // mid-run rollback rewinds instrCount; the grid is absolute, so the
  // re-execution runs back up to the next boundary), and memory models
  // strike their word exactly at pt.nth, after any capture at that count.
  // The strike is transient: a rollback to a checkpoint before pt.nth
  // genuinely erases it. Convergence (DESIGN.md §4c): at every later golden
  // boundary, on the golden-path count, a trial whose fault has fired
  // compares its state with the golden one, struck words included, and
  // stops on equality — the rest of the run is the golden run, so the run
  // to the end would finish at goldenInstrs_ + its retries. A memory-model
  // trial that differs from that state only in its struck word may settle
  // there from the watch table (settle()): its future then hangs on the
  // golden run's next access to the word. Past the budget the run to the
  // end would be a Hang, so the trial runs on. At any hangFactor >= 1 the
  // budget's slack over golden is at least 1M instructions, so only a
  // trial with over a million repairs reaches that guard; no campaign
  // does.
  bool converged = false;
  std::vector<vm::ScheduledEvent> events;
  for (const TrialCheckpoint* g = ck ? ck + 1 : checkpoints_.data();
       g != checkpoints_.data() + checkpoints_.size(); ++g)
    events.push_back({g->rp.instrCount, [&, g](Executor& e) {
                        if (!fired || goldenInstrs_ + e.retries() > budget)
                          return false;
                        converged = e.sameState(g->rp);
                        if (!converged && memFault) {
                          res.settled = settle(
                              e, pt.memAddr & ~7ull,
                              static_cast<std::size_t>(g - checkpoints_.data()));
                          converged = res.settled.has_value();
                        }
                        return converged;
                      }});
  if (memFault) {
    const vm::ScheduledEvent strike{pt.nth, [&](Executor& e) {
                                      fired = e.memory().injectFault(
                                          pt.memAddr, pt.bits, cfg_.ecc);
                                      injAt = pt.nth;
                                      return false;
                                    }};
    events.insert(std::upper_bound(events.begin(), events.end(), strike,
                                   [](const auto& a, const auto& b) {
                                     return a.at < b.at;
                                   }),
                  strike);
  }
  vm::RunResult run = vm::runCheckpointed(
      ex, rollsBack ? rollbackInterval_ : 0, budget,
      [&](Executor& e) { ring.push(e); }, events);
  if (converged) {
    res.replaySavedInstrs += goldenInstrs_ - (run.instrCount - ex.retries());
    run.status = vm::RunStatus::Done;
    run.instrCount = goldenInstrs_ + ex.retries();
  }
  res.injected = fired;
  res.instrsExecuted = run.instrCount;

  switch (run.status) {
  case vm::RunStatus::Done:
    res.survived = true;
    res.outputMatchesGolden = converged || ex.output() == goldenOutput_;
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
    CARE_UNREACHABLE("runCheckpointed cannot yield");
  }

  // End-of-trial scrub (DESIGN.md §4i): a completed run may still hold the
  // flipped word in a cell it never read back — patrol every struck word
  // so the correctable/uncorrectable verdict is about the *fault*, not
  // about whether the workload happened to touch it. Then fold the counters
  // into the record; a clean-output completion that needed a correction is
  // its own outcome class.
  if (res.survived) (void)ex.memory().scrubEcc();
  res.eccCorrected = ex.memory().eccCorrected();
  res.eccUncorrectable = ex.memory().eccUncorrectable();
  if (res.outcome == Outcome::Benign && res.eccCorrected > 0)
    res.outcome = Outcome::Corrected;

  if (careArtifacts) {
    const core::SafeguardStats& st = safeguard->stats();
    if (careStats) *careStats = st;
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
