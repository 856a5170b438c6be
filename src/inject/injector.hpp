// Instruction-level fault injector (paper §2.1.1 and §5.1).
//
// Faults are single- or double-bit flips in the *destination operand* of a
// dynamic instruction, injected right after the instruction executes. A
// dynamic instruction is addressed the way the paper's Pin-based tool does
// it: profile the execution count of every static instruction, pick a
// static instruction weighted by its count, then pick the n-th execution
// uniformly. Outcomes are classified as Benign / SoftFailure / SDC / Hang
// against a golden run; with CARE attached, the campaign additionally
// reports whether Safeguard recovered the process.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "care/safeguard.hpp"
#include "pareto/prune.hpp"
#include "support/rng.hpp"
#include "vm/checkpoint_ring.hpp"
#include "vm/executor.hpp"

namespace care::inject {

/// Trial classification. `Detected` is a SoftFailure-like termination by a
/// Sentinel detector trap (vm::TrapKind::Sentinel): the corruption would
/// have been an SDC or Hang, but compiler-inserted checks converted it into
/// an attributable abort. Kept distinct so detector coverage is measurable
/// and Table 3's SIGABRT bucket stays assert-only. `RolledBack` is a run
/// that completed only because Safeguard restored >=1 checkpoint
/// (DESIGN.md §4f); whether it also counts as a *recovery* depends on the
/// output matching golden (careRecovered), since a rollback cannot unwind
/// already-externalized output.
enum class Outcome : std::uint8_t {
  Benign, SoftFailure, SDC, Hang, Detected, RolledBack,
  /// Completed with golden output only because ECC corrected >=1 flipped
  /// memory word along the way (DESIGN.md §4i) — a genuine save, kept
  /// distinct from Benign so the defense matrix can credit it.
  Corrected
};

const char* outcomeName(Outcome o);

/// What gets corrupted (paper §2.1.1 extended by DESIGN.md §4i). `Reg` is
/// the paper's model: flip the destination operand of a dynamic
/// instruction. The `Mem*` models are memory-resident: flip bits in a
/// mapped 64-bit word at an absolute dynamic-instruction time, decoupled
/// from any instruction's operands — the DRAM-strike analogue SECDED ECC
/// defends against. Selected by --fault= / CARE_FAULT.
enum class FaultModel : std::uint8_t {
  Reg = 0,     // destination-operand flip (the paper's model)
  Mem1 = 1,    // one bit in a random mapped word
  Mem2Adj = 2, // two adjacent bits (SECDED-uncorrectable by design)
  Burst = 3,   // chipkill-style 8-bit burst within one byte lane
};

const char* faultModelName(FaultModel m);
/// Parse "reg" | "mem1" | "mem2adj" | "burst"; throws care::Error naming
/// the accepted values on anything else.
FaultModel parseFaultModel(const std::string& s);

/// Where and when to inject. Reg model: after the `nth` execution of the
/// static instruction at `loc`, flip `bits` (distinct positions within the
/// destination's width). Mem models: when the dynamic instruction count
/// reaches `nth`, flip `bits` (positions 0..63) in the aligned word at
/// `memAddr`; `loc` stays invalid.
struct InjectionPoint {
  vm::CodeLoc loc;
  std::uint64_t nth = 1;
  std::vector<unsigned> bits;
  FaultModel model = FaultModel::Reg;
  std::uint64_t memAddr = 0;
};

/// The golden run's first access to a word from some boundary on (the
/// watch pass, DESIGN.md §4i): none up to the end, a check (a typed load
/// or a sub-word store), or an overwrite (a full-word store or
/// writeBytes).
enum class NextAccess : std::uint8_t { None, Check, Overwrite };

struct InjectionResult {
  Outcome outcome = Outcome::Benign;
  vm::TrapKind signal = vm::TrapKind::SegFault; // valid for SoftFailure
  std::uint64_t latencyInstrs = 0; // injection -> trap (SoftFailure only)
  std::uint64_t instrsExecuted = 0; // dynamic instructions in this run,
                                    // counted from instruction 0 even when
                                    // the replay cache skipped the prefix
  /// Golden instructions this trial did not execute: the prefix the replay
  /// cache fast-forwarded over, plus the tail after the trial re-converged
  /// with the golden run (DESIGN.md §4c). 0 when checkpointing is off.
  /// Work accounting, not a semantic outcome: carried by the full-fidelity
  /// wire format (sockets / caches) but excluded from the deterministic
  /// projection, since it varies with the replay interval.
  std::uint64_t replaySavedInstrs = 0;
  /// Set when the watch table stopped this run at a golden boundary
  /// (DESIGN.md §4c): the golden run's next access to the struck word that
  /// decided it. Work accounting like replaySavedInstrs, but in neither
  /// wire format: a forked worker reports its shard's count beside the
  /// entry.
  std::optional<NextAccess> settled;
  bool injected = false;           // the point was actually reached
  // CARE-specific:
  bool survived = false;              // run completed (with CARE attached)
  bool careRecovered = false;         // >=1 successful Safeguard repair, or
                                      // rollback(s) with golden output
  std::uint64_t safeguardActivations = 0;
  std::uint64_t ivAltRecoveries = 0;  // Fig. 11 extension successes
  std::uint64_t rollbacks = 0;        // checkpoint restores performed
  /// Instructions discarded by rollbacks (sum of fault instrCount minus
  /// restore target): the work the re-executions had to redo.
  std::uint64_t rollbackReexecInstrs = 0;
  double recoveryUsTotal = 0;         // sum over activations
  double kernelUsTotal = 0;           // time inside recovery kernels
  // Fig. 9 phase breakdown, summed over activations (wall-clock fields,
  // outside the determinism guarantee like the two sums above; kernel time
  // is kernelUsTotal). Phases an activation failed before reaching are 0.
  double keyUsTotal = 0;              // PC -> key mapping
  double loadUsTotal = 0;             // lazy artifact load + kernel lookup
  double paramUsTotal = 0;            // operand disassembly + param fetch
  double patchUsTotal = 0;            // operand patch
  double rollbackUsTotal = 0;         // checkpoint selection + CoW restore
  /// ECC accounting for this trial (0 with CARE_ECC off): words corrected
  /// on access or by the end-of-trial scrub, and uncorrectable detections
  /// (the trapping one plus any found by the scrub).
  std::uint64_t eccCorrected = 0;
  std::uint64_t eccUncorrectable = 0;
  bool outputMatchesGolden = false;
  std::string careFailReason;         // first Safeguard failure, if any
};

struct CampaignConfig {
  std::uint64_t seed = 2026;
  unsigned bitsToFlip = 1;            // 1 = Table 2-4, 2 = Tables 10/11
  /// Trial budget: hangFactor * golden instrs + 1M; past it a trial is a
  /// Hang.
  std::uint64_t hangFactor{4};
  std::set<std::int32_t> targetModules{0}; // app only, per §5.1
  /// Safeguard patch heuristic (ablation; paper default: index first).
  core::Safeguard::PatchTarget patchTarget =
      core::Safeguard::PatchTarget::IndexFirst;
  /// Replay-cache segment length in dynamic instructions (DESIGN.md §4c).
  /// kCkptAuto means goldenInstrs/64; 0 disables the cache (every trial
  /// re-executes its golden prefix from instruction 0). Any value yields
  /// bit-identical campaign records — this is a performance knob. Under a
  /// rolling-back strategy only its 0 counts: the cache's checkpoints are
  /// then captured on the rollback spacing below. A pruned campaign's
  /// groups follow the grid (pruneKey), so campaignKey covers it then.
  static constexpr std::uint64_t kCkptAuto = ~0ull;
  std::uint64_t checkpointEveryInstrs = kCkptAuto;
  /// Rollback-ring spacing of rollback-strategy trials (DESIGN.md §4f):
  /// kCkptAuto means goldenInstrs/64, 0 keeps the entry checkpoint only.
  /// Semantic under rollback strategies (campaignKey), so it is its own
  /// knob: the replay cache stays a pure performance knob. A rolling-back
  /// campaign's replay checkpoints use this spacing, so at 0 it has none.
  std::uint64_t rollbackEveryInstrs = kCkptAuto;
  /// Safeguard recovery policy for CARE-attached trials (DESIGN.md §4f).
  /// Unlike the replay knob above this *does* change trial semantics for
  /// rollback strategies, so it participates in the campaign key (paper:
  /// repair only).
  core::RecoveryStrategy recover = core::RecoveryStrategy::Repair;
  /// Capacity of the per-trial rollback checkpoint ring (incl. the pinned
  /// entry checkpoint).
  std::size_t rollbackRingCap = vm::CheckpointRing::kDefaultCapacity;
  /// What gets corrupted (DESIGN.md §4i). Semantic: participates in the
  /// campaign key.
  FaultModel fault = FaultModel::Reg;
  /// ECC protection of a memory-model strike: the mode the trial passes to
  /// Memory::injectFault (the golden run strikes nothing). Semantic:
  /// participates in the campaign key.
  vm::EccMode ecc = vm::EccMode::Off;
  /// Equivalence-class campaign pruning (DESIGN.md §4j): group provably
  /// identical trials and run one representative per group, expanding its
  /// result to every member. The group-expanded deterministic records are
  /// byte-identical to the exhaustive campaign; `enabled` still joins the
  /// campaign key (a pruned store shard holds representative trials, and
  /// full-fidelity timings differ). Off by default.
  pareto::PruneOptions prune;
};

/// Drives golden profiling, injection sampling, and injected runs over one
/// loaded Image.
class Campaign {
public:
  Campaign(const vm::Image* image, CampaignConfig cfg);

  /// Golden (fault-free) profile: a plain golden run on the campaign's
  /// backend, then one profiled run that also captures the replay cache's
  /// checkpoints (with the cache off, the profiled run alone). Must be
  /// called once before sampling or injecting. Returns false if the
  /// program itself fails.
  bool profile();

  std::uint64_t goldenInstrs() const { return goldenInstrs_; }
  const std::vector<std::uint64_t>& goldenOutput() const {
    return goldenOutput_;
  }
  FaultModel faultModel() const { return cfg_.fault; }
  vm::EccMode eccMode() const { return cfg_.ecc; }
  const pareto::PruneOptions& pruneOptions() const { return cfg_.prune; }

  /// Equivalence-class key for campaign pruning (DESIGN.md §4j): two
  /// points with equal keys provably produce identical deterministic
  /// records, so the engine may run one and copy the record to the other.
  /// Classes: `dup` (identical point) and, for memory models, `deadmem`
  /// (the watch table says the golden run does not access the struck word
  /// from the start of the strike's replay segment on — the flip is never
  /// observed and the outcome is a pure function of model/ECC/bit
  /// pattern). A memory-model point is `deadmem` only after watch() was
  /// given its word.
  std::string pruneKey(const InjectionPoint& pt) const;

  /// One golden-run segment boundary of the replay cache: the full machine
  /// state at that boundary plus, for every injectable site, how many
  /// executions had completed by then (parallel to the sampling table).
  struct TrialCheckpoint {
    vm::Executor::ResumePoint rp;
    std::vector<std::uint64_t> siteCounts;
  };

  /// Resolved replay-cache segment length (0 = off; the rollback spacing
  /// under a rolling-back strategy) and the captured boundaries, valid
  /// after profile(). Read-only during trials, so safe to consult from
  /// campaign worker threads.
  std::uint64_t checkpointInterval() const { return ckptInterval_; }
  const std::vector<TrialCheckpoint>& checkpoints() const {
    return checkpoints_;
  }
  /// Resolved rollback-ring spacing of rollback-strategy trials, valid
  /// after profile() (campaignKey keys the knob it resolves from).
  std::uint64_t rollbackInterval() const { return rollbackInterval_; }
  /// Index of `loc` in the sampling table, or -1 when it is not an
  /// injectable site with a nonzero profile count.
  std::ptrdiff_t siteIndexOf(const vm::CodeLoc& loc) const;

  /// Sample an injection point: execution-weighted static instruction with
  /// a destination operand, uniform dynamic occurrence, random bit(s).
  InjectionPoint sample(Rng& rng) const;

  /// The watch pass (DESIGN.md §4i): one golden run on the campaign's
  /// backend that records, for every word a memory-model point in
  /// `points` strikes and every replay segment from the one holding its
  /// earliest strike, the kind of the golden run's first access to the
  /// word from the start of that segment on. Segment 0 starts at the
  /// entry, segment s > 0 at boundary s - 1; with no boundaries the run is
  /// one segment. The one golden access table: settling reads it at the
  /// boundaries, pruning's deadmem class at the strikes (pruneKey). It
  /// replaces the previous table; register-model campaigns keep none, nor
  /// do unpruned ones without replay boundaries. Every record is the same
  /// with or without it. Not thread-safe: call it before trials run, never
  /// concurrently with runInjection.
  void watch(const std::vector<InjectionPoint>& points) const;

  /// Run one injection. When `careArtifacts` is non-null a fresh Safeguard
  /// is constructed with those per-module artifacts and attached (the
  /// CARE-enabled configuration); `careStats`, if given, receives its
  /// stats, per-activation records included.
  ///
  /// A trial whose fault has fired probes every later golden boundary of
  /// the replay cache. It stops there when its state equals the golden
  /// one (convergence), or when it differs only in the struck word and
  /// the watch table says how the golden run next meets that word (the
  /// settle step: the word is left to the end-of-trial scrub, restored as
  /// the overwrite would, or checked now when the check restores the
  /// golden value). Either way its record is the one the run to the end
  /// gives. A point whose word the table does not hold only converges.
  InjectionResult runInjection(
      const InjectionPoint& pt,
      const std::map<std::int32_t, core::ModuleArtifacts>* careArtifacts =
          nullptr,
      core::SafeguardStats* careStats = nullptr) const;

  /// Does this MIR instruction have an injectable destination operand?
  static bool injectable(const backend::MInst& in);

  /// Flip `bits` of the destination operand of the instruction at `loc`
  /// in executor `ex` (called by the armed-injection hook).
  static void corruptDestination(vm::Executor& ex, const vm::CodeLoc& loc,
                                 const std::vector<unsigned>& bits);

private:
  /// The counting pass under the replay cache: run the profiled `ex` from
  /// entry to the golden count, capturing entry_ and a TrialCheckpoint
  /// (with one count per candidate) at every boundary.
  vm::RunResult buildCheckpoints(vm::Executor& ex,
                                 const std::vector<vm::CodeLoc>& candidates);
  /// The checkpoint runInjection(pt) should fast-forward through: the last
  /// one at which fewer than pt.nth executions of pt.loc had completed.
  /// Null when checkpointing is off, the site is unknown, or the fault
  /// site lies in the first segment.
  const TrialCheckpoint* replaySource(const InjectionPoint& pt) const;
  /// Same for memory-resident faults, keyed on absolute instruction time:
  /// the last checkpoint captured at or before `instrAt`.
  const TrialCheckpoint* replaySourceAt(std::uint64_t instrAt) const;
  /// The replay segment holding instruction time `t`: how many boundaries
  /// lie at or before it (segment s starts at boundary s - 1, or at the
  /// entry for s = 0).
  std::size_t segmentAt(std::uint64_t t) const;
  /// The settle step at golden boundary `gi` for a trial that differs
  /// from it only in the struck aligned `word` (runInjection). Returns the
  /// golden run's next access to the word when that decides the trial; it
  /// has then been applied to `e` (None: left to the scrub).
  std::optional<NextAccess> settle(vm::Executor& e, std::uint64_t word,
                                   std::size_t gi) const;
  /// Fill a rolling-back trial's ring as a from-entry run would have it
  /// just before pushing `restored`.
  void seedRing(vm::CheckpointRing& ring,
                const TrialCheckpoint* restored) const;

  const vm::Image* image_;
  CampaignConfig cfg_;
  /// The post-initMemory address space, captured once; every profiling /
  /// injection run CoW-forks it instead of re-running initMemory, so trial
  /// startup is O(mapped pages) and safe across campaign worker threads.
  vm::MemorySnapshot baseMem_;
  /// Sorted page numbers of baseMem_: the memory-fault site population.
  std::vector<std::uint64_t> pageNos_;
  std::uint64_t goldenInstrs_ = 0;
  std::vector<std::uint64_t> goldenOutput_;
  // Sampling table: injectable static instructions + cumulative exec counts.
  std::vector<vm::CodeLoc> sites_;
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> cumulative_;
  std::uint64_t totalWeight_ = 0;
  // Replay cache: golden-run segment boundaries every ckptInterval_
  // dynamic instructions (DESIGN.md §4c), and the entry. A rolling-back
  // campaign spaces them by rollbackInterval_, so each is a boundary its
  // trials' rings capture.
  std::uint64_t ckptInterval_ = 0;
  std::vector<TrialCheckpoint> checkpoints_;
  vm::Executor::ResumePoint entry_;
  // The watch table (DESIGN.md §4i): per struck word, the golden run's
  // first access from the start of each replay segment from `first` on
  // (next[s - first] for segment s). Built by watch(), read-only while
  // trials run.
  struct WatchedWord {
    std::size_t first = 0;
    std::vector<NextAccess> next;
  };
  mutable std::map<std::uint64_t, WatchedWord> watch_;
  // Rollback-ring boundary spacing for rollback-strategy trials (DESIGN.md
  // §4f), resolved from rollbackEveryInstrs — *not* from
  // checkpointEveryInstrs — so the replay cache stays a pure performance
  // knob (bit-identical records at any setting) under every strategy.
  // goldenInstrs_ + 1 when it resolves to 0 (entry checkpoint only).
  std::uint64_t rollbackInterval_ = 0;
};

} // namespace care::inject
