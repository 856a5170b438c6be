// Equivalence-class campaign pruning (DESIGN.md §4j).
//
// A campaign's trials are derived up front from the campaign RNG, and many
// of them are *provably* equivalent: executing one member of a group fully
// determines the records of the rest. The pruning layer groups injection
// points by a conservative equivalence key, runs one representative trial
// per group through the unchanged sharded engine, then expands the
// representative's result to every member — so the group-weight-expanded
// record stream is byte-identical (in the deterministic projection) to the
// exhaustive campaign on every engine (serial / threaded / multiprocess).
//
// Two equivalence classes are claimed, both provable rather than heuristic:
//
//  * dup — two points with the same (model, site/word, time, bit set) are
//    the same experiment; the engine derives points independently per
//    trial, so collisions are real for small site populations.
//  * deadmem — a memory-model fault striking word W at time t where the
//    traced golden run performs *no* access to W at or after t. The flip
//    is never read back (loads would consume it, stores/ECC checks would
//    observe it), the run completes on the golden path, and the outcome is
//    fully determined by (model, ECC mode, bit pattern): Benign under
//    ECC-off, Corrected/Detected per the SECDED verdict of the pattern
//    under ECC. This is the memory analogue of dead-destination grouping:
//    the fault's live range is empty.
//
// The dead-after-t table is built from one traced golden run: the VM's
// typed memory accessors record every touched aligned 64-bit word
// (memory.hpp setAccessTrace), drained at segment boundaries so each word
// gets a conservative "last access no later than" bound at segment
// granularity. Register-model campaigns degenerate to dup-only grouping.
//
// --prune-audit=K spot-checks the equivalence claim: K deterministically
// chosen non-representative members are re-run exhaustively and their
// deterministic record bytes compared against the expanded copies; any
// divergence is a hard failure (care::Error), not a statistic.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "vm/executor.hpp"

namespace care::pareto {

/// Campaign-pruning knobs (--prune / CARE_PRUNE, --prune-audit /
/// CARE_PRUNE_AUDIT). `enabled` is semantic (cache + shard-store key:
/// a pruned campaign's shards hold representative trials, not raw trial
/// indices); `auditK` is a pure verification knob and stays out of keys —
/// the audit re-derives members and must not perturb the records.
struct PruneOptions {
  bool enabled = false;
  int auditK = 0;
};

/// Parse a --prune / CARE_PRUNE value: on/off/1/0/true/false. Unknown
/// values are hard errors listing the valid forms.
bool parsePruneFlag(const std::string& s);

/// Parse a --prune-audit / CARE_PRUNE_AUDIT value: a non-negative integer.
int parsePruneAudit(const std::string& s);

/// Conservative per-word "no access at or after" table for one program,
/// built from a traced golden run (segment-granular: a word touched inside
/// segment [b, e) is recorded as possibly-accessed until e).
class MemoryLife {
public:
  /// Trace one golden run of `entry` on `image` starting from `initialMem`,
  /// splitting the run's `goldenInstrs` into `segments` bounded legs. The
  /// traced executor stays on an interpreter loop (the JIT driver defers
  /// to it while tracing is armed), so every typed access funnels through
  /// the recording accessors.
  void build(const vm::Image* image, const vm::MemorySnapshot& initialMem,
             const std::string& entry, std::uint64_t goldenInstrs,
             std::uint64_t segments = 256);

  /// True when no access touches the aligned word containing `addr` at or
  /// after dynamic-instruction time `t` — i.e. a fault injected at the
  /// boundary before instruction `t` is provably never observed.
  bool deadAfter(std::uint64_t addr, std::uint64_t t) const {
    const auto it = lastAccessEnd_.find(addr & ~7ull);
    return it == lastAccessEnd_.end() ? true : t >= it->second;
  }

  std::size_t trackedWords() const { return lastAccessEnd_.size(); }

  /// The traced word addresses (unordered) — the live-word population.
  /// Exposed for tests and benches that need a word the golden run
  /// provably touches.
  std::vector<std::uint64_t> words() const {
    std::vector<std::uint64_t> w;
    w.reserve(lastAccessEnd_.size());
    for (const auto& kv : lastAccessEnd_) w.push_back(kv.first);
    return w;
  }

private:
  /// word address -> exclusive upper bound on its last access time.
  std::unordered_map<std::uint64_t, std::uint64_t> lastAccessEnd_;
};

} // namespace care::pareto
