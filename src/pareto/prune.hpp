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
//    golden run performs *no* access to W from the start of the replay
//    segment holding t to the end. The flip is never read back (loads
//    would consume it, stores/ECC checks would observe it), the run
//    completes on the golden path, and the outcome is fully determined by
//    (model, ECC mode, bit pattern): Benign under ECC-off,
//    Corrected/Detected per the SECDED verdict of the pattern under ECC.
//    This is the memory analogue of dead-destination grouping: the
//    fault's live range is empty.
//
// The dead-word class reads the campaign's one golden access table, the
// watch table (Campaign::watch, DESIGN.md §4i): per struck word, the
// golden run's first access from each replay boundary on, from the
// segment holding the word's earliest strike. The rule is conservative at
// segment granularity, and the groups follow the replay grid, so a pruned
// campaign's key covers the replay spacing. Register-model campaigns
// degenerate to dup-only grouping.
//
// --prune-audit=K spot-checks the equivalence claim: K deterministically
// chosen non-representative members are re-run exhaustively and their
// deterministic record bytes compared against the expanded copies; any
// divergence is a hard failure (care::Error), not a statistic.
#pragma once

#include <string>

namespace care::pareto {

/// Campaign-pruning knobs (--prune / CARE_PRUNE, --prune-audit /
/// CARE_PRUNE_AUDIT). `enabled` is semantic (cache + shard-store key:
/// a pruned campaign's shards hold representative trials, not raw trial
/// indices, and its groups follow the replay grid, so the key then covers
/// the replay spacing too); `auditK` is a pure verification knob and stays out of keys —
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

} // namespace care::pareto
