// RecoveryStrategy: what Safeguard does when a fault arrives.
//
// The paper's system has exactly one answer — repair the faulting address
// with a recovery kernel (§3.4). PAPERS.md's rollback-domain line of work
// (Unlimited Lives; Secure Rewind and Discard) motivates a second one:
// discard the damaged state and rewind to a known-good checkpoint. The
// knob below selects the policy; it is threaded from `carecc --recover=` /
// `CARE_RECOVER` (read at the edge, inject/run_env.hpp) through
// ArmorOptions and CampaignConfig into Safeguard::onTrap (DESIGN.md §4f).
#pragma once

#include <cstdint>
#include <string>

namespace care::core {

enum class RecoveryStrategy : std::uint8_t {
  /// Kernel repair only (the paper's system). Unrecoverable faults
  /// propagate.
  Repair,
  /// Checkpoint rollback only: never patch, always rewind and re-execute.
  Rollback,
  /// Kernel repair first; when it fails (contaminated inputs, missing
  /// kernel, SDC guard), fall back to rollback.
  RepairThenRollback,
  /// Observe-only: Safeguard activates and records, but every fault
  /// propagates (the no-recovery baseline of bench_rollback_strategy).
  None,
};

/// Stable name used by the CLI, the env knob and telemetry:
/// "repair" / "rollback" / "repair_then_rollback" / "none".
const char* recoveryStrategyName(RecoveryStrategy s);

/// Parse a recoveryStrategyName() string. Throws care::Error on anything
/// else.
RecoveryStrategy parseRecoveryStrategy(const std::string& s);

/// Does `s` ever attempt a checkpoint rollback?
inline bool strategyRollsBack(RecoveryStrategy s) {
  return s == RecoveryStrategy::Rollback ||
         s == RecoveryStrategy::RepairThenRollback;
}

/// Does `s` ever attempt a kernel repair?
inline bool strategyRepairs(RecoveryStrategy s) {
  return s == RecoveryStrategy::Repair ||
         s == RecoveryStrategy::RepairThenRollback;
}

} // namespace care::core
