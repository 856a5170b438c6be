#include "care/recovery_strategy.hpp"

#include "support/error.hpp"

namespace care::core {

const char* recoveryStrategyName(RecoveryStrategy s) {
  switch (s) {
  case RecoveryStrategy::Repair: return "repair";
  case RecoveryStrategy::Rollback: return "rollback";
  case RecoveryStrategy::RepairThenRollback: return "repair_then_rollback";
  case RecoveryStrategy::None: return "none";
  }
  return "?";
}

RecoveryStrategy parseRecoveryStrategy(const std::string& s) {
  if (s == "repair") return RecoveryStrategy::Repair;
  if (s == "rollback") return RecoveryStrategy::Rollback;
  if (s == "repair_then_rollback") return RecoveryStrategy::RepairThenRollback;
  if (s == "none") return RecoveryStrategy::None;
  raise("unknown recovery strategy '" + s +
        "' (expected repair, rollback, repair_then_rollback or none)");
}

} // namespace care::core
