// Safeguard: CARE's runtime recovery service (paper §3.4, Algorithm 1).
//
// Attached to an Executor as its trap hook — the analogue of installing a
// SIGSEGV handler via LD_PRELOAD. Dormant until a fault arrives; then it:
//   1. locates the faulting PC (dladdr analogue: which module?),
//   2. maps PC -> (file,line,col) through the module's line table and
//      MD5-hashes the tuple into the Recovery Table key,
//   3. lazily loads the Recovery Table and the recovery library (both
//      deserialized from files, exactly the paper's dlopen-on-demand cost
//      structure; both are released again after the repair),
//   4. fetches kernel arguments out of the stalled machine state using
//      DWARF-style variable locations (register / frame slot / frame addr),
//   5. executes the recovery kernel to recompute the intended address,
//   6. refuses to patch if the recomputed address equals the faulting one
//      (kernel inputs were themselves contaminated -> no SDC substitution),
//   7. disassembles the faulting instruction's memory operand and patches
//      the index register (base register as fallback), then resumes.
//
// Each activation is timed at phase granularity (keying / artifact load /
// parameter fetch / kernel execution / patch) for the Fig. 9 breakdown,
// and the phases are mirrored as trace spans (support/trace.hpp) when
// tracing is enabled.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "care/recovery_strategy.hpp"
#include "care/recovery_table.hpp"
#include "ir/module.hpp"
#include "vm/executor.hpp"

namespace care::vm {
class CheckpointRing;
}

namespace care::core {

/// Files produced by Armor for one module (see driver.hpp).
struct ModuleArtifacts {
  std::string tablePath;
  std::string libPath;
};

/// Stable reason codes for Safeguard failures. SafeguardStats::failures is
/// keyed by failCodeName(code) — a closed set — so a long campaign cannot
/// grow an unbounded map out of parameter-specific reason strings; the
/// detailed text (which may embed a parameter name) stays in the record.
enum class FailCode : std::uint8_t {
  PcNotInModule,
  ModuleNotCompiled,
  NoDebugLoc,
  BadDebugFileId,
  ArtifactLoadFailed,
  NoKernelForKey,
  KernelSymbolMissing,
  NoMemoryOperand,
  GlobalParamMissing,
  ParamUnavailable,
  KernelFailed,
  SdcGuardTripped,
  NoPatchableOperand,
  RecoveryDisabled,         // strategy forbids both repair and rollback
  NoCheckpointForRollback,  // no ring armed / no checkpoint below the fault
  RollbackLimitReached,     // maxRollbacks cap hit
};

/// Stable human-readable name for `c` (a string literal; also the
/// SafeguardStats::failures map key).
const char* failCodeName(FailCode c);

/// One Safeguard activation (a single trap), for Fig. 9's timing breakdown.
/// The five phase fields are cut on one boundary-timestamp timeline, so on
/// a recovered record they tile the activation:
///   keyUs + loadUs + paramUs + kernelUs + patchUs <= totalUs
/// with the gap being only record construction and artifact release. On a
/// failure record, phases the activation never reached stay 0.
struct RecoveryRecord {
  bool recovered = false;
  FailCode failCode = FailCode::PcNotInModule; // valid when !recovered
  std::string failReason;        // empty when recovered; on a rolled-back
                                 // record: why repair did not handle it
  double totalUs = 0;            // wall time of the whole activation
  double keyUs = 0;              // PC -> module -> (file,line,col) -> key
  double loadUs = 0;             // lazy table/library load + kernel lookup
  double paramUs = 0;            // operand disassembly + parameter fetch
  double kernelUs = 0;           // kernel execution incl. Fig. 11 retries
  double patchUs = 0;            // operand patch
  bool usedIvAlt = false;        // Fig. 11 peer-recomputation used
  std::uint64_t pc = 0;
  std::uint64_t faultAddr = 0;
  std::uint64_t patchedAddr = 0;
  // Rollback-domain recovery (DESIGN.md §4f): set when the activation
  // ended in a checkpoint restore instead of (or after a failed) repair.
  bool rolledBack = false;
  std::uint64_t rollbackToInstr = 0; // restored checkpoint's instrCount
  std::uint64_t discardedInstrs = 0; // fault instrCount - rollbackToInstr:
                                     // work the re-execution must redo
  double rollbackUs = 0;             // checkpoint selection + CoW restore
};

struct SafeguardStats {
  std::uint64_t activations = 0;
  std::uint64_t recovered = 0;
  std::uint64_t rollbacks = 0;       // checkpoint restores performed
  std::uint64_t ivAltRecoveries = 0; // Fig. 11 extension successes
  std::uint64_t droppedRecords = 0;  // activations past the maxRecords cap
  std::map<std::string, std::uint64_t> failures; // failCodeName -> count
  std::vector<RecoveryRecord> records;
};

class Safeguard {
public:
  /// Register Armor's artifacts for module `moduleIdx` of the image.
  void addModule(std::int32_t moduleIdx, ModuleArtifacts artifacts);

  /// Which register of a base+index*scale operand to patch first. The paper
  /// defaults to the index register ("computed more frequently ... more
  /// likely to experience faults", §3.4); BaseFirst is the ablation.
  enum class PatchTarget : std::uint8_t { IndexFirst, BaseFirst };
  void setPatchTarget(PatchTarget t) { patchTarget_ = t; }

  /// Cap on stats().records. Counters (activations, failures, recovered)
  /// keep counting past the cap; further per-activation records are
  /// dropped and tallied in stats().droppedRecords, so a long-lived
  /// Safeguard's memory stays bounded.
  void setMaxRecords(std::size_t n) { maxRecords_ = n; }

  /// Recovery policy for onTrap (DESIGN.md §4f). Default: the paper's
  /// kernel repair only.
  void setStrategy(RecoveryStrategy s) { strategy_ = s; }
  RecoveryStrategy strategy() const { return strategy_; }

  /// Arm checkpoint rollback with `ring` (not owned; must outlive the
  /// executor's run). Without a ring, rollback strategies fail with
  /// FailCode::NoCheckpointForRollback. Restore targets march strictly
  /// backwards across activations (a restored-to checkpoint is never
  /// restored past again), so a contaminated checkpoint that re-traps
  /// cascades toward the pinned entry state and the cascade terminates.
  void setRollbackSource(vm::CheckpointRing* ring) { ring_ = ring; }

  /// Install as `ex`'s trap hook. The Safeguard must outlive the executor's
  /// run.
  void attach(vm::Executor& ex);

  const SafeguardStats& stats() const { return stats_; }

private:
  vm::TrapAction onTrap(vm::Executor& ex, const vm::Trap& trap);
  /// Phases 1-5 of Algorithm 1. Fills `rec`'s phase timings and, on
  /// failure, failCode/failReason; mutates no stats (the caller commits
  /// the outcome). Returns true iff the machine state was patched.
  bool tryRepair(vm::Executor& ex, const vm::Trap& trap, RecoveryRecord& rec,
                 std::chrono::steady_clock::time_point t0);
  /// Restore the latest eligible ring checkpoint below both the fault and
  /// the rollback floor. Fills the rollback fields of `rec`; mutates no
  /// stats. Returns true iff the executor was rewound.
  bool tryRollback(vm::Executor& ex, RecoveryRecord& rec);
  void pushRecord(RecoveryRecord&& rec);

  std::map<std::int32_t, ModuleArtifacts> modules_;
  PatchTarget patchTarget_ = PatchTarget::IndexFirst;
  std::size_t maxRecords_ = 65536;
  RecoveryStrategy strategy_ = RecoveryStrategy::Repair;
  vm::CheckpointRing* ring_ = nullptr;
  std::uint32_t rollbackCount_ = 0;
  /// Strictly-decreasing ceiling on restore targets (see
  /// setRollbackSource).
  std::uint64_t rollbackFloor_ = ~0ull;
  SafeguardStats stats_;
};

/// Patch the memory operand `mem` (whose global component, if any, resolves
/// to `gaddr`) in machine state `st` so that re-executing the instruction
/// computes `newAddr`. Prefers the register order `target` asks for; an
/// operand with `scale == 0` (only possible in a corrupt or hand-built
/// MemRef — the backend always emits >= 1) is index-unpatchable and falls
/// through to the base register. Never patches the frame/stack pointers.
/// Returns true iff a register was written.
bool patchAddressOperand(vm::MachineState& st, const backend::MemRef& mem,
                         std::uint64_t gaddr, std::uint64_t newAddr,
                         Safeguard::PatchTarget target);

} // namespace care::core
