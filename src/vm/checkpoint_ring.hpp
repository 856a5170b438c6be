// CheckpointRing: a bounded ring of ResumePoints any Executor run can arm.
//
// PR 3's replay cache proved the capture mechanism: the budget check fires
// *before* an instruction executes, so `setBudget(next); run()` stops on an
// exact dynamic-instruction boundary and re-running resumes in place, with
// zero changes to either interpreter loop. This file extracts that driver
// out of Campaign::profile() so it also serves the rollback-domain
// recovery strategy (DESIGN.md §4f): runCheckpointed() pauses a run every
// `interval` instructions for the caller to capture state, plus at any
// one-shot events it is given (the campaign's memory strike), and
// CheckpointRing holds the captures in bounded memory — the entry
// checkpoint is pinned (a fault before the first periodic boundary falls
// back to a from-entry re-execution) while periodic slots evict oldest
// first.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>

#include "vm/executor.hpp"

namespace care::vm {

class CheckpointRing {
public:
  static constexpr std::size_t kDefaultCapacity = 8;

  /// `capacity` counts total held checkpoints, entry slot included, and is
  /// clamped to >= 1 (the entry slot alone).
  explicit CheckpointRing(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  std::size_t capacity() const { return capacity_; }
  /// Held checkpoints (entry + periodic).
  std::size_t size() const { return (entry_ ? 1 : 0) + ring_.size(); }
  bool hasEntry() const { return entry_.has_value(); }
  /// Periodic checkpoints dropped to stay within capacity (ring pressure
  /// only; stale futures removed by push()/dropAfter() are not counted).
  std::uint64_t evicted() const { return evicted_; }

  void clear();

  /// Capture `ex`'s current position. Only meaningful between run() calls
  /// (an exact budget boundary). The first push lands in the pinned entry
  /// slot; later pushes append to the periodic ring, evicting the oldest
  /// periodic checkpoint when full. A push at an instrCount <= an already
  /// held periodic checkpoint first drops those stale futures (they were
  /// captured on a timeline a rollback has since discarded).
  void push(Executor& ex) { push(ex.resumePoint()); }
  void push(Executor::ResumePoint rp);

  /// Latest held checkpoint with instrCount strictly below `instrCount`,
  /// or nullptr. Strictness makes a fault exactly on a checkpoint boundary
  /// roll back to the *previous* state, never to the boundary the faulting
  /// instruction itself was counted into.
  const Executor::ResumePoint* latestBefore(std::uint64_t instrCount) const;

  /// Drop every held checkpoint with instrCount strictly greater than
  /// `instrCount` — after a rollback, checkpoints captured past the
  /// restore target belong to the discarded (possibly contaminated)
  /// execution. The entry slot is dropped too if it qualifies.
  void dropAfter(std::uint64_t instrCount);

private:
  std::size_t capacity_;
  std::optional<Executor::ResumePoint> entry_;
  std::deque<Executor::ResumePoint> ring_; // ascending instrCount
  std::uint64_t evicted_ = 0;
};

/// A one-shot stop in a runCheckpointed() schedule: when the run reaches
/// absolute instruction count `at`, call `fire(ex)` (a memory strike).
struct ScheduledEvent {
  std::uint64_t at = 0;
  std::function<void(Executor&)> fire;
};

/// Drive `ex` from `entry` to completion (or trap / finalBudget) by walking
/// one sorted schedule of exact runBounded() stops, then run the rest in
/// one piece:
///  * periodic boundaries every `interval` dynamic instructions, each
///    invoking `onBoundary(ex)` — the caller captures whatever it needs (a
///    TrialCheckpoint, a ring push). The first boundary is the *entry*
///    position: run() performs its entry setup under an already-met budget
///    and stops before instruction 0, so the capture is a started,
///    restorable ResumePoint. Boundaries stay on the absolute instrCount
///    grid even if a trap hook rewinds the executor mid-segment
///    (rollback): the segment still runs to its original boundary.
///    interval == 0 schedules none;
///  * the one-shot `events`, ascending by `at`. At an equal count the
///    periodic boundary comes first.
/// With no boundaries and no events this is a single runToCompletion().
RunResult runCheckpointed(Executor& ex, const std::string& entry,
                          std::uint64_t interval, std::uint64_t finalBudget,
                          const std::function<void(Executor&)>& onBoundary,
                          std::span<const ScheduledEvent> events = {});

} // namespace care::vm
