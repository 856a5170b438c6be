#include "vm/checkpoint_ring.hpp"

namespace care::vm {

void CheckpointRing::clear() {
  entry_.reset();
  ring_.clear();
  evicted_ = 0;
}

void CheckpointRing::push(Executor::ResumePoint rp) {
  if (!entry_) {
    entry_ = std::move(rp);
    return;
  }
  // Stale futures: a rollback rewound the executor, so boundaries at or
  // past this instrCount describe a discarded execution.
  while (!ring_.empty() && ring_.back().instrCount >= rp.instrCount)
    ring_.pop_back();
  if (entry_->instrCount >= rp.instrCount) return; // grid never goes there
  ring_.push_back(std::move(rp));
  while (ring_.size() + 1 > capacity_ && !ring_.empty()) {
    ring_.pop_front();
    ++evicted_;
  }
}

const Executor::ResumePoint*
CheckpointRing::latestBefore(std::uint64_t instrCount) const {
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it)
    if (it->instrCount < instrCount) return &*it;
  if (entry_ && entry_->instrCount < instrCount) return &*entry_;
  return nullptr;
}

void CheckpointRing::dropAfter(std::uint64_t instrCount) {
  while (!ring_.empty() && ring_.back().instrCount > instrCount)
    ring_.pop_back();
  if (entry_ && entry_->instrCount > instrCount) entry_.reset();
}

RunResult runCheckpointed(Executor& ex, const std::string& entry,
                          std::uint64_t interval, std::uint64_t finalBudget,
                          const std::function<void(Executor&)>& onBoundary,
                          std::span<const ScheduledEvent> events) {
  ex.setBudget(finalBudget);
  // The first periodic boundary is the entry: with the stop bound already
  // met, run() performs its entry setup (frame, halt sentinel) and returns
  // BudgetExceeded before executing an instruction — the resulting
  // position is started and restorable, unlike a never-run executor's.
  // runBounded() is the shared exact-stop mechanism (the replay cache uses
  // it too), so every stop lands on the same instruction on every backend.
  constexpr std::uint64_t kNone = ~0ull;
  std::uint64_t next = interval > 0 ? ex.instrCount() : kNone;
  auto event = events.begin();
  for (;;) {
    const bool periodic =
        next < finalBudget && (event == events.end() || next <= event->at);
    if (!periodic && event == events.end()) break;
    const RunResult r = ex.runBounded(periodic ? next : event->at, entry);
    if (r.status != RunStatus::BudgetExceeded) return r;
    if (periodic) {
      onBoundary(ex);
      next += interval;
    } else {
      (event++)->fire(ex);
    }
  }
  return runToCompletion(ex, entry);
}

} // namespace care::vm
