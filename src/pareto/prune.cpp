#include "pareto/prune.hpp"

#include <limits>

#include "support/env.hpp"
#include "support/error.hpp"

namespace care::pareto {

bool parsePruneFlag(const std::string& s) {
  if (s == "on" || s == "1" || s == "true") return true;
  if (s == "off" || s == "0" || s == "false") return false;
  raise("unknown prune setting '" + s + "' (expected on, off, 1 or 0)");
}

int parsePruneAudit(const std::string& s) {
  constexpr std::uint64_t kMax = std::numeric_limits<int>::max();
  if (const auto k = parseCount(s); k && *k <= kMax)
    return static_cast<int>(*k);
  raise("unknown prune-audit count '" + s +
        "' (expected a non-negative integer, e.g. 0 or 8)");
}

void MemoryLife::build(const vm::Image* image,
                       const vm::MemorySnapshot& initialMem,
                       const std::string& entry, std::uint64_t goldenInstrs,
                       std::uint64_t segments) {
  lastAccessEnd_.clear();
  if (goldenInstrs == 0) return;
  if (segments == 0) segments = 1;
  vm::Executor ex(image, initialMem);
  ex.setBudget(goldenInstrs + 1);
  std::vector<std::uint64_t> sink;
  ex.memory().setAccessTrace(&sink);
  for (std::uint64_t k = 1; k <= segments; ++k) {
    // Ceiling-partition the run so the last boundary is exactly the end.
    const std::uint64_t stop = goldenInstrs * k / segments;
    if (stop <= ex.instrCount() && k < segments) continue;
    const vm::RunResult r = ex.runBounded(stop, entry);
    for (std::uint64_t w : sink) {
      auto [it, fresh] = lastAccessEnd_.emplace(w, stop);
      if (!fresh && it->second < stop) it->second = stop;
    }
    sink.clear();
    if (r.status != vm::RunStatus::BudgetExceeded) break; // run completed
  }
  ex.memory().setAccessTrace(nullptr);
}

} // namespace care::pareto
