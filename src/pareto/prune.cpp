#include "pareto/prune.hpp"

#include <cstdint>
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

} // namespace care::pareto
