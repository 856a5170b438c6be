#include "support/env.hpp"

#include <limits>

namespace care {

std::optional<std::uint64_t> parseCount(std::string_view text) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (text.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : text) {
    const unsigned d = static_cast<unsigned>(c - '0');
    if (d > 9 || v > (kMax - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

} // namespace care
