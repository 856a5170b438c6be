// Strict decimal counts for numeric knobs.
//
// A lenient strtoull/atoi turns "eight" into 0 and "5k" into 5 without a
// word, and several CARE_* counts change campaign records (ring capacity,
// rollback spacing). Every numeric knob parses through parseCount instead.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace care {

/// `text` as a non-negative decimal count, or nullopt on empty text, any
/// character other than a digit (sign, space, suffix, "0x") and values
/// that overflow 64 bits.
std::optional<std::uint64_t> parseCount(std::string_view text);

/// Environment variable `name` through parseCount, or `fallback` when it
/// is unset or empty. Throws care::Error naming the variable otherwise.
std::uint64_t envCount(const char* name, std::uint64_t fallback);

} // namespace care
