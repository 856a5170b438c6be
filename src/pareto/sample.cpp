#include "pareto/sample.hpp"

#include <cstdlib>

#include "support/env.hpp"
#include "support/error.hpp"

namespace care::pareto {

namespace {

[[noreturn]] void badSample(const std::string& s) {
  raise("unknown detect-sample '" + s +
        "' (expected a rate N >= 1, optionally with a rotation epoch as "
        "N@E, e.g. 1, 16 or 16@3)");
}

/// splitmix64 finalizer: spreads the structured site hash uniformly so
/// `% rate` slots are balanced even for small, correlated inputs.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

} // namespace

SampleConfig parseDetectSample(const std::string& s) {
  const std::size_t at = s.find('@');
  const auto rate = parseCount(std::string_view(s).substr(0, at));
  const auto epoch = at == std::string::npos
                         ? std::optional<std::uint64_t>(0)
                         : parseCount(std::string_view(s).substr(at + 1));
  if (!rate || *rate == 0 || !epoch) badSample(s);
  return SampleConfig{*rate, *epoch};
}

SampleConfig detectSampleFromEnv(const SampleConfig& fallback) {
  const char* s = std::getenv("CARE_DETECT_SAMPLE");
  if (!s || !*s) return fallback;
  return parseDetectSample(s);
}

std::string sampleName(const SampleConfig& cfg) {
  std::string n = std::to_string(cfg.rate);
  if (cfg.epoch != 0) n += "@" + std::to_string(cfg.epoch);
  return n;
}

std::uint64_t siteHash(const std::string& unit, const char* kind,
                       std::uint64_t ordinal) {
  // FNV-1a over the unit name and kind, then fold in the ordinal. The
  // final splitmix64 mix happens in armed() so the raw hash stays a
  // stable, debuggable site identity.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char* p = unit.c_str(); *p; ++p)
    h = (h ^ static_cast<std::uint8_t>(*p)) * 0x100000001b3ull;
  for (const char* p = kind; *p; ++p)
    h = (h ^ static_cast<std::uint8_t>(*p)) * 0x100000001b3ull;
  h ^= ordinal + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

bool armed(const SampleConfig& cfg, std::uint64_t hash) {
  if (cfg.rate <= 1) return true;
  return mix(hash) % cfg.rate == cfg.epoch % cfg.rate;
}

} // namespace care::pareto
