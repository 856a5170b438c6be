// Shared plumbing for the table/figure benches.
//
// Campaign sizes follow the paper's scaled-down defaults (DESIGN.md §2):
// CARE_INJECTIONS overrides the per-workload injection count (paper used
// 10000 for Tables 2-4 and 1000-2000 SIGSEGV points for Fig 7), CARE_SEED
// the campaign seed. The campaign knobs every CARE program shares
// (CARE_THREADS, CARE_PROCS, CARE_FAULT, ...; README.md) come from the one
// reader, inject/run_env.hpp, through env(). Campaign results land in the
// shard result store under care_artifacts/store, so re-running a bench — or
// another bench sharing the same campaign — skips the trials. Set
// CARE_TELEMETRY to a path (or "-") to collect one JSON line per campaign.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "inject/experiment.hpp"
#include "inject/run_env.hpp"
#include "support/env.hpp"
#include "workloads/workloads.hpp"

namespace care::bench {

/// The benches' one environment accessor: `name`'s value, or nullopt when
/// it is unset or empty.
inline std::optional<std::string> envStr(const char* name) {
  const char* v = std::getenv(name);
  if (!v || !*v) return std::nullopt;
  return std::string(v);
}

[[noreturn]] inline void badEnv(const std::string& what) {
  std::fprintf(stderr, "bench: %s\n", what.c_str());
  std::exit(2);
}

/// A bench-only count (CARE_INJECTIONS, CARE_SEED, repetition counts)
/// through parseCount, or `fallback` when unset; anything else exits 2
/// naming the variable.
inline int envInt(const char* name, int fallback) {
  const std::optional<std::string> v = envStr(name);
  if (!v) return fallback;
  const std::optional<std::uint64_t> n = parseCount(*v);
  if (!n || *n > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
    badEnv("bad " + std::string(name) + " '" + *v +
           "' (expected a non-negative decimal integer)");
  return static_cast<int>(*n);
}

/// The shared CARE_* knobs, read once; the first call also installs their
/// process-wide settings (backend, trace, telemetry sink). A malformed
/// variable exits 2.
inline const inject::RunEnv& env() {
  static const inject::RunEnv e = [] {
    try {
      inject::RunEnv r = inject::readRunEnv();
      r.install();
      return r;
    } catch (const Error& err) {
      badEnv(err.what());
    }
  }();
  return e;
}

inline inject::ExperimentConfig baseConfig(opt::OptLevel level,
                                           unsigned bits = 1) {
  inject::ExperimentConfig cfg;
  env().apply(cfg);
  cfg.level = level;
  cfg.bits = bits;
  cfg.seed = static_cast<std::uint64_t>(envInt("CARE_SEED", 2026));
  cfg.injections = envInt("CARE_INJECTIONS", 400);
  return cfg;
}

/// A CampaignConfig with the shared knobs applied, for benches that drive
/// a Campaign directly.
inline inject::CampaignConfig campaignConfig() {
  inject::CampaignConfig c;
  env().apply(c);
  return c;
}

inline void header(const std::string& title, const std::string& paperRef) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(reproduces %s; shape comparison, not absolute numbers)\n\n",
              paperRef.c_str());
}

/// Campaign-engine telemetry trailer, printed by every bench main. Shows
/// where the wall time went and what the worker pool delivered; silent
/// when every campaign was a cache hit and nothing executed.
inline void footer() {
  const inject::TelemetrySummary s = inject::telemetrySummary();
  if (s.executed == 0 && s.cacheHits == 0) return;
  std::printf("\n[campaign engine] %d campaign(s) executed, %d cache "
              "hit(s)",
              s.executed, s.cacheHits);
  if (s.executed > 0)
    std::printf("; %d trials in %.2fs wall (%.1f trials/s, %.1f MIPS, "
                "interp=%s, threads=%d, utilization %.0f%%)",
                s.trials, s.wallSec, s.trialsPerSec(), s.mips(),
                s.interp.c_str(), s.threads, 100.0 * s.utilization());
  std::printf("\n");
}

inline const char* levelName(opt::OptLevel l) {
  return l == opt::OptLevel::O0 ? "O0" : "O1";
}

} // namespace care::bench
