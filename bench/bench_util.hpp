// Shared plumbing for the table/figure benches.
//
// Campaign sizes follow the paper's scaled-down defaults (DESIGN.md §2):
// CARE_INJECTIONS overrides the per-workload injection count (paper used
// 10000 for Tables 2-4 and 1000-2000 SIGSEGV points for Fig 7), CARE_SEED
// the campaign seed, CARE_THREADS the campaign worker count (0/unset =
// hardware concurrency, 1 = serial; any value yields identical records).
// Results are cached under care_artifacts/, so re-running a bench — or
// another bench sharing the same campaign — is instant. Set CARE_TELEMETRY
// to a path (or "-") to collect one JSON line per campaign.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "inject/experiment.hpp"
#include "workloads/workloads.hpp"

namespace care::bench {

inline int envInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : fallback;
}

inline inject::ExperimentConfig baseConfig(opt::OptLevel level,
                                           unsigned bits = 1) {
  inject::ExperimentConfig cfg;
  cfg.level = level;
  cfg.bits = bits;
  cfg.seed = static_cast<std::uint64_t>(envInt("CARE_SEED", 2026));
  cfg.injections = envInt("CARE_INJECTIONS", 400);
  cfg.threads = envInt("CARE_THREADS", 0);
  return cfg;
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
