// Parallel injection-campaign engine.
//
// Every table/figure bench funnels thousands of independent VM runs through
// one campaign; the trials are embarrassingly parallel and each trial's
// injection point is derived deterministically from the campaign seed, so
// the work shards across a worker pool without changing any reported
// number. The engine's contract:
//
//  * all InjectionPoints are pre-derived from the campaign RNG up front, in
//    the exact order the legacy serial loop drew them;
//  * trials execute on `threads` std::thread workers, each constructing its
//    own VM/Safeguard per trial and receiving a per-trial RNG stream forked
//    from (seed, trialIndex) — never from worker identity or schedule;
//  * records are merged back in trial-index order.
//
// Consequently the deterministic portion of every record (points, outcomes,
// signals, latencies, CARE recovery results) is bit-for-bit identical to
// the serial engine; only wall-clock microsecond timings vary, exactly as
// they do between two serial runs. `threads` — and `processes`, its
// multi-process sibling (service.hpp) — is a performance knob, not an
// experiment parameter, and deliberately stays out of the disk-cache key.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "inject/injector.hpp"
#include "vm/executor.hpp"

namespace care::inject {

struct InjectionRecord; // experiment.hpp; broken cycle, see below
struct ServiceConfig;   // service.hpp; ditto

/// Per-campaign execution telemetry. Emitted so BENCH_*.json trajectories
/// can track campaign throughput; never part of cached results.
struct CampaignTelemetry {
  /// "campaign" for the one-per-campaign summary record, or
  /// "campaign_progress" for the streaming snapshots the multi-process
  /// service emits while running. Only "campaign" records enter the
  /// process-wide log telemetrySummary() aggregates; every record goes to
  /// the telemetry sink.
  std::string event = "campaign";
  std::string workload;        // empty for anonymous (carecc) campaigns
  std::string level;           // "O0" / "O1" / ""
  /// Resolved interpreter backend ("ref"/"fast"/"jit") captured when the
  /// record is created. Telemetry-only: the backends are bit-identical, so
  /// the backend is deliberately NOT part of the experiment cache key.
  std::string interp = vm::interpName(vm::defaultInterp());
  int trials = 0;
  int threads = 1;             // workers actually used
  // Multi-process service + result store (DESIGN.md §4g); processes == 0
  // means the in-process engine ran and the shard counters are all zero.
  int processes = 0;           // forked worker processes
  int shards = 0;              // work units the campaign was split into
  int storeHits = 0;           // shards served from the result store
  int storeMisses = 0;         // shards probed but recomputed
  int shardsRequeued = 0;      // claims recovered from dead workers
  int workerRestarts = 0;      // crashed workers respawned
  int workersAlive = 0;        // live workers (progress events; 0 at end)
  int trialsDone = 0;          // committed trials (progress events)
  double etaSec = 0;           // remaining-work estimate (progress events)
  int careReruns = 0;          // SIGSEGV trials re-run with CARE attached
  bool fromCache = false;      // every shard was served from the store
  double profileMs = 0;        // Campaign::profile wall time (runExperiment)
  double watchMs = 0;          // Campaign::watch wall time on the
                               // coordinator (0 when no watch ran)
  double wallSec = 0;
  double trialsPerSec = 0;
  double workerBusySec = 0;    // sum of per-worker time inside trials
  double utilization = 0;      // workerBusySec / (wallSec * threads)
  std::uint64_t simInstrs = 0; // dynamic VM instructions actually executed
                               // across all trials (skipped golden
                               // instructions and cache hits excluded)
  double mips = 0;             // simInstrs / 1e6 / wallSec (0 on cache hit)
  // Replay cache (DESIGN.md §4c):
  std::uint64_t ckptCount = 0; // golden-run checkpoints held (0 = off)
  std::uint64_t replaySavedInstrs = 0; // golden instructions trials did
                                       // not execute: replayed prefixes and
                                       // tails after convergence
  double effectiveMips = 0;    // (simInstrs + replaySavedInstrs) / 1e6 /
                               // wallSec — as-if throughput incl. replay
  int settled = 0;             // runs (plain or CARE re-run) the watch
                               // table stopped at a golden boundary
  // Fig. 9 recovery-phase aggregate (DESIGN.md §4d): wall-time sums over
  // every Safeguard activation in the campaign's CARE re-runs, emitted as
  // the "recovery_phase_us" object in json(). All zero when no trial was
  // re-run with CARE.
  // Sentinel detectors (DESIGN.md §4e): trials whose plain run ended in a
  // detector trap, and their mean injection->trap distance in dynamic
  // instructions. Both zero when detectors are off.
  int detected = 0;
  double detectLatencyInstrs = 0;
  // Sampled detection + campaign pruning (DESIGN.md §4j). The counters are
  // always emitted (detect_sample "1", sites 0 when no Sentinel build is
  // associated, prune_* 0 when pruning is off) so consumers can validate
  // their presence unconditionally.
  std::string detectSample = "1"; // --detect-sample, e.g. "16@3"
  int sampledSites = 0;           // detector sites armed in this build
  int totalSites = 0;             // detector sites the sampler chose from
  int pruneGroups = 0;            // representative trials actually run
  int pruneWeightedTrials = 0;    // trials covered after group expansion
  int auditMismatches = 0;        // --prune-audit divergences (always 0:
                                  // a mismatch raises instead of counting)
  // Fault-model / ECC configuration and outcomes (DESIGN.md §4i). The
  // strings record what the campaign ran; the counters are always emitted
  // (zero under --fault=reg / CARE_ECC off) so telemetry consumers can
  // validate their presence unconditionally.
  std::string fault = "reg";    // faultModelName of the campaign
  std::string ecc = "off";      // eccModeName of the campaign
  int corrected = 0;            // trials whose plain outcome was Corrected
  std::uint64_t eccCorrected = 0;      // words fixed across all trials
  std::uint64_t eccUncorrectable = 0;  // double-bit detections across trials
  std::uint64_t recoveries = 0; // trials whose CARE re-run recovered
  // Rollback-domain recovery (DESIGN.md §4f); all zero under repair-only.
  std::uint64_t rollbacks = 0;  // checkpoint restores across CARE re-runs
  std::uint64_t rollbackReexecInstrs = 0; // instructions re-executed
  double rollbackUs = 0;        // checkpoint selection + restore wall time
  double recKeyUs = 0;          // PC -> key mapping
  double recLoadUs = 0;         // lazy artifact load + kernel lookup
  double recParamUs = 0;        // operand disassembly + parameter fetch
  double recKernelUs = 0;       // kernel execution incl. Fig. 11 retries
  double recPatchUs = 0;        // operand patch
  double recTotalUs = 0;        // whole activations (>= sum of phases)

  /// One JSON object on one line (the CARE_TELEMETRY sink format).
  std::string json() const;
};

/// Resolve an ExperimentConfig/CLI `threads` knob: 0 = hardware
/// concurrency, otherwise the requested count; always clamped to
/// [1, trials].
int resolveThreads(int requested, int trials);

/// Record the campaign in the process-wide telemetry log and, when a sink
/// is set, append `t.json()` to that file ("-" or "stderr" write to stderr
/// instead).
void publishTelemetry(const CampaignTelemetry& t);

/// The process-wide telemetry sink publishTelemetry appends to; "" (the
/// default) writes none. Set by the edge (CARE_TELEMETRY, inject/run_env).
void setTelemetrySink(const std::string& path);

/// Aggregate of the campaigns published so far, for one-line summaries
/// (bench mains print a footer from this).
struct TelemetrySummary {
  int executed = 0;         // campaigns not served whole from the store
  int cacheHits = 0;        // campaigns served whole (fromCache)
  int trials = 0;
  int threads = 0;          // max worker count used
  int processes = 0;        // max forked-worker count used
  std::string interp;       // backend of the last executed campaign
  int storeHits = 0;        // result-store shards served across campaigns
  int storeMisses = 0;
  int workerRestarts = 0;   // crashed workers respawned across campaigns
  double wallSec = 0;
  double workerBusySec = 0;
  std::uint64_t simInstrs = 0;
  std::uint64_t replaySavedInstrs = 0;
  double trialsPerSec() const { return wallSec > 0 ? trials / wallSec : 0; }
  double utilization() const;
  /// Aggregate simulated-instruction throughput (millions per wall second).
  double mips() const {
    return wallSec > 0 ? static_cast<double>(simInstrs) / 1e6 / wallSec : 0;
  }
  /// As-if throughput counting skipped golden instructions as simulated.
  double effectiveMips() const {
    return wallSec > 0 ? static_cast<double>(simInstrs + replaySavedInstrs) /
                             1e6 / wallSec
                       : 0;
  }
};
TelemetrySummary telemetrySummary();

/// A trial body: given the trial index and that trial's private RNG
/// stream, produce the record. Must be safe to call concurrently for
/// distinct indices (each call builds its own Executor/Safeguard).
using TrialFn = std::function<InjectionRecord(int trialIndex, Rng& trialRng)>;

/// The one way to run trial `i`: call `fn` with the trial's private RNG
/// stream, Rng::stream(seed, i), forked from the index alone.
InjectionRecord runTrialAt(const TrialFn& fn, std::uint64_t seed, int i);

/// The one in-process trial pool: run every trial index in `idx` on
/// resolveThreads(threads, idx.size()) std::thread workers (one worker runs
/// them in list order on the caller's thread), storing each record at
/// records[i]. Returns the worker busy seconds, summed per worker.
/// Exceptions thrown by a trial are rethrown on the caller's thread.
double runTrialPool(const std::vector<int>& idx, std::uint64_t seed,
                    int threads, const TrialFn& fn,
                    std::vector<InjectionRecord>& records);

/// Runs in `records`, plain runs and CARE re-runs, that the watch table
/// settled (InjectionResult::settled).
int settledRuns(const std::vector<InjectionRecord>& records);

/// Fill `t`'s record-derived aggregates (simInstrs, replaySavedInstrs,
/// detection, recovery/rollback counters, Fig. 9 phase sums, and the
/// wallSec-derived rates) from a finished record set. Semantic counters
/// (detected, recoveries, rollbacks, careReruns, ...) aggregate over *all*
/// records — they are deterministic record content; work/time counters
/// (simInstrs, replaySavedInstrs, recovery-phase micros) aggregate only
/// over trials executed this run, as flagged in `executed` (nullptr =
/// everything executed), so store-served shards don't inflate throughput.
/// Requires t.trials / t.threads / t.wallSec / t.workerBusySec to be set.
void aggregateRecordTelemetry(const std::vector<InjectionRecord>& records,
                              const std::vector<std::uint8_t>* executed,
                              CampaignTelemetry& t);

/// The experiment-harness campaign: pre-derive `injections` points from
/// Rng(seed) in serial order, run each plain, and — when `careArtifacts`
/// is non-null — re-run SIGSEGV soft failures with CARE attached.
/// `service` selects the execution engine: nullptr is the in-process engine
/// on `threads` workers with the store off; see service.hpp for the full
/// dispatch.
std::vector<InjectionRecord> runCampaign(
    const Campaign& campaign, int injections, std::uint64_t seed,
    int threads,
    const std::map<std::int32_t, core::ModuleArtifacts>* careArtifacts,
    CampaignTelemetry* telemetry, const ServiceConfig* service = nullptr);

/// The trial-execution tail of runCampaign, shared with perfbench: shard
/// `points.size()` trials over `service`, applying equivalence-class
/// pruning (DESIGN.md §4j) when the campaign's PruneOptions enable it.
/// `trial` must be a pure function of its index (it must ignore its Rng
/// parameter and return the record for points[i]) — runCampaign's and
/// carecc's trial closures both are. Does not set telemetry->ckptCount.
std::vector<InjectionRecord> runCampaignTrials(
    const Campaign& campaign, const std::vector<InjectionPoint>& points,
    std::uint64_t seed, const ServiceConfig& service, const TrialFn& trial,
    CampaignTelemetry* telemetry);

} // namespace care::inject
