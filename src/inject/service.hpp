// Multi-process campaign service (DESIGN.md §4g).
//
// The in-process engine (engine.hpp) shards trials over std::thread workers
// inside one address space — which means one escaped fault, one bad
// allocation, one stray signal takes the whole campaign down. This layer
// splits a campaign into shard-granular work units executed by forked worker
// *processes*:
//
//  * the coordinator creates the golden snapshot / checkpoints once, then
//    forks workers that inherit them copy-on-write — no serialization of
//    the campaign state, no exec;
//  * the coordinator owns the queue of pending shards and dispatches one
//    shard at a time to each worker over its socketpair, so it always knows
//    what a dead worker was holding;
//  * a worker answers each shard with its sealed store entry
//    (shard::seal in result_store.hpp); the coordinator opens it once
//    against the shard the worker holds, commits the records at their
//    trial indices and writes those same bytes to the store, so the merged
//    output is in trial order and `serializeDeterministic` stays
//    byte-identical to the serial and threaded engines;
//  * a worker killed mid-shard — crash, SIGKILL, or one of our own escaped
//    faults — has its held shard requeued and is respawned up to a
//    bounded restart budget; whatever is still uncommitted when no worker
//    remains runs on the in-process pool, so the campaign always completes
//    with identical records.
//
// Layered on top: the shard-granular result store (result_store.hpp), which
// serves previously computed shards across runs, and streaming progress
// telemetry ("campaign_progress" events with trials/sec, ETA and per-worker
// liveness) published while the campaign runs.
#pragma once

#include <string>
#include <vector>

#include "inject/engine.hpp"

namespace care::inject {

/// How runShardedTrials executes a campaign. Built by runExperiment /
/// carecc from the knobs; tests construct it directly.
struct ServiceConfig {
  /// Forked worker processes. 0 = in-process engine (runTrialPool), the
  /// default.
  int processes = 0;
  /// In-process worker threads (engine.hpp semantics; also reported in
  /// telemetry when processes > 0, where each worker runs trials serially).
  int threads = 0;
  /// Result-store directory; empty = store off.
  std::string storeDir;
  /// Semantic campaign key (campaignKey); empty = store off. Must
  /// exclude the trial count and every pure performance knob, so
  /// overlapping campaigns share shards.
  std::string storeKey;
  /// Trials per work unit. Also the result store's entry granularity:
  /// reruns only hit entries written at the same shard size.
  int shardSize = 16;
  /// Test hook: the worker reaching this trial index SIGKILLs itself. Once
  /// per campaign: the coordinator arms it only on the first dispatch of
  /// the shard holding the trial. -1 = off.
  int testKillAtTrial = -1;
  /// Test hook for the opposite window: the worker whose shard contains
  /// this trial index SIGKILLs itself *after* its shard's entry is fully on
  /// the socket (once per campaign, armed like testKillAtTrial). The
  /// coordinator must commit the shard from the drained socket exactly
  /// once and requeue only what the worker was handed next. -1 = off.
  int testKillAfterCommitTrial = -1;
};

/// Run trials 0..trials-1 per `svc` and return records in trial-index
/// order. Dispatch: result-store hits are served from disk; remaining
/// shards run on forked workers (svc.processes > 0) or the in-process
/// pool (runTrialPool); with the store off and processes == 0 there are
/// no shards and every trial goes to the pool. Exceptions from a trial
/// are (eventually — after the restart budget, for a
/// deterministically-throwing trial under workers) rethrown on the
/// caller's thread. `executed`, when given, receives the per-trial mask of
/// trials this call ran (0 for store-served ones). `prepare`, when given,
/// runs once on the caller's thread before the first trial (and before any
/// worker forks), and only when some trial will run.
std::vector<InjectionRecord>
runShardedTrials(int trials, std::uint64_t seed, const ServiceConfig& svc,
                 const TrialFn& fn, CampaignTelemetry* telemetry,
                 std::vector<std::uint8_t>* executed = nullptr,
                 const std::function<void()>& prepare = {});

} // namespace care::inject
