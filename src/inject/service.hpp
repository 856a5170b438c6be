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
//  * workers claim shard indices from a lock-free MPMC queue (ShmQueue) in
//    anonymous shared memory and publish their current claim in a per-seat
//    slot, so the coordinator always knows what a dead worker was holding;
//  * completed shards stream back over per-worker pipes as framed, md5-
//    sealed record batches; the coordinator commits them into the records
//    array at their trial indices, so the merged output is in trial order
//    and `serializeDeterministic` stays byte-identical to the serial and
//    threaded engines;
//  * a worker killed mid-shard — crash, SIGKILL, or one of our own escaped
//    faults — has its claimed shard requeued and is respawned up to a
//    bounded restart budget; whatever is still uncommitted when no worker
//    remains is executed inline by the coordinator, so the campaign always
//    completes with identical records.
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
  /// Crashed-worker respawns tolerated before the coordinator stops
  /// re-forking and finishes the remaining shards inline.
  int maxRestarts = 8;
  /// Test hook: the first worker to reach this trial index SIGKILLs itself
  /// (once per campaign, via a CAS in shared memory). -1 = off.
  int testKillAtTrial = -1;
  /// Test hook for the opposite window: the worker whose shard contains
  /// this trial index SIGKILLs itself *after* its result frame is fully on
  /// the pipe but *before* it releases its seat claim (once per campaign).
  /// The coordinator then observes a dead worker still claiming a committed
  /// shard — the requeue must be dropped as a duplicate, never recounted.
  /// -1 = off.
  int testKillAfterCommitTrial = -1;
};

/// Run trials 0..trials-1 per `svc` and return records in trial-index
/// order. Dispatch: result-store hits are served from disk; remaining
/// shards run on forked workers (svc.processes > 0) or the in-process
/// pool (runTrialPool); with the store off and processes == 0 there are
/// no shards and every trial goes to the pool. Exceptions from a trial
/// are (eventually — after the restart budget, for a
/// deterministically-throwing trial under workers) rethrown on the
/// caller's thread.
std::vector<InjectionRecord> runShardedTrials(int trials, std::uint64_t seed,
                                              const ServiceConfig& svc,
                                              const TrialFn& fn,
                                              CampaignTelemetry* telemetry);

} // namespace care::inject
