#include "inject/engine.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "inject/experiment.hpp"
#include "inject/service.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

namespace care::inject {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Append `"key":<formatted value>` — telemetry JSON is built by string
/// concatenation so arbitrarily long workload/level names can't truncate
/// the record (the old fixed snprintf buffer clipped silently).
template <typename... Args>
void jsonField(std::string& out, const char* key, const char* fmt,
               Args... args) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  out += '"';
  out += key;
  out += "\":";
  out += buf;
}

std::mutex gTelemetryMutex;
std::string gTelemetrySink; // guarded by gTelemetryMutex
std::vector<CampaignTelemetry>& telemetryLog() {
  static std::vector<CampaignTelemetry> log;
  return log;
}

} // namespace

std::string CampaignTelemetry::json() const {
  std::string out = "{\"event\":\"";
  appendJsonEscaped(out, event);
  out += "\",\"workload\":\"";
  appendJsonEscaped(out, workload);
  out += "\",\"level\":\"";
  appendJsonEscaped(out, level);
  out += "\",\"interp\":\"";
  appendJsonEscaped(out, interp);
  out += "\",";
  jsonField(out, "trials", "%d,", trials);
  jsonField(out, "threads", "%d,", threads);
  jsonField(out, "processes", "%d,", processes);
  jsonField(out, "shards", "%d,", shards);
  jsonField(out, "store_hits", "%d,", storeHits);
  jsonField(out, "store_misses", "%d,", storeMisses);
  jsonField(out, "shards_requeued", "%d,", shardsRequeued);
  jsonField(out, "worker_restarts", "%d,", workerRestarts);
  jsonField(out, "workers_alive", "%d,", workersAlive);
  jsonField(out, "trials_done", "%d,", trialsDone);
  jsonField(out, "eta_sec", "%.3f,", etaSec);
  jsonField(out, "care_reruns", "%d,", careReruns);
  out += "\"from_cache\":";
  out += fromCache ? "true," : "false,";
  jsonField(out, "profile_ms", "%.3f,", profileMs);
  jsonField(out, "watch_ms", "%.3f,", watchMs);
  jsonField(out, "wall_sec", "%.6f,", wallSec);
  jsonField(out, "trials_per_sec", "%.2f,", trialsPerSec);
  jsonField(out, "worker_busy_sec", "%.6f,", workerBusySec);
  jsonField(out, "utilization", "%.4f,", utilization);
  jsonField(out, "sim_instrs", "%llu,",
            static_cast<unsigned long long>(simInstrs));
  jsonField(out, "mips", "%.2f,", mips);
  jsonField(out, "ckpt_count", "%llu,",
            static_cast<unsigned long long>(ckptCount));
  jsonField(out, "replay_saved_instrs", "%llu,",
            static_cast<unsigned long long>(replaySavedInstrs));
  jsonField(out, "effective_mips", "%.2f,", effectiveMips);
  jsonField(out, "settled", "%d,", settled);
  jsonField(out, "detected", "%d,", detected);
  jsonField(out, "detect_latency_instrs", "%.1f,", detectLatencyInstrs);
  out += "\"detect_sample\":\"";
  appendJsonEscaped(out, detectSample);
  out += "\",";
  jsonField(out, "sampled_sites", "%d,", sampledSites);
  jsonField(out, "total_sites", "%d,", totalSites);
  jsonField(out, "prune_groups", "%d,", pruneGroups);
  jsonField(out, "prune_weighted_trials", "%d,", pruneWeightedTrials);
  jsonField(out, "audit_mismatches", "%d,", auditMismatches);
  out += "\"fault\":\"";
  appendJsonEscaped(out, fault);
  out += "\",\"ecc\":\"";
  appendJsonEscaped(out, ecc);
  out += "\",";
  jsonField(out, "corrected", "%d,", corrected);
  jsonField(out, "ecc_corrected", "%llu,",
            static_cast<unsigned long long>(eccCorrected));
  jsonField(out, "ecc_uncorrectable", "%llu,",
            static_cast<unsigned long long>(eccUncorrectable));
  jsonField(out, "recoveries", "%llu,",
            static_cast<unsigned long long>(recoveries));
  jsonField(out, "rollbacks", "%llu,",
            static_cast<unsigned long long>(rollbacks));
  jsonField(out, "rollback_reexec_instrs", "%llu,",
            static_cast<unsigned long long>(rollbackReexecInstrs));
  jsonField(out, "rollback_us", "%.3f,", rollbackUs);
  out += "\"recovery_phase_us\":{";
  jsonField(out, "key", "%.3f,", recKeyUs);
  jsonField(out, "artifact_load", "%.3f,", recLoadUs);
  jsonField(out, "param_fetch", "%.3f,", recParamUs);
  jsonField(out, "kernel", "%.3f,", recKernelUs);
  jsonField(out, "patch", "%.3f,", recPatchUs);
  jsonField(out, "total", "%.3f", recTotalUs);
  out += "}}";
  return out;
}

int resolveThreads(int requested, int trials) {
  int n = requested;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;
  if (trials >= 1 && n > trials) n = trials;
  return n < 1 ? 1 : n;
}

void publishTelemetry(const CampaignTelemetry& t) {
  std::lock_guard<std::mutex> lock(gTelemetryMutex);
  // Streaming progress snapshots go to the sink only: the log (and thus
  // telemetrySummary / bench footers) counts each campaign exactly once.
  if (t.event == "campaign") telemetryLog().push_back(t);
  if (gTelemetrySink.empty()) return;
  const std::string line = t.json();
  if (gTelemetrySink == "-" || gTelemetrySink == "stderr") {
    std::fprintf(stderr, "%s\n", line.c_str());
    return;
  }
  if (std::FILE* f = std::fopen(gTelemetrySink.c_str(), "a")) {
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
  }
}

void setTelemetrySink(const std::string& path) {
  std::lock_guard<std::mutex> lock(gTelemetryMutex);
  gTelemetrySink = path;
}

double TelemetrySummary::utilization() const {
  return wallSec > 0 && threads > 0 ? workerBusySec / (wallSec * threads)
                                    : 0;
}

TelemetrySummary telemetrySummary() {
  std::lock_guard<std::mutex> lock(gTelemetryMutex);
  TelemetrySummary s;
  for (const CampaignTelemetry& t : telemetryLog()) {
    if (t.fromCache) {
      ++s.cacheHits;
      continue;
    }
    ++s.executed;
    s.trials += t.trials;
    s.wallSec += t.wallSec;
    s.workerBusySec += t.workerBusySec;
    s.simInstrs += t.simInstrs;
    s.replaySavedInstrs += t.replaySavedInstrs;
    s.storeHits += t.storeHits;
    s.storeMisses += t.storeMisses;
    s.workerRestarts += t.workerRestarts;
    if (t.threads > s.threads) s.threads = t.threads;
    if (t.processes > s.processes) s.processes = t.processes;
    s.interp = t.interp;
  }
  return s;
}

InjectionRecord runTrialAt(const TrialFn& fn, std::uint64_t seed, int i) {
  Rng trialRng = Rng::stream(seed, static_cast<std::uint64_t>(i));
  return fn(i, trialRng);
}

double runTrialPool(const std::vector<int>& idx, std::uint64_t seed,
                    int threads, const TrialFn& fn,
                    std::vector<InjectionRecord>& records) {
  if (idx.empty()) return 0;
  const int workers = resolveThreads(threads, static_cast<int>(idx.size()));
  trace::Span poolSpan("campaign.trials", "campaign");
  const Clock::time_point t0 = Clock::now();
  if (workers <= 1) {
    // Serial path: list order, no pool machinery.
    for (int i : idx)
      records[static_cast<std::size_t>(i)] = runTrialAt(fn, seed, i);
    return secondsSince(t0);
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::vector<double> busy(static_cast<std::size_t>(workers), 0.0);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      try {
        for (;;) {
          // A worker that threw raises `stop` so its peers abandon the
          // remaining trials instead of draining the whole list; the
          // records array is discarded anyway once the error rethrows.
          if (stop.load(std::memory_order_relaxed)) break;
          const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
          if (k >= idx.size()) break;
          const int i = idx[k];
          const Clock::time_point w0 = Clock::now();
          // Each slot is written by exactly one worker; the merge back
          // into trial-index order is the indexed store itself.
          records[static_cast<std::size_t>(i)] = runTrialAt(fn, seed, i);
          busy[static_cast<std::size_t>(w)] += secondsSince(w0);
        }
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
        stop.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  double busySec = 0;
  for (double b : busy) busySec += b;
  return busySec;
}

namespace {
int settledIn(const InjectionRecord& rec) {
  return rec.plain.settled.has_value() +
         (rec.haveCare && rec.withCare.settled.has_value());
}
} // namespace

int settledRuns(const std::vector<InjectionRecord>& records) {
  int n = 0;
  for (const InjectionRecord& rec : records) n += settledIn(rec);
  return n;
}

void aggregateRecordTelemetry(const std::vector<InjectionRecord>& records,
                              const std::vector<std::uint8_t>* executed,
                              CampaignTelemetry& t) {
  t.careReruns = 0;
  t.detected = 0;
  t.corrected = 0;
  t.eccCorrected = 0;
  t.eccUncorrectable = 0;
  t.recoveries = 0;
  t.rollbacks = 0;
  t.rollbackReexecInstrs = 0;
  t.settled = 0;
  t.rollbackUs = t.recKeyUs = t.recLoadUs = t.recParamUs = 0;
  t.recKernelUs = t.recPatchUs = t.recTotalUs = 0;
  std::uint64_t instrs = 0;
  std::uint64_t saved = 0;
  double detectLatencySum = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const InjectionRecord& rec = records[i];
    const bool ran = !executed || (*executed)[i] != 0;
    if (rec.plain.outcome == Outcome::Detected) {
      ++t.detected;
      detectLatencySum += static_cast<double>(rec.plain.latencyInstrs);
    }
    if (rec.plain.outcome == Outcome::Corrected) ++t.corrected;
    t.eccCorrected += rec.plain.eccCorrected;
    t.eccUncorrectable += rec.plain.eccUncorrectable;
    if (rec.haveCare) {
      t.eccCorrected += rec.withCare.eccCorrected;
      t.eccUncorrectable += rec.withCare.eccUncorrectable;
    }
    if (rec.haveCare) {
      ++t.careReruns;
      if (rec.withCare.careRecovered) ++t.recoveries;
      t.rollbacks += rec.withCare.rollbacks;
      t.rollbackReexecInstrs += rec.withCare.rollbackReexecInstrs;
    }
    if (!ran) continue; // store-served shard: semantic counters only
    // instrsExecuted is absolute (counted from instruction 0); subtract
    // the skipped golden instructions so simInstrs/mips report work
    // actually done.
    instrs += rec.plain.instrsExecuted - rec.plain.replaySavedInstrs;
    saved += rec.plain.replaySavedInstrs;
    t.settled += settledIn(rec);
    if (rec.haveCare) {
      instrs += rec.withCare.instrsExecuted - rec.withCare.replaySavedInstrs;
      saved += rec.withCare.replaySavedInstrs;
      // Fig. 9 phase aggregate over the CARE re-run's activations.
      t.rollbackUs += rec.withCare.rollbackUsTotal;
      t.recKeyUs += rec.withCare.keyUsTotal;
      t.recLoadUs += rec.withCare.loadUsTotal;
      t.recParamUs += rec.withCare.paramUsTotal;
      t.recKernelUs += rec.withCare.kernelUsTotal;
      t.recPatchUs += rec.withCare.patchUsTotal;
      t.recTotalUs += rec.withCare.recoveryUsTotal;
    }
  }
  t.simInstrs = instrs;
  t.replaySavedInstrs = saved;
  t.detectLatencyInstrs = t.detected ? detectLatencySum / t.detected : 0;
  t.trialsPerSec = t.wallSec > 0 ? t.trials / t.wallSec : 0;
  t.mips =
      t.wallSec > 0 ? static_cast<double>(instrs) / 1e6 / t.wallSec : 0;
  t.effectiveMips =
      t.wallSec > 0 ? static_cast<double>(instrs + saved) / 1e6 / t.wallSec
                    : 0;
}

std::vector<InjectionRecord> runCampaign(
    const Campaign& campaign, int injections, std::uint64_t seed,
    int threads,
    const std::map<std::int32_t, core::ModuleArtifacts>* careArtifacts,
    CampaignTelemetry* telemetry, const ServiceConfig* service) {
  // Pre-derive every injection point with the campaign RNG, in the exact
  // order the serial loop drew them; trial execution below consumes no
  // campaign randomness, so scheduling cannot perturb the points.
  Rng rng(seed);
  std::vector<InjectionPoint> points;
  points.reserve(static_cast<std::size_t>(injections < 0 ? 0 : injections));
  for (int i = 0; i < injections; ++i) points.push_back(campaign.sample(rng));

  const TrialFn trial = [&](int i, Rng&) {
    InjectionRecord rec;
    rec.point = points[static_cast<std::size_t>(i)];
    {
      trace::Span plainSpan("trial.plain_run", "campaign");
      rec.plain = campaign.runInjection(rec.point);
    }
    // CARE re-runs target the failures a strategy can plausibly fix:
    // SIGSEGV soft failures (kernel repair and/or rollback) and ECC
    // double-bit detections (rollback only — the data is gone, but a
    // checkpoint before the strike erases it).
    const bool segvFailure = rec.plain.outcome == Outcome::SoftFailure &&
                             rec.plain.signal == vm::TrapKind::SegFault;
    const bool eccDetected =
        rec.plain.outcome == Outcome::Detected &&
        rec.plain.signal == vm::TrapKind::EccUncorrectable;
    if (careArtifacts && (segvFailure || eccDetected)) {
      trace::Span careSpan("trial.care_rerun", "campaign");
      rec.haveCare = true;
      rec.withCare = campaign.runInjection(rec.point, careArtifacts);
    }
    return rec;
  };
  // Without a service: the in-process engine, store off.
  ServiceConfig local;
  if (!service) {
    local.threads = threads;
    service = &local;
  }
  if (telemetry) {
    telemetry->fault = faultModelName(campaign.faultModel());
    telemetry->ecc = vm::eccModeName(campaign.eccMode());
  }
  std::vector<InjectionRecord> records =
      runCampaignTrials(campaign, points, seed, *service, trial, telemetry);
  if (telemetry) telemetry->ckptCount = campaign.checkpoints().size();
  return records;
}

std::vector<InjectionRecord> runCampaignTrials(
    const Campaign& campaign, const std::vector<InjectionPoint>& points,
    std::uint64_t seed, const ServiceConfig& service, const TrialFn& trial,
    CampaignTelemetry* telemetry) {
  // The watch pass (DESIGN.md §4i) over every pre-derived point, run
  // before any worker forks, so the workers inherit the table. Unpruned,
  // it runs only when a shard will run, so a warm store pays nothing.
  const std::function<void()> watch = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    campaign.watch(points);
    if (telemetry)
      telemetry->watchMs = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  };
  const pareto::PruneOptions prune = campaign.pruneOptions();
  if (!prune.enabled)
    return runShardedTrials(static_cast<int>(points.size()), seed, service,
                            trial, telemetry, nullptr, watch);

  // --- Equivalence-class pruning (DESIGN.md §4j) -------------------------
  // The groups read the watch table (deadmem), so it is built first.
  // Group the pre-derived points by Campaign::pruneKey; the first trial of
  // each group (in trial order) is its representative. Representative
  // order is a prefix-stable function of the point sequence, so growing
  // `injections` extends the representative campaign instead of reshaping
  // it — the shard result store keeps resuming.
  watch();
  std::vector<int> repTrial(points.size());
  std::vector<int> reps;
  std::vector<int> repPos(points.size(), -1); // rep trial -> index in reps
  {
    std::unordered_map<std::string, int> firstOf;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto [it, fresh] =
          firstOf.emplace(campaign.pruneKey(points[i]), static_cast<int>(i));
      repTrial[i] = it->second;
      if (fresh) {
        repPos[i] = static_cast<int>(reps.size());
        reps.push_back(static_cast<int>(i));
      }
    }
  }
  // Run only the representatives through the unchanged sharded machinery
  // (serial / threaded / multiprocess / result store all apply); the rep
  // TrialFn ignores its per-trial RNG just like `trial` does, so the
  // remap cannot perturb any record.
  const TrialFn repFn = [&](int j, Rng& r) {
    return trial(reps[static_cast<std::size_t>(j)], r);
  };
  std::vector<std::uint8_t> repExecuted;
  std::vector<InjectionRecord> repRecords =
      runShardedTrials(static_cast<int>(reps.size()), seed, service, repFn,
                       telemetry, &repExecuted);

  // Expand: every member receives a copy of its representative's record
  // with its own point. For `dup` groups the points are equal too; for
  // `deadmem` groups every deterministic field is point-independent, so
  // the expanded stream is byte-identical to the exhaustive campaign's
  // deterministic projection. Timing fields ride along as copies (the
  // full-fidelity stream documents the sharing; it was never part of the
  // determinism guarantee).
  std::vector<InjectionRecord> records(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    records[i] =
        repRecords[static_cast<std::size_t>(repPos[static_cast<std::size_t>(
            repTrial[i])])];
    records[i].point = points[i];
  }

  // --prune-audit=K: re-run K deterministically chosen non-representative
  // members exhaustively and hard-fail on any deterministic-byte
  // divergence from the expanded copy. A verification knob: it must not
  // (and cannot) change the records, so it stays out of every cache key.
  if (prune.auditK > 0) {
    std::vector<int> members;
    for (std::size_t i = 0; i < points.size(); ++i)
      if (repTrial[i] != static_cast<int>(i))
        members.push_back(static_cast<int>(i));
    Rng auditRng = Rng::stream(seed, 0xAD17ull);
    const std::size_t audits =
        std::min(static_cast<std::size_t>(prune.auditK), members.size());
    for (std::size_t k = 0; k < audits; ++k) {
      // Floyd-style distinct pick: swap the chosen member to the tail.
      const std::size_t j = auditRng.below(members.size() - k);
      std::swap(members[j], members[members.size() - 1 - k]);
      const int i = members[members.size() - 1 - k];
      const InjectionRecord fresh = runTrialAt(trial, seed, i);
      if (serializeDeterministicRecord(fresh) !=
          serializeDeterministicRecord(records[static_cast<std::size_t>(i)]))
        raise("prune audit mismatch: trial " + std::to_string(i) +
              " (group '" + campaign.pruneKey(fresh.point) +
              "') diverges from its representative trial " +
              std::to_string(repTrial[static_cast<std::size_t>(i)]));
    }
  }

  if (telemetry) {
    CampaignTelemetry& t = *telemetry;
    // Semantic counters aggregate over the group-expanded records
    // (weighted accounting); work/time counters over the representatives
    // whose shards ran — the members were never executed.
    std::vector<std::uint8_t> executed(records.size(), 0);
    for (std::size_t j = 0; j < reps.size(); ++j)
      executed[static_cast<std::size_t>(reps[j])] = repExecuted[j];
    t.trials = static_cast<int>(records.size());
    // The service counted the representatives' settled runs, forked ones
    // included; the expanded records cannot recount those.
    const int settled = t.settled;
    aggregateRecordTelemetry(records, &executed, t);
    t.settled = settled;
    t.pruneGroups = static_cast<int>(reps.size());
    t.pruneWeightedTrials = static_cast<int>(records.size());
  }
  return records;
}

} // namespace care::inject
