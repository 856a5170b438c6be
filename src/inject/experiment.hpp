// Campaign orchestration for the evaluation harness.
//
// Every table/figure bench, and `carecc inject`, needs the same expensive
// artifact: a seeded injection campaign over a workload at a given opt
// level and bit-flip count, optionally re-running each SIGSEGV injection
// with CARE attached. runExperiment() is the one function that turns an
// ExperimentConfig into that campaign: it compiles and profiles the
// workload, then produces the records deterministically through the shard
// result store (result_store.hpp), keyed by the compiled image's digest and
// the campaign knobs that change records (campaignKey). Regenerating one
// table therefore re-pays only compile + golden profile for campaigns
// another table already ran, and never reuses records of a different binary.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "inject/engine.hpp"
#include "inject/injector.hpp"
#include "inject/service.hpp"
#include "support/bytestream.hpp"
#include "support/md5.hpp"
#include "workloads/workloads.hpp"

namespace care::inject {

/// Version of the record wire format. Participates in campaignKey (the
/// shard result-store key): bumping it invalidates every stored record at
/// once.
inline constexpr std::uint32_t kExperimentCacheVersion = 11;

/// One campaign over one workload: how to compile it (`level`, `armor`),
/// the campaign itself (`campaign`, the one copy of every knob Campaign
/// reads) and how to run it (the rest).
struct ExperimentConfig {
  opt::OptLevel level = opt::OptLevel::O0;
  core::ArmorOptions armor;   // compile knobs reach the key via the digest
  CampaignConfig campaign;    // record-changing knobs reach it via campaignKey
  int injections = 400;       // paper: 10000 (Tables 2-4) / 1000-2000 (Fig 7)
  bool careOnSegv = true;     // re-run SIGSEGV injections with CARE attached
  /// Recovery artifacts, and the result store's default home
  /// (`<cacheDir>/store`).
  std::string cacheDir = "care_artifacts";
  /// Campaign worker threads: 0 = hardware_concurrency, 1 = legacy serial
  /// loop. A pure performance knob — the engine guarantees the records are
  /// identical for every value, so it is deliberately NOT part of the
  /// campaign key (serial-written shards serve parallel runs and vice
  /// versa).
  int threads = 0;
  /// Forked worker processes (DESIGN.md §4g), 0 = in-process engine. Like
  /// `threads`, a pure performance knob — identical records for every
  /// value, NOT part of any cache key.
  int processes = 0;
  /// Shard result-store directory: nullopt means `<cacheDir>/store`; an
  /// empty string turns the store off. Serving a shard from the store is
  /// record-identical to recomputing it, so this too stays out of the
  /// campaign key.
  std::optional<std::string> resultStore;
};

/// One injection's record: the plain outcome plus (for SIGSEGV injections
/// when careOnSegv) the CARE-attached outcome.
struct InjectionRecord {
  InjectionPoint point;
  InjectionResult plain;
  bool haveCare = false;
  InjectionResult withCare;
};

struct ExperimentResult {
  std::string workload;
  opt::OptLevel level;
  std::vector<InjectionRecord> records;
  std::uint64_t goldenInstrs = 0;

  // --- aggregations used by the table benches ------------------------------
  int count(Outcome o) const;
  int detectedCount() const { return count(Outcome::Detected); }
  /// Mean detection latency (injection -> Sentinel trap) in dynamic
  /// instructions over Detected trials; 0 when there are none.
  double meanDetectionLatencyInstrs() const;
  int countSignal(vm::TrapKind k) const;             // among soft failures
  int segvCount() const { return countSignal(vm::TrapKind::SegFault); }
  int recoveredCount() const;                        // CARE coverage numerator
  double coverage() const;                           // recovered / segv
  /// CARE re-runs that completed only via checkpoint rollback (outcome
  /// RolledBack; DESIGN.md §4f).
  int rolledBackCount() const;
  /// Rolled-back re-runs whose output did NOT match golden: corruption
  /// escaped into externalized output before the trap, so the rollback
  /// survived the crash but is not a recovery.
  int rollbackSdcCount() const;
  /// Mean rollback wall time / re-executed instructions over rolled-back
  /// re-runs; 0 when there are none.
  double meanRollbackUs() const;
  double meanRollbackReexecInstrs() const;
  /// Latency histogram over soft failures: <=10, 11-50, 51-400, >400.
  std::array<int, 4> latencyBuckets() const;
  /// Mean Safeguard time per recovered injection, microseconds.
  double meanRecoveryUs() const;

  /// Fig. 9 phase breakdown: mean per-recovered-injection wall time in each
  /// Safeguard phase (same population as meanRecoveryUs).
  struct RecoveryPhases {
    double keyUs = 0;    // PC -> key mapping
    double loadUs = 0;   // lazy artifact load + kernel lookup
    double paramUs = 0;  // operand disassembly + parameter fetch
    double kernelUs = 0; // kernel execution incl. Fig. 11 retries
    double patchUs = 0;  // operand patch
    double totalUs = 0;  // whole activation (>= sum of phases)
    double prepUs() const { return keyUs + loadUs + paramUs + patchUs; }
    /// Preparation share of the measured phase time (paper: >= 98%).
    double prepShare() const {
      const double sum = prepUs() + kernelUs;
      return sum > 0 ? prepUs() / sum : 0;
    }
  };
  RecoveryPhases meanRecoveryPhases() const;
};

/// The one semantic campaign key (DESIGN.md §4g), a hex MD5 and the shard
/// result store's key. `image` is the compiled binary
/// (CompiledModule::imageDigest), which already covers the opt level and
/// every Armor, Sentinel and sampling knob. The key adds the knobs of `cfg`
/// that change records — seed, bits, hang factor, patch target,
/// recovery strategy, ring capacity, fault model, ECC, pruning — and, under
/// rollback strategies, the ring-spacing knob rollbackEveryInstrs (the
/// spacing it resolves to is a function of the knob and the golden count,
/// which the image fixes), and, when pruning, the replay interval its
/// groups follow. It needs no profile, reads no environment and excludes
/// the trial count and every pure performance knob (threads, processes,
/// backend, an unpruned campaign's replay interval), so overlapping
/// campaigns share shards.
std::string campaignKey(const Md5Digest& image, const CampaignConfig& cfg,
                        bool careReruns);

/// Compile `w` with CARE per cfg, profile it, then run the campaign on
/// cfg.threads workers, serving shards from the result store where it holds
/// them. Throws care::Error if the workload cannot be profiled. When
/// `telemetry` is non-null it receives the campaign's execution telemetry
/// (also published to the process-wide log and the telemetry sink;
/// `fromCache` when every shard came from the store).
ExperimentResult runExperiment(const workloads::Workload& w,
                               const ExperimentConfig& cfg,
                               CampaignTelemetry* telemetry = nullptr);

/// Serialize the deterministic portion of a result — everything except the
/// wall-clock microsecond fields (recoveryUsTotal / kernelUsTotal /
/// rollbackUsTotal and the per-phase keyUs/loadUs/paramUs/patchUs totals),
/// which vary between any two runs, serial or not. This byte stream is the
/// statement of the parallel ≡ serial equivalence guarantee: it is
/// identical for every `threads` value.
std::vector<std::uint8_t> serializeDeterministic(const ExperimentResult& r);

/// The same deterministic projection for a single record — the unit the
/// rollback differential oracle compares: a repair-success trial must
/// produce byte-identical records under `repair` and `repair_then_rollback`
/// (rollback only engages after a repair failure).
std::vector<std::uint8_t> serializeDeterministicRecord(
    const InjectionRecord& rec);

/// Full-fidelity (timings included) record wire format, version
/// kExperimentCacheVersion — the record unit of a sealed shard entry
/// (shard::seal / shard::open, result_store.hpp), which the result store
/// keeps and forked workers send. readRecordBytes throws care::Error on
/// truncation.
void writeRecordBytes(const InjectionRecord& rec, ByteWriter& w);
InjectionRecord readRecordBytes(ByteReader& r);

/// Also expose the compile step so compile-stat benches (Tables 5/8) share
/// the flow without a campaign.
struct BuiltWorkload {
  core::CompiledModule cm;
  std::unique_ptr<vm::Image> image;
  std::map<std::int32_t, core::ModuleArtifacts> artifacts;
};
BuiltWorkload buildWorkload(const workloads::Workload& w,
                            const ExperimentConfig& cfg);

} // namespace care::inject
