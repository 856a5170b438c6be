#include "inject/experiment.hpp"

#include <array>
#include <chrono>

#include "support/bytestream.hpp"
#include "support/error.hpp"
#include "support/md5.hpp"

namespace care::inject {

namespace {

constexpr std::uint32_t kCacheMagic = 0x45435243; // "CRCE"

// kExperimentCacheVersion history.
// v10: replaySavedInstrs joins the full-fidelity format (the multi-process
// service ships records over pipes / the result store, and campaign
// telemetry needs the replay savings to survive that trip).
// v11: memory-resident fault models + ECC (DESIGN.md §4i) — records carry
// the point's model/memAddr and per-trial ECC counters, and the resolved
// fault model / ECC mode join the campaign key. Also re-records every
// campaign: register-fault bit positions are now sampled within the
// destination's width instead of being folded by a modulo.

/// The one list of a record's fields, in wire order. `io` is a Put (the
/// writer, over a const record) or a Get (the reader); each names the wire
/// width of a field and converts it both ways. The timing block is visited
/// only in the full-fidelity format.
template <class IO, class Result>
void visitResult(IO&& io, Result& ir, bool withTimings) {
  io.u8(ir.outcome);
  io.u8(ir.signal);
  io.u64(ir.latencyInstrs);
  io.u64(ir.instrsExecuted);
  io.u8(ir.injected);
  io.u8(ir.survived);
  io.u8(ir.careRecovered);
  io.u64(ir.safeguardActivations);
  io.u64(ir.ivAltRecoveries);
  io.u64(ir.rollbacks);
  io.u64(ir.rollbackReexecInstrs);
  // Deterministic: ECC corrections/detections depend only on (point, mode).
  io.u64(ir.eccCorrected);
  io.u64(ir.eccUncorrectable);
  if (withTimings) {
    io.f64(ir.recoveryUsTotal);
    io.f64(ir.kernelUsTotal);
    io.f64(ir.keyUsTotal);
    io.f64(ir.loadUsTotal);
    io.f64(ir.paramUsTotal);
    io.f64(ir.patchUsTotal);
    io.f64(ir.rollbackUsTotal);
    // Work-actually-done accounting, not a semantic outcome: varies with
    // the replay-cache interval, so it travels only with the timinged
    // format and stays out of the deterministic projection.
    io.u64(ir.replaySavedInstrs);
  }
  io.u8(ir.outputMatchesGolden);
  io.str(ir.careFailReason);
}

template <class IO, class Record>
void visitRecord(IO&& io, Record& rec, bool withTimings) {
  io.u32(rec.point.loc.module);
  io.u32(rec.point.loc.func);
  io.u32(rec.point.loc.instr);
  io.u64(rec.point.nth);
  io.u8(rec.point.model);
  io.u64(rec.point.memAddr);
  io.u32s(rec.point.bits);
  visitResult(io, rec.plain, withTimings);
  io.u8(rec.haveCare);
  if (rec.haveCare) visitResult(io, rec.withCare, withTimings);
}

struct Put {
  ByteWriter& w;
  template <class T> void u8(T v) { w.u8(static_cast<std::uint8_t>(v)); }
  template <class T> void u32(T v) { w.u32(static_cast<std::uint32_t>(v)); }
  void u64(std::uint64_t v) { w.u64(v); }
  void f64(double v) { w.f64(v); }
  void str(const std::string& s) { w.str(s); }
  void u32s(const std::vector<unsigned>& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (unsigned x : v) w.u32(x);
  }
};

struct Get {
  ByteReader& r;
  template <class T> void u8(T& v) { v = static_cast<T>(r.u8()); }
  template <class T> void u32(T& v) { v = static_cast<T>(r.u32()); }
  void u64(std::uint64_t& v) { v = r.u64(); }
  void f64(double& v) { v = r.f64(); }
  void str(std::string& s) { s = r.str(); }
  void u32s(std::vector<unsigned>& v) {
    const std::uint32_t n = r.u32();
    for (std::uint32_t k = 0; k < n; ++k) v.push_back(r.u32());
  }
};

} // namespace

std::string campaignKey(const Md5Digest& image, const CampaignConfig& cfg,
                        bool careReruns) {
  Md5 h;
  h.update("care-campaign");
  h.update(image.bytes.data(), image.bytes.size());
  // Rollback trials space their ring by the interval the knob resolves to
  // against the golden count; every other strategy never reads it.
  const std::uint64_t nums[] = {
      cfg.bitsToFlip,
      cfg.seed,
      cfg.hangFactor,
      careReruns ? 1u : 0u,
      static_cast<std::uint64_t>(cfg.patchTarget),
      static_cast<std::uint64_t>(cfg.recover),
      cfg.rollbackRingCap,
      core::strategyRollsBack(cfg.recover) ? cfg.rollbackEveryInstrs : 0,
      static_cast<std::uint64_t>(cfg.fault),
      static_cast<std::uint64_t>(cfg.ecc),
      cfg.prune.enabled ? 1u : 0u,
      kExperimentCacheVersion};
  h.update(nums, sizeof(nums));
  // A pruned campaign's groups follow the replay grid (pruneKey), and its
  // shards hold representatives: the spacing is then semantic. Unpruned,
  // it is a performance knob and stays out, leaving those keys unchanged.
  if (cfg.prune.enabled)
    h.update(&cfg.checkpointEveryInstrs, sizeof(cfg.checkpointEveryInstrs));
  return h.finish().hex();
}

void writeRecordBytes(const InjectionRecord& rec, ByteWriter& w) {
  visitRecord(Put{w}, rec, /*withTimings=*/true);
}

InjectionRecord readRecordBytes(ByteReader& r) {
  InjectionRecord rec;
  visitRecord(Get{r}, rec, /*withTimings=*/true);
  return rec;
}

int ExperimentResult::count(Outcome o) const {
  int n = 0;
  for (const auto& r : records)
    if (r.plain.outcome == o) ++n;
  return n;
}

double ExperimentResult::meanDetectionLatencyInstrs() const {
  double sum = 0;
  int n = 0;
  for (const auto& r : records) {
    if (r.plain.outcome != Outcome::Detected || !r.plain.injected) continue;
    sum += static_cast<double>(r.plain.latencyInstrs);
    ++n;
  }
  return n ? sum / n : 0;
}

int ExperimentResult::countSignal(vm::TrapKind k) const {
  int n = 0;
  for (const auto& r : records)
    if (r.plain.outcome == Outcome::SoftFailure && r.plain.signal == k) ++n;
  return n;
}

int ExperimentResult::recoveredCount() const {
  int n = 0;
  for (const auto& r : records)
    if (r.haveCare && r.withCare.careRecovered) ++n;
  return n;
}

double ExperimentResult::coverage() const {
  const int segv = segvCount();
  return segv > 0 ? double(recoveredCount()) / segv : 0.0;
}

int ExperimentResult::rolledBackCount() const {
  int n = 0;
  for (const auto& r : records)
    if (r.haveCare && r.withCare.outcome == Outcome::RolledBack) ++n;
  return n;
}

int ExperimentResult::rollbackSdcCount() const {
  int n = 0;
  for (const auto& r : records)
    if (r.haveCare && r.withCare.outcome == Outcome::RolledBack &&
        !r.withCare.outputMatchesGolden)
      ++n;
  return n;
}

double ExperimentResult::meanRollbackUs() const {
  double sum = 0;
  int n = 0;
  for (const auto& r : records) {
    if (r.haveCare && r.withCare.outcome == Outcome::RolledBack) {
      sum += r.withCare.rollbackUsTotal;
      ++n;
    }
  }
  return n ? sum / n : 0;
}

double ExperimentResult::meanRollbackReexecInstrs() const {
  double sum = 0;
  int n = 0;
  for (const auto& r : records) {
    if (r.haveCare && r.withCare.outcome == Outcome::RolledBack) {
      sum += static_cast<double>(r.withCare.rollbackReexecInstrs);
      ++n;
    }
  }
  return n ? sum / n : 0;
}

std::array<int, 4> ExperimentResult::latencyBuckets() const {
  std::array<int, 4> out{};
  for (const auto& r : records) {
    if (r.plain.outcome != Outcome::SoftFailure) continue;
    const std::uint64_t l = r.plain.latencyInstrs;
    if (l <= 10) ++out[0];
    else if (l <= 50) ++out[1];
    else if (l <= 400) ++out[2];
    else ++out[3];
  }
  return out;
}

double ExperimentResult::meanRecoveryUs() const {
  double sum = 0;
  int n = 0;
  for (const auto& r : records) {
    if (r.haveCare && r.withCare.careRecovered) {
      sum += r.withCare.recoveryUsTotal;
      ++n;
    }
  }
  return n ? sum / n : 0;
}

ExperimentResult::RecoveryPhases ExperimentResult::meanRecoveryPhases() const {
  RecoveryPhases p;
  int n = 0;
  for (const auto& r : records) {
    if (!r.haveCare || !r.withCare.careRecovered) continue;
    p.keyUs += r.withCare.keyUsTotal;
    p.loadUs += r.withCare.loadUsTotal;
    p.paramUs += r.withCare.paramUsTotal;
    p.kernelUs += r.withCare.kernelUsTotal;
    p.patchUs += r.withCare.patchUsTotal;
    p.totalUs += r.withCare.recoveryUsTotal;
    ++n;
  }
  if (n > 0) {
    p.keyUs /= n;
    p.loadUs /= n;
    p.paramUs /= n;
    p.kernelUs /= n;
    p.patchUs /= n;
    p.totalUs /= n;
  }
  return p;
}

BuiltWorkload buildWorkload(const workloads::Workload& w,
                            const ExperimentConfig& cfg) {
  core::CompileOptions copts;
  copts.optLevel = cfg.level;
  copts.armor = cfg.armor;
  copts.artifactDir = cfg.cacheDir;
  BuiltWorkload b;
  b.cm = core::careCompile(
      w.sources, w.name + (cfg.level == opt::OptLevel::O0 ? "_O0" : "_O1"),
      copts);
  b.image = std::make_unique<vm::Image>();
  b.image->load(b.cm.mmod.get());
  b.image->link();
  b.artifacts[0] = b.cm.artifacts;
  return b;
}

std::vector<std::uint8_t> serializeDeterministic(const ExperimentResult& r) {
  ByteWriter w;
  w.u32(kCacheMagic);
  w.u32(kExperimentCacheVersion);
  w.str(r.workload);
  w.u8(r.level == opt::OptLevel::O0 ? 0 : 1);
  w.u64(r.goldenInstrs);
  w.u32(static_cast<std::uint32_t>(r.records.size()));
  for (const InjectionRecord& rec : r.records)
    visitRecord(Put{w}, rec, /*withTimings=*/false);
  return w.data();
}

std::vector<std::uint8_t> serializeDeterministicRecord(
    const InjectionRecord& rec) {
  ByteWriter w;
  visitRecord(Put{w}, rec, /*withTimings=*/false);
  return w.data();
}

ExperimentResult runExperiment(const workloads::Workload& w,
                               const ExperimentConfig& cfg,
                               CampaignTelemetry* telemetry) {
  CampaignTelemetry local;
  CampaignTelemetry& tel = telemetry ? *telemetry : local;
  tel = CampaignTelemetry{};
  tel.workload = w.name;
  tel.level = cfg.level == opt::OptLevel::O0 ? "O0" : "O1";

  const CampaignConfig& ccfg = cfg.campaign;
  tel.detectSample = pareto::sampleName(cfg.armor.detectSample);

  BuiltWorkload built = buildWorkload(w, cfg);
  tel.totalSites = static_cast<int>(built.cm.sentinelStats.totalSites());
  tel.sampledSites = static_cast<int>(built.cm.sentinelStats.armedSites());
  Campaign campaign(built.image.get(), ccfg);
  const auto profileStart = std::chrono::steady_clock::now();
  if (!campaign.profile()) raise("workload failed to profile: " + w.name);
  tel.profileMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - profileStart)
                      .count();

  ServiceConfig svc;
  svc.processes = cfg.processes;
  svc.threads = cfg.threads;
  svc.storeDir = cfg.resultStore.value_or(cfg.cacheDir + "/store");
  svc.storeKey = campaignKey(built.cm.imageDigest, ccfg, cfg.careOnSegv);

  ExperimentResult out;
  out.workload = w.name;
  out.level = cfg.level;
  out.goldenInstrs = campaign.goldenInstrs();
  out.records =
      runCampaign(campaign, cfg.injections, ccfg.seed, cfg.threads,
                  cfg.careOnSegv ? &built.artifacts : nullptr, &tel, &svc);
  publishTelemetry(tel);
  return out;
}

} // namespace care::inject
