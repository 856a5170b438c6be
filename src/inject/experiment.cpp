#include "inject/experiment.hpp"

#include <array>

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

void putInjectionResult(const InjectionResult& ir, ByteWriter& w,
                        bool withTimings) {
  w.u8(static_cast<std::uint8_t>(ir.outcome));
  w.u8(static_cast<std::uint8_t>(ir.signal));
  w.u64(ir.latencyInstrs);
  w.u64(ir.instrsExecuted);
  w.u8(ir.injected ? 1 : 0);
  w.u8(ir.survived ? 1 : 0);
  w.u8(ir.careRecovered ? 1 : 0);
  w.u64(ir.safeguardActivations);
  w.u64(ir.ivAltRecoveries);
  w.u64(ir.rollbacks);
  w.u64(ir.rollbackReexecInstrs);
  // Deterministic: ECC corrections/detections depend only on (point, mode).
  w.u64(ir.eccCorrected);
  w.u64(ir.eccUncorrectable);
  if (withTimings) {
    w.f64(ir.recoveryUsTotal);
    w.f64(ir.kernelUsTotal);
    w.f64(ir.keyUsTotal);
    w.f64(ir.loadUsTotal);
    w.f64(ir.paramUsTotal);
    w.f64(ir.patchUsTotal);
    w.f64(ir.rollbackUsTotal);
    // Work-actually-done accounting, not a semantic outcome: varies with
    // the replay-cache interval, so it travels only with the timinged
    // format and stays out of the deterministic projection.
    w.u64(ir.replaySavedInstrs);
  }
  w.u8(ir.outputMatchesGolden ? 1 : 0);
  w.str(ir.careFailReason);
}

void putRecord(const InjectionRecord& rec, ByteWriter& w, bool withTimings) {
  w.u32(static_cast<std::uint32_t>(rec.point.loc.module));
  w.u32(static_cast<std::uint32_t>(rec.point.loc.func));
  w.u32(static_cast<std::uint32_t>(rec.point.loc.instr));
  w.u64(rec.point.nth);
  w.u8(static_cast<std::uint8_t>(rec.point.model));
  w.u64(rec.point.memAddr);
  w.u32(static_cast<std::uint32_t>(rec.point.bits.size()));
  for (unsigned b : rec.point.bits) w.u32(b);
  putInjectionResult(rec.plain, w, withTimings);
  w.u8(rec.haveCare ? 1 : 0);
  if (rec.haveCare) putInjectionResult(rec.withCare, w, withTimings);
}

void getInjectionResult(ByteReader& r, InjectionResult& ir) {
  ir.outcome = static_cast<Outcome>(r.u8());
  ir.signal = static_cast<vm::TrapKind>(r.u8());
  ir.latencyInstrs = r.u64();
  ir.instrsExecuted = r.u64();
  ir.injected = r.u8() != 0;
  ir.survived = r.u8() != 0;
  ir.careRecovered = r.u8() != 0;
  ir.safeguardActivations = r.u64();
  ir.ivAltRecoveries = r.u64();
  ir.rollbacks = r.u64();
  ir.rollbackReexecInstrs = r.u64();
  ir.eccCorrected = r.u64();
  ir.eccUncorrectable = r.u64();
  ir.recoveryUsTotal = r.f64();
  ir.kernelUsTotal = r.f64();
  ir.keyUsTotal = r.f64();
  ir.loadUsTotal = r.f64();
  ir.paramUsTotal = r.f64();
  ir.patchUsTotal = r.f64();
  ir.rollbackUsTotal = r.f64();
  ir.replaySavedInstrs = r.u64();
  ir.outputMatchesGolden = r.u8() != 0;
  ir.careFailReason = r.str();
}

} // namespace

std::string campaignKey(const Md5Digest& image, const CampaignConfig& cfg,
                        std::uint64_t rollbackInterval, bool careReruns) {
  Md5 h;
  h.update("care-campaign");
  h.update(image.bytes.data(), image.bytes.size());
  h.update(cfg.entry);
  // Rollback trials space their ring by the resolved interval; every other
  // strategy never reads it.
  const std::uint64_t nums[] = {
      cfg.bitsToFlip,
      cfg.seed,
      cfg.hangFactor,
      careReruns ? 1u : 0u,
      static_cast<std::uint64_t>(cfg.patchTarget),
      static_cast<std::uint64_t>(cfg.recover),
      cfg.rollbackRingCap,
      core::strategyRollsBack(cfg.recover) ? rollbackInterval : 0,
      static_cast<std::uint64_t>(cfg.fault),
      static_cast<std::uint64_t>(cfg.ecc),
      cfg.prune.enabled ? 1u : 0u,
      kExperimentCacheVersion};
  h.update(nums, sizeof(nums));
  return h.finish().hex();
}

void writeRecordBytes(const InjectionRecord& rec, ByteWriter& w) {
  putRecord(rec, w, /*withTimings=*/true);
}

InjectionRecord readRecordBytes(ByteReader& r) {
  InjectionRecord rec;
  rec.point.loc.module = static_cast<std::int32_t>(r.u32());
  rec.point.loc.func = static_cast<std::int32_t>(r.u32());
  rec.point.loc.instr = static_cast<std::int32_t>(r.u32());
  rec.point.nth = r.u64();
  rec.point.model = static_cast<FaultModel>(r.u8());
  rec.point.memAddr = r.u64();
  const std::uint32_t nb = r.u32();
  for (std::uint32_t b = 0; b < nb; ++b) rec.point.bits.push_back(r.u32());
  getInjectionResult(r, rec.plain);
  rec.haveCare = r.u8() != 0;
  if (rec.haveCare) getInjectionResult(r, rec.withCare);
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

double ExperimentResult::meanKernelUs() const {
  double sum = 0;
  int n = 0;
  for (const auto& r : records) {
    if (r.haveCare && r.withCare.careRecovered) {
      sum += r.withCare.kernelUsTotal;
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
    putRecord(rec, w, /*withTimings=*/false);
  return w.data();
}

std::vector<std::uint8_t> serializeDeterministicRecord(
    const InjectionRecord& rec) {
  ByteWriter w;
  putRecord(rec, w, /*withTimings=*/false);
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

  CampaignConfig ccfg;
  ccfg.seed = cfg.seed;
  ccfg.bitsToFlip = cfg.bits;
  ccfg.hangFactor = 4;
  ccfg.checkpointEveryInstrs = cfg.ckptInterval;
  ccfg.rollbackEveryInstrs = cfg.rollbackInterval;
  ccfg.recover = cfg.armor.recover;
  ccfg.rollbackRingCap = cfg.rollbackRing;
  ccfg.fault = cfg.fault;
  ccfg.ecc = cfg.ecc;
  ccfg.prune = cfg.prune;
  if (cfg.patchBaseFirst)
    ccfg.patchTarget = core::Safeguard::PatchTarget::BaseFirst;
  tel.fault = faultModelName(ccfg.fault);
  tel.ecc = vm::eccModeName(ccfg.ecc);
  tel.detectSample = pareto::sampleName(cfg.armor.detectSample);

  BuiltWorkload built = buildWorkload(w, cfg);
  tel.totalSites = static_cast<int>(built.cm.sentinelStats.totalSites());
  tel.sampledSites = static_cast<int>(built.cm.sentinelStats.armedSites());
  Campaign campaign(built.image.get(), ccfg);
  if (!campaign.profile()) raise("workload failed to profile: " + w.name);

  ServiceConfig svc;
  svc.processes = cfg.processes;
  svc.threads = cfg.threads;
  svc.storeDir = cfg.resultStore.value_or(cfg.cacheDir + "/store");
  svc.storeKey = campaignKey(built.cm.imageDigest, ccfg,
                             campaign.rollbackInterval(), cfg.careOnSegv);

  ExperimentResult out;
  out.workload = w.name;
  out.level = cfg.level;
  out.goldenInstrs = campaign.goldenInstrs();
  out.records =
      runCampaign(campaign, cfg.injections, cfg.seed, cfg.threads,
                  cfg.careOnSegv ? &built.artifacts : nullptr, &tel, &svc);
  publishTelemetry(tel);
  return out;
}

} // namespace care::inject
