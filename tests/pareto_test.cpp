// Production-overhead Pareto subsystem tests (DESIGN.md §4j):
//  * hard-error parsing of the three knobs (--detect-sample / --prune /
//    --prune-audit and their CARE_* twins);
//  * the sampling layer's partition property — the armed site sets of N
//    consecutive epochs at rate N partition the full site population, and
//    a rate-1 build is byte-identical to an unsampled one;
//  * equivalence-class pruning — the group-expanded record stream of a
//    pruned campaign is byte-identical (deterministic projection) to the
//    exhaustive campaign's, on every engine (serial / threaded /
//    multiprocess) and for both mem- and reg-model campaigns;
//  * the --prune-audit spot check runs clean and the pareto telemetry
//    fields are populated.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "care/driver.hpp"
#include "inject/engine.hpp"
#include "inject/experiment.hpp"
#include "ir/printer.hpp"
#include "pareto/prune.hpp"
#include "pareto/sample.hpp"
#include "sentinel/sentinel.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"

namespace care::test {
namespace {

using inject::Campaign;
using inject::CampaignConfig;
using inject::CampaignTelemetry;
using inject::InjectionRecord;
using pareto::SampleConfig;

// --- knob parsing -----------------------------------------------------------

TEST(ParetoSample, ParserAcceptsValidForms) {
  EXPECT_EQ(pareto::parseDetectSample("1").rate, 1u);
  EXPECT_EQ(pareto::parseDetectSample("16").rate, 16u);
  EXPECT_EQ(pareto::parseDetectSample("16").epoch, 0u);
  const SampleConfig se = pareto::parseDetectSample("16@3");
  EXPECT_EQ(se.rate, 16u);
  EXPECT_EQ(se.epoch, 3u);
  // The raw epoch is preserved (telemetry self-description); only
  // epoch % rate matters for arming.
  EXPECT_EQ(pareto::parseDetectSample("4@9").epoch, 9u);
  EXPECT_EQ(pareto::sampleName(pareto::parseDetectSample("1")), "1");
  EXPECT_EQ(pareto::sampleName(pareto::parseDetectSample("16")), "16");
  EXPECT_EQ(pareto::sampleName(pareto::parseDetectSample("16@3")), "16@3");
}

TEST(ParetoSample, ParserHardErrorsOnUnknownValues) {
  for (const char* bad : {"", "bogus", "0", "-4", "4@", "@2", "4@x", "4x",
                          "1.5", "16@-1", "on"})
    EXPECT_THROW(pareto::parseDetectSample(bad), Error) << bad;
}

TEST(ParetoPrune, ParserAcceptsAndHardErrors) {
  EXPECT_TRUE(pareto::parsePruneFlag("on"));
  EXPECT_TRUE(pareto::parsePruneFlag("1"));
  EXPECT_TRUE(pareto::parsePruneFlag("true"));
  EXPECT_FALSE(pareto::parsePruneFlag("off"));
  EXPECT_FALSE(pareto::parsePruneFlag("0"));
  EXPECT_FALSE(pareto::parsePruneFlag("false"));
  for (const char* bad : {"", "maybe", "2", "yes", "ON "})
    EXPECT_THROW(pareto::parsePruneFlag(bad), Error) << bad;

  EXPECT_EQ(pareto::parsePruneAudit("0"), 0);
  EXPECT_EQ(pareto::parsePruneAudit("8"), 8);
  for (const char* bad : {"", "-3", "x", "4.5", "8k"})
    EXPECT_THROW(pareto::parsePruneAudit(bad), Error) << bad;
}

// --- arming predicate -------------------------------------------------------

TEST(ParetoSample, Rate1ArmsEverySite) {
  const SampleConfig full; // rate 1
  for (std::uint64_t i = 0; i < 64; ++i)
    EXPECT_TRUE(pareto::armed(full, pareto::siteHash("f", "addr", i)));
}

TEST(ParetoSample, EpochsPartitionSyntheticSites) {
  // Every site is armed in exactly one epoch of a rate-N rotation, and
  // epoch N+e arms the same slice as epoch e.
  for (std::uint64_t rate : {2u, 4u, 16u}) {
    for (std::uint64_t i = 0; i < 200; ++i) {
      const std::uint64_t h =
          pareto::siteHash("fn" + std::to_string(i % 7), "cfc", i);
      int armedIn = 0;
      for (std::uint64_t e = 0; e < rate; ++e) {
        const SampleConfig cfg{rate, e};
        if (pareto::armed(cfg, h)) ++armedIn;
        EXPECT_EQ(pareto::armed(cfg, h),
                  pareto::armed(SampleConfig{rate, e + rate}, h));
      }
      EXPECT_EQ(armedIn, 1) << "rate " << rate << " site " << i;
    }
  }
}

// --- sentinel integration ---------------------------------------------------

const char* kMultiFnProg = R"(
double a[256];
double b[256];
int perm[64];
int bump(int i) {
  return perm[i % 64] + 1;
}
double mix2(int i) {
  return a[i % 256] * 0.5 + b[bump(i) % 256];
}
int main() {
  for (int i = 0; i < 64; i = i + 1) { perm[i] = i * 3; }
  for (int i = 0; i < 256; i = i + 1) { a[i] = i; b[i] = 2 * i; }
  double s = 0.0;
  for (int i = 0; i < 200; i = i + 1) { s = s + mix2(i); }
  emit(s);
  return 0;
})";

core::CompiledModule compileSampled(const SampleConfig& sample) {
  core::CompileOptions opts;
  opts.artifactDir = "care_test_artifacts/pareto";
  opts.armor.detect = sentinel::parseDetect("all");
  opts.armor.detectSample = sample;
  return core::careCompile({{"pareto.c", kMultiFnProg}}, "pareto_smp", opts);
}

TEST(ParetoSample, Rate1BuildIsByteIdenticalToUnsampled) {
  core::CompiledModule def = compileSampled(SampleConfig{});
  core::CompiledModule r1 = compileSampled(SampleConfig{1, 0});
  EXPECT_EQ(ir::toString(def.irMod.get()), ir::toString(r1.irMod.get()));
  EXPECT_EQ(def.sentinelStats.addedInstrs(), r1.sentinelStats.addedInstrs());
  EXPECT_EQ(def.sentinelStats.totalSites(), def.sentinelStats.armedSites());
  EXPECT_GT(def.sentinelStats.totalSites(), 0u);
}

TEST(ParetoSample, SentinelRotationPartitionsSites) {
  const core::CompiledModule full = compileSampled(SampleConfig{});
  const std::size_t total = full.sentinelStats.totalSites();
  ASSERT_GT(total, 2u) << "program too small to exercise sampling";

  constexpr std::uint64_t kRate = 4;
  std::size_t armedSum = 0;
  // Per-function per-family arming must happen in exactly one epoch —
  // collect (function, family) -> epochs armed.
  std::map<std::string, int> cfcEpochs, addrArmed;
  for (std::uint64_t e = 0; e < kRate; ++e) {
    const core::CompiledModule cm = compileSampled(SampleConfig{kRate, e});
    EXPECT_EQ(cm.sentinelStats.totalSites(), total)
        << "site population must be epoch-independent";
    armedSum += cm.sentinelStats.armedSites();
    EXPECT_LT(cm.sentinelStats.armedSites(), total);
    for (const auto& fs : cm.sentinelStats.functions) {
      cfcEpochs[fs.function] += static_cast<int>(fs.cfcArmed);
      addrArmed[fs.function] += static_cast<int>(fs.addrArmed);
    }
  }
  EXPECT_EQ(armedSum, total) << "epochs must partition the site population";
  for (const auto& fs : full.sentinelStats.functions) {
    EXPECT_EQ(cfcEpochs[fs.function], static_cast<int>(fs.cfcSites))
        << fs.function;
    EXPECT_EQ(addrArmed[fs.function], static_cast<int>(fs.addrSites))
        << fs.function;
  }
}

// --- equivalence-class pruning ----------------------------------------------

/// CARE-compiled module + image + artifacts for direct campaign use.
struct CareEnv {
  core::CompiledModule cm;
  std::unique_ptr<vm::Image> image;
  std::map<std::int32_t, core::ModuleArtifacts> artifacts;
};

CareEnv buildCare(const char* src, const std::string& tag) {
  core::CompileOptions opts;
  opts.artifactDir = "care_test_artifacts/pareto";
  CareEnv e;
  e.cm = core::careCompile({{tag + ".c", src}}, "pareto_" + tag, opts);
  e.image = std::make_unique<vm::Image>();
  e.image->load(e.cm.mmod.get());
  e.image->link();
  e.artifacts[0] = e.cm.artifacts;
  return e;
}

CampaignConfig pinnedConfig(inject::FaultModel fault, vm::EccMode ecc) {
  CampaignConfig cfg;
  cfg.seed = 1; // the campaigns these checks were written against
  cfg.fault = fault;
  cfg.ecc = ecc;
  return cfg;
}

// Mem-heavy program with provably dead regions: the tail of `hist` is
// written once and only summed at the very start of the readback loop, so
// late strikes on most words are dead.
const char* kDeadMemProg = R"(
double hist[768];
double acc[64];
int main() {
  for (int i = 0; i < 768; i = i + 1) { hist[i] = i * 0.5; }
  double s = 0.0;
  for (int i = 0; i < 768; i = i + 1) { s = s + hist[i]; }
  for (int r = 0; r < 40; r = r + 1) {
    for (int i = 0; i < 64; i = i + 1) {
      acc[i] = acc[i] + s * 0.001 + i;
    }
  }
  double t = 0.0;
  for (int i = 0; i < 64; i = i + 1) { t = t + acc[i]; }
  emit(s + t);
  return 0;
})";

// Indirection-heavy second workload (different shape: index array drives
// the addresses, so reg faults produce SIGSEGVs too).
const char* kStencilProg = R"(
double phi[512];
double phitmp[512];
int igrid[32];
int main() {
  for (int i = 0; i < 32; i = i + 1) { igrid[i] = i * 16; }
  for (int i = 0; i < 512; i = i + 1) { phi[i] = i * 0.125; }
  for (int step = 0; step < 3; step = step + 1) {
    for (int i = 0; i < 31; i = i + 1) {
      int base = igrid[i];
      for (int k = 0; k < 8; k = k + 1) {
        phitmp[base + k] = 0.5 * phi[base + k] + 0.25 * phitmp[base + k];
      }
    }
  }
  double acc = 0.0;
  for (int i = 0; i < 512; i = i + 1) { acc = acc + phitmp[i]; }
  emit(acc);
  return 0;
})";

std::vector<std::uint8_t> detBytes(const std::vector<InjectionRecord>& recs) {
  std::vector<std::uint8_t> out;
  for (const InjectionRecord& r : recs) {
    const auto b = inject::serializeDeterministicRecord(r);
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

/// Run the same campaign exhaustively and pruned, on serial, threaded and
/// multiprocess engines, and require byte-identical deterministic record
/// streams everywhere. Returns the pruned telemetry for further checks.
CampaignTelemetry expectPrunedMatchesExhaustive(const char* src,
                                                const std::string& tag,
                                                inject::FaultModel fault,
                                                vm::EccMode ecc, int trials) {
  CareEnv e = buildCare(src, tag);
  CampaignConfig plainCfg = pinnedConfig(fault, ecc);
  Campaign plain(e.image.get(), plainCfg);
  EXPECT_TRUE(plain.profile());
  const auto exhaustive = inject::runCampaign(plain, trials, plainCfg.seed, 1,
                                              &e.artifacts, nullptr, nullptr);
  const auto want = detBytes(exhaustive);

  CampaignConfig prunedCfg = plainCfg;
  prunedCfg.prune.enabled = true;
  Campaign pruned(e.image.get(), prunedCfg);
  EXPECT_TRUE(pruned.profile());

  CampaignTelemetry tel;
  // Serial, threaded(4), multiprocess(2): one engine per service config.
  inject::ServiceConfig serial;
  serial.processes = 0;
  serial.threads = 1;
  inject::ServiceConfig threaded;
  threaded.processes = 0;
  threaded.threads = 4;
  inject::ServiceConfig forked;
  forked.processes = 2;
  forked.threads = 2;
  for (const inject::ServiceConfig* svc : {&serial, &threaded, &forked}) {
    const auto got = inject::runCampaign(pruned, trials, prunedCfg.seed, 1,
                                         &e.artifacts, &tel, svc);
    EXPECT_EQ(got.size(), exhaustive.size());
    EXPECT_EQ(detBytes(got), want)
        << tag << ": pruned campaign diverges (procs=" << svc->processes
        << " threads=" << svc->threads << ")";
    EXPECT_GT(tel.pruneGroups, 0);
    EXPECT_LT(tel.pruneGroups, trials)
        << tag << ": pruning found nothing to share";
    EXPECT_EQ(tel.pruneWeightedTrials, trials);
  }
  return tel;
}

TEST(ParetoPrune, Mem1PrunedMatchesExhaustiveOnAllEngines) {
  expectPrunedMatchesExhaustive(kDeadMemProg, "deadmem",
                                inject::FaultModel::Mem1, vm::EccMode::Off,
                                160);
}

TEST(ParetoPrune, Mem2AdjSecdedPrunedMatchesExhaustiveOnAllEngines) {
  // ECC on: the SECDED verdict depends on the flipped bit pattern, so the
  // pattern joins the group key — equivalence must still hold exactly.
  expectPrunedMatchesExhaustive(kStencilProg, "stencil",
                                inject::FaultModel::Mem2Adj,
                                vm::EccMode::Secded, 160);
}

TEST(ParetoPrune, RegModelDegeneratesToDupGroups) {
  // Register campaigns have no dead-memory class; pruning still holds
  // (duplicate points collapse) and stays byte-identical.
  CareEnv e = buildCare(kStencilProg, "regdup");
  CampaignConfig cfg = pinnedConfig(inject::FaultModel::Reg,
                                    vm::EccMode::Off);
  Campaign plain(e.image.get(), cfg);
  ASSERT_TRUE(plain.profile());
  const auto exhaustive =
      inject::runCampaign(plain, 120, cfg.seed, 1, &e.artifacts, nullptr,
                          nullptr);

  CampaignConfig prunedCfg = cfg;
  prunedCfg.prune.enabled = true;
  Campaign pruned(e.image.get(), prunedCfg);
  ASSERT_TRUE(pruned.profile());
  CampaignTelemetry tel;
  const auto got = inject::runCampaign(pruned, 120, cfg.seed, 1, &e.artifacts,
                                       &tel, nullptr);
  EXPECT_EQ(detBytes(got), detBytes(exhaustive));
  EXPECT_LE(tel.pruneGroups, 120);
  EXPECT_EQ(tel.pruneWeightedTrials, 120);
}

TEST(ParetoPrune, AuditRunsCleanAndTelemetryIsPopulated) {
  CareEnv e = buildCare(kDeadMemProg, "audit");
  CampaignConfig cfg = pinnedConfig(inject::FaultModel::Mem1,
                                    vm::EccMode::Off);
  cfg.prune.enabled = true;
  cfg.prune.auditK = 4;
  Campaign campaign(e.image.get(), cfg);
  ASSERT_TRUE(campaign.profile());
  CampaignTelemetry tel;
  const auto records = inject::runCampaign(campaign, 160, cfg.seed, 1,
                                           &e.artifacts, &tel, nullptr);
  EXPECT_EQ(records.size(), 160u);
  EXPECT_EQ(tel.auditMismatches, 0);
  EXPECT_GT(tel.pruneGroups, 0);
  EXPECT_EQ(tel.pruneWeightedTrials, 160);
  // The pareto counters ride in the telemetry JSON unconditionally.
  const std::string j = tel.json();
  for (const char* key : {"\"detect_sample\"", "\"sampled_sites\"",
                          "\"total_sites\"", "\"prune_groups\"",
                          "\"prune_weighted_trials\"",
                          "\"audit_mismatches\""})
    EXPECT_NE(j.find(key), std::string::npos) << key;
}

TEST(ParetoPrune, PrunedKeyCoversTheReplaySpacing) {
  // A pruned campaign's groups follow the replay grid and its shards hold
  // representative trials, so the replay spacing joins its key; unpruned,
  // the spacing is a performance knob and stays out.
  CareEnv e = buildCare(kDeadMemProg, "spacing");
  CampaignConfig cfg = pinnedConfig(inject::FaultModel::Mem1,
                                    vm::EccMode::Secded);
  CampaignConfig other = cfg;
  other.checkpointEveryInstrs = 0;
  EXPECT_EQ(inject::campaignKey(e.cm.imageDigest, cfg, true),
            inject::campaignKey(e.cm.imageDigest, other, true));
  cfg.prune.enabled = other.prune.enabled = true;
  EXPECT_NE(inject::campaignKey(e.cm.imageDigest, cfg, true),
            inject::campaignKey(e.cm.imageDigest, other, true));

  // So a pruned campaign run at two spacings against one store gives the
  // exhaustive campaign's records both times, though the spacings group
  // its points differently.
  constexpr int kTrials = 160;
  CampaignConfig plainCfg = cfg;
  plainCfg.prune.enabled = false;
  Campaign plain(e.image.get(), plainCfg);
  ASSERT_TRUE(plain.profile());
  const auto want = detBytes(inject::runCampaign(
      plain, kTrials, cfg.seed, 1, &e.artifacts, nullptr, nullptr));
  const std::string dir = "care_test_artifacts/pareto/spacing_store";
  std::filesystem::remove_all(dir);
  std::set<int> groups;
  for (const CampaignConfig& c : {other, cfg}) {
    SCOPED_TRACE("checkpointEveryInstrs=" +
                 std::to_string(c.checkpointEveryInstrs));
    Campaign pruned(e.image.get(), c);
    ASSERT_TRUE(pruned.profile());
    inject::ServiceConfig svc;
    svc.threads = 1;
    svc.storeDir = dir;
    svc.storeKey = inject::campaignKey(e.cm.imageDigest, c, true);
    CampaignTelemetry tel;
    EXPECT_EQ(detBytes(inject::runCampaign(pruned, kTrials, c.seed, 1,
                                           &e.artifacts, &tel, &svc)),
              want);
    EXPECT_EQ(tel.storeHits, 0);
    groups.insert(tel.pruneGroups);
  }
  EXPECT_EQ(groups.size(), 2u);
}

TEST(ParetoPrune, PruneKeySeparatesLiveAndDeadStrikes) {
  // White-box: a strike at t=0 on a word the golden run writes must not be
  // grouped as dead; a strike at golden-end on a sampled word must be. The
  // keys read the watch table, built over exactly these points.
  CareEnv e = buildCare(kDeadMemProg, "keys");
  CampaignConfig cfg = pinnedConfig(inject::FaultModel::Mem1,
                                    vm::EccMode::Off);
  cfg.prune.enabled = true;
  Campaign campaign(e.image.get(), cfg);
  ASSERT_TRUE(campaign.profile());

  // Random page sampling almost never hits a touched word (the stack
  // dwarfs the globals), so take the words the golden run writes.
  vm::Executor golden(e.image.get());
  const auto before = vm::MemorySnapshot::capture(golden.memory());
  golden.setBudget(campaign.goldenInstrs() + 1);
  ASSERT_EQ(vm::runToCompletion(golden).status, vm::RunStatus::Done);
  const std::vector<std::uint64_t> written =
      changedWords(before, vm::MemorySnapshot::capture(golden.memory()));
  ASSERT_GT(written.size(), 100u) << "golden run wrote suspiciously little";

  Rng rng(cfg.seed);
  std::vector<inject::InjectionPoint> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back(campaign.sample(rng));
    // No sampled word (mostly stack the run never reaches) is accessed in
    // the last segment, which holds the golden end.
    points.back().nth = campaign.goldenInstrs();
  }
  for (const std::uint64_t word : written) {
    points.push_back(campaign.sample(rng));
    points.back().nth = 0;
    points.back().memAddr = word;
  }
  campaign.watch(points);
  for (const inject::InjectionPoint& pt : points) {
    const std::string key = campaign.pruneKey(pt);
    EXPECT_EQ(key.rfind(pt.nth == 0 ? "dup." : "deadmem", 0), 0u)
        << key << " for word " << pt.memAddr << " at " << pt.nth;
  }
}

} // namespace
} // namespace care::test
