// Sentinel detector subsystem tests: option parsing, IR round-trips of
// instrumented modules, golden-run noninterference, detection outcomes in
// injection campaigns, and the byte-stability guarantees of the campaign
// cache with detectors off (pre-PR golden digests) and on (cache
// round-trip).
#include <gtest/gtest.h>

#include <filesystem>

#include "backend/mir.hpp"
#include "care/driver.hpp"
#include "inject/experiment.hpp"
#include "ir/names.hpp"
#include "ir/parse.hpp"
#include "ir/printer.hpp"
#include "sentinel/sentinel.hpp"
#include "support/md5.hpp"
#include "testutil.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

using workloads::Workload;

// --- option parsing ---------------------------------------------------------

TEST(DetectOptions, ParsesTokens) {
  EXPECT_FALSE(sentinel::parseDetect("").any());
  EXPECT_FALSE(sentinel::parseDetect("none").any());
  EXPECT_FALSE(sentinel::parseDetect("off").any());
  auto cfc = sentinel::parseDetect("cfc");
  EXPECT_TRUE(cfc.cfc);
  EXPECT_FALSE(cfc.addr);
  auto addr = sentinel::parseDetect("addr");
  EXPECT_FALSE(addr.cfc);
  EXPECT_TRUE(addr.addr);
  auto both = sentinel::parseDetect("cfc,addr");
  EXPECT_TRUE(both.cfc && both.addr);
  auto all = sentinel::parseDetect("all");
  EXPECT_TRUE(all.cfc && all.addr);
  auto spaced = sentinel::parseDetect(" cfc , addr ");
  EXPECT_TRUE(spaced.cfc && spaced.addr);
  EXPECT_THROW(sentinel::parseDetect("bogus"), Error);
}

// --- instrumentation over the workloads -------------------------------------

std::unique_ptr<ir::Module> buildWorkloadIR(const Workload& w,
                                            opt::OptLevel level) {
  auto m = std::make_unique<ir::Module>(w.name);
  for (const auto& s : w.sources)
    lang::compileIntoModule(s.content, s.name, *m);
  ir::verifyOrDie(*m);
  opt::optimize(*m, level);
  // Armor re-uniquifies after the optimizer (mem2reg mints fresh .phi
  // names); mirror that here since the textual parser needs unique names.
  ir::uniquifyNames(*m);
  ir::verifyOrDie(*m);
  return m;
}

sentinel::DetectOptions bothDetectors() {
  sentinel::DetectOptions d;
  d.cfc = d.addr = true;
  return d;
}

TEST(Sentinel, InstrumentedModulesRoundTripThroughText) {
  for (const Workload* w : workloads::allWorkloads()) {
    for (opt::OptLevel level : {opt::OptLevel::O0, opt::OptLevel::O1}) {
      auto m = buildWorkloadIR(*w, level);
      const sentinel::SentinelStats stats =
          sentinel::runSentinel(*m, bothDetectors());
      ir::verifyOrDie(*m);
      EXPECT_FALSE(stats.functions.empty()) << w->name;
      EXPECT_GT(stats.signatureBlocks(), 0u) << w->name;
      EXPECT_GT(stats.signatureChecks(), 0u) << w->name;
      EXPECT_GT(stats.shadowChains(), 0u) << w->name;

      const std::string once = ir::toString(m.get());
      auto reparsed = ir::parseModule(once);
      ir::verifyOrDie(*reparsed);
      EXPECT_EQ(once, ir::toString(reparsed.get()))
          << w->name << " instrumented IR is not a print->parse fixed point";
    }
  }
}

TEST(Sentinel, GoldenRunUnchangedByDetectors) {
  for (const Workload* w : workloads::allWorkloads()) {
    auto plain = buildWorkloadIR(*w, opt::OptLevel::O1);
    auto armed = buildWorkloadIR(*w, opt::OptLevel::O1);
    sentinel::runSentinel(*armed, bothDetectors());
    ir::verifyOrDie(*armed);

    auto run = [&](ir::Module& m) {
      auto mm = backend::lowerModule(m);
      auto image = std::make_unique<vm::Image>();
      image->load(mm.get());
      image->link();
      vm::Executor ex(image.get());
      ex.setBudget(500'000'000);
      RunOutput out;
      out.result = vm::runToCompletion(ex, w->entry);
      out.output = ex.output();
      return out;
    };
    const RunOutput p = run(*plain);
    const RunOutput s = run(*armed);
    ASSERT_EQ(p.result.status, vm::RunStatus::Done) << w->name;
    ASSERT_EQ(s.result.status, vm::RunStatus::Done)
        << w->name << ": detectors fired on a fault-free run";
    EXPECT_EQ(p.result.exitCode, s.result.exitCode) << w->name;
    EXPECT_EQ(p.output, s.output) << w->name;
    // The instrumentation must actually cost something dynamically —
    // otherwise it never executed.
    EXPECT_GT(s.result.instrCount, p.result.instrCount) << w->name;
  }
}

TEST(Sentinel, ArmedModulesLowerToSentinelTrapOps) {
  auto m = buildWorkloadIR(workloads::hpccg(), opt::OptLevel::O0);
  sentinel::runSentinel(*m, bothDetectors());
  auto mm = backend::lowerModule(*m);
  std::size_t traps = 0;
  for (const backend::MFunction& f : mm->functions)
    for (const backend::MInst& mi : f.code)
      if (mi.op == backend::MOp::SentinelTrap) ++traps;
  EXPECT_GT(traps, 0u);
  EXPECT_STREQ(vm::trapKindName(vm::TrapKind::Sentinel), "SIGSENT");
}

TEST(Sentinel, CompileDriverReportsStats) {
  const Workload& w = workloads::gtcp();
  core::CompileOptions opts;
  opts.optLevel = opt::OptLevel::O0;
  opts.artifactDir = "care_test_artifacts/sentinel_stats";
  core::CompiledModule off = core::careCompile(
      {{w.sources[0].name, w.sources[0].content}}, "sent_off", opts);
  EXPECT_TRUE(off.sentinelStats.functions.empty());
  EXPECT_EQ(off.timings.sentinelSec, 0.0);

  opts.armor.detect = bothDetectors();
  core::CompiledModule on = core::careCompile(
      {{w.sources[0].name, w.sources[0].content}}, "sent_on", opts);
  EXPECT_FALSE(on.sentinelStats.functions.empty());
  EXPECT_GT(on.sentinelStats.addedInstrs(), 0u);
}

// --- campaigns --------------------------------------------------------------

/// The golden campaign on top of the CI env legs: detectors off, repair
/// only, register faults, ECC off; the legs' other knobs (threads,
/// processes, store, replay, pruning) leave the records unchanged.
inject::ExperimentConfig campaignConfig(const std::string& dir,
                                        opt::OptLevel level) {
  inject::ExperimentConfig cfg;
  runEnv().apply(cfg);
  cfg.level = level;
  cfg.seed = 7777;
  cfg.injections = 60;
  cfg.cacheDir = dir;
  cfg.armor.detect = {};
  cfg.armor.recover = core::RecoveryStrategy::Repair;
  cfg.fault = inject::FaultModel::Reg;
  cfg.ecc = vm::EccMode::Off;
  return cfg;
}

TEST(Sentinel, CampaignConvertsFailuresToDetected) {
  const std::string dir = "care_test_artifacts/sentinel_fires";
  std::filesystem::remove_all(dir);
  auto cfg = campaignConfig(dir, opt::OptLevel::O0);
  cfg.careOnSegv = false;
  cfg.injections = 150;
  cfg.armor.detect = bothDetectors();
  const inject::ExperimentResult r =
      runExperiment(workloads::hpccg(), cfg);
  EXPECT_GT(r.detectedCount(), 0);
  for (const inject::InjectionRecord& rec : r.records) {
    if (rec.plain.outcome == inject::Outcome::Detected) {
      EXPECT_EQ(rec.plain.signal, vm::TrapKind::Sentinel);
    }
  }
  EXPECT_GT(r.meanDetectionLatencyInstrs(), 0.0);
}

TEST(Sentinel, DetectorCampaignCacheRoundTrips) {
  const std::string dir = "care_test_artifacts/sentinel_cache";
  std::filesystem::remove_all(dir);
  auto cfg = campaignConfig(dir, opt::OptLevel::O0);
  cfg.armor.detect = bothDetectors();
  const auto fresh = runExperiment(workloads::gtcp(), cfg);
  inject::CampaignTelemetry tel;
  const auto cached = runExperiment(workloads::gtcp(), cfg, &tel);
  EXPECT_TRUE(tel.fromCache);
  EXPECT_EQ(tel.storeHits, tel.shards);
  EXPECT_EQ(inject::serializeDeterministic(fresh),
            inject::serializeDeterministic(cached));
  EXPECT_GT(fresh.detectedCount(), 0);
}

TEST(Sentinel, ArmedAndDisarmedCampaignsGetDistinctCaches) {
  // Arming the detectors changes the binary, so the armed campaign misses
  // every shard of the disarmed one; both then live in one store.
  const std::string dir = "care_test_artifacts/sentinel_keys";
  std::filesystem::remove_all(dir);
  auto off = campaignConfig(dir, opt::OptLevel::O0);
  off.resultStore = dir + "/store"; // not a leg's shared store
  auto on = off;
  on.armor.detect = bothDetectors();
  inject::CampaignTelemetry offTel, onTel, offAgain, onAgain;
  runExperiment(workloads::minimd(), off, &offTel);
  runExperiment(workloads::minimd(), on, &onTel);
  runExperiment(workloads::minimd(), off, &offAgain);
  runExperiment(workloads::minimd(), on, &onAgain);
  for (const inject::CampaignTelemetry* t : {&offTel, &onTel}) {
    EXPECT_GT(t->shards, 0);
    EXPECT_EQ(t->storeHits, 0);
    EXPECT_EQ(t->storeMisses, t->shards);
  }
  EXPECT_TRUE(offAgain.fromCache);
  EXPECT_TRUE(onAgain.fromCache);
}

// With detectors off, every campaign's deterministic byte stream must be
// identical to what the pre-detector tree produced — the subsystem is
// invisible until armed. The digests were first recorded on the commit
// before the sentinel subsystem landed (seed 7777, 60 injections,
// careOnSegv on, default Armor knobs) and re-recorded when the rollback
// strategy fields entered record serialization (kCacheVersion 9; the new
// fields are all zero under the pinned repair-only strategy, but they
// shift the byte layout), then again when replaySavedInstrs joined the
// full-fidelity format (kCacheVersion 10 — only the serialized version
// word changes in this detector-off, timing-free projection), and again
// at kCacheVersion 11: fault-model/memAddr/ECC-counter fields entered the
// record layout AND register-fault bit positions are now sampled within
// the destination operand's width (an i8/i32 store cell draws from 8/32
// positions instead of a 0..63 draw folded by a modulo), which changes
// sampled points — not just bytes — for every campaign.
TEST(Sentinel, DisarmedCampaignBytesMatchPreDetectorGoldens) {
  struct Golden {
    const char* workload;
    const char* level;
    const char* md5;
  };
  static const Golden kGoldens[] = {
      {"HPCCG", "O0", "3e936c2cc1c299f35426f8477c128499"},
      {"HPCCG", "O1", "006ef5f7dea9fb839ec5054929b6da3f"},
      {"CoMD", "O0", "5e0c265cbbd510b9df40744311cac44a"},
      {"CoMD", "O1", "470e30ddfde8d01ea04a210f25af5bda"},
      {"miniFE", "O0", "f3eb4b540f5e20a4b51f94240e1507c0"},
      {"miniFE", "O1", "f5825f65a779091e217efef285c7f370"},
      {"miniMD", "O0", "136b5300f8bca88050ccd8aa6fb8fbd9"},
      {"miniMD", "O1", "678f7a1b1e6891e2b22ef73fa85e9e1e"},
      {"GTC-P", "O0", "02393ddc3e8c3579c23103ef41b86913"},
      {"GTC-P", "O1", "eccd66204194b682ca2d5d9940c87ee0"},
  };
  const std::string dir = "care_test_artifacts/sentinel_goldens";
  std::filesystem::remove_all(dir);
  for (const Golden& g : kGoldens) {
    const Workload* w = nullptr;
    for (const Workload* cand : workloads::allWorkloads())
      if (cand->name == g.workload) w = cand;
    ASSERT_NE(w, nullptr) << g.workload;
    const opt::OptLevel level = std::string(g.level) == "O0"
                                    ? opt::OptLevel::O0
                                    : opt::OptLevel::O1;
    const inject::ExperimentResult r =
        runExperiment(*w, campaignConfig(dir, level));
    const std::vector<std::uint8_t> bytes = inject::serializeDeterministic(r);
    Md5 h;
    h.update(bytes.data(), bytes.size());
    EXPECT_EQ(h.finish().hex(), g.md5) << g.workload << " " << g.level;
  }
}

} // namespace
} // namespace care::test
