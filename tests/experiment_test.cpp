// Experiment-runner tests: determinism, the result store as the campaign
// cache, aggregation.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>

#include "inject/experiment.hpp"
#include "testutil.hpp"

namespace care::test {
namespace {

using inject::ExperimentConfig;
using inject::ExperimentResult;
using inject::Outcome;

/// A small campaign that follows the CI env legs.
ExperimentConfig smallConfig(const std::string& dir) {
  ExperimentConfig cfg;
  runEnv().apply(cfg);
  cfg.level = opt::OptLevel::O0;
  cfg.injections = 40;
  cfg.seed = 123;
  cfg.cacheDir = dir;
  return cfg;
}

/// smallConfig with the store pinned under `dir`, so a CARE_RESULT_STORE
/// shared across test runs cannot turn an expected miss into a hit.
ExperimentConfig ownStoreConfig(const std::string& dir) {
  ExperimentConfig cfg = smallConfig(dir);
  cfg.resultStore = dir + "/store";
  return cfg;
}

/// Every shard of the campaign was computed, none served.
void expectCold(const inject::CampaignTelemetry& t) {
  EXPECT_FALSE(t.fromCache);
  EXPECT_GT(t.shards, 0);
  EXPECT_EQ(t.storeHits, 0);
  EXPECT_EQ(t.storeMisses, t.shards);
}

/// Every shard of the campaign was served from the store.
void expectWarm(const inject::CampaignTelemetry& t) {
  EXPECT_TRUE(t.fromCache);
  EXPECT_GT(t.shards, 0);
  EXPECT_EQ(t.storeHits, t.shards);
  EXPECT_EQ(t.storeMisses, 0);
}

TEST(Experiment, DeterministicForFixedSeed) {
  const std::string dir = "care_test_artifacts/exp_det";
  std::filesystem::remove_all(dir);
  auto cfg = smallConfig(dir);
  cfg.resultStore = ""; // both runs execute
  const auto r1 = runExperiment(workloads::gtcp(), cfg);
  const auto r2 = runExperiment(workloads::gtcp(), cfg);
  ASSERT_EQ(r1.records.size(), r2.records.size());
  for (std::size_t i = 0; i < r1.records.size(); ++i) {
    EXPECT_EQ(r1.records[i].plain.outcome, r2.records[i].plain.outcome);
    EXPECT_EQ(r1.records[i].point.nth, r2.records[i].point.nth);
    EXPECT_EQ(r1.records[i].point.bits, r2.records[i].point.bits);
    EXPECT_EQ(r1.records[i].withCare.careRecovered,
              r2.records[i].withCare.careRecovered);
  }
}

TEST(Experiment, CacheRoundTripsAggregates) {
  const std::string dir = "care_test_artifacts/exp_cache";
  std::filesystem::remove_all(dir);
  const auto fresh = runExperiment(workloads::hpccg(), smallConfig(dir));
  const auto cached = runExperiment(workloads::hpccg(), smallConfig(dir));
  EXPECT_EQ(fresh.records.size(), cached.records.size());
  EXPECT_EQ(fresh.goldenInstrs, cached.goldenInstrs);
  for (Outcome o : {Outcome::Benign, Outcome::SoftFailure, Outcome::SDC,
                    Outcome::Hang})
    EXPECT_EQ(fresh.count(o), cached.count(o));
  EXPECT_EQ(fresh.segvCount(), cached.segvCount());
  EXPECT_EQ(fresh.recoveredCount(), cached.recoveredCount());
  EXPECT_EQ(fresh.latencyBuckets(), cached.latencyBuckets());
}

TEST(Experiment, DistinctConfigsGetDistinctCaches) {
  // A config that changes records misses every shard of the other, and
  // both campaigns then live side by side in one store.
  const std::string dir = "care_test_artifacts/exp_keys";
  std::filesystem::remove_all(dir);
  auto c1 = ownStoreConfig(dir);
  auto c2 = ownStoreConfig(dir);
  c2.bits = 2;
  inject::CampaignTelemetry t1, t2, again1, again2;
  runExperiment(workloads::minife(), c1, &t1);
  runExperiment(workloads::minife(), c2, &t2);
  expectCold(t1);
  expectCold(t2);
  runExperiment(workloads::minife(), c1, &again1);
  runExperiment(workloads::minife(), c2, &again2);
  expectWarm(again1);
  expectWarm(again2);
}

TEST(Experiment, SameNameDifferentSourcesGetDistinctRecords) {
  // The key is the compiled binary, not the workload's name: a workload
  // that shares a name (and a cache directory) with another must get its
  // own records, exactly those of a run with no store at all.
  const std::string dir = "care_test_artifacts/exp_same_name";
  std::filesystem::remove_all(dir);
  workloads::Workload a = workloads::hpccg();
  workloads::Workload b = workloads::gtcp();
  a.name = b.name = "twin";
  const ExperimentResult ra = runExperiment(a, smallConfig(dir));
  const ExperimentResult rb = runExperiment(b, smallConfig(dir));
  auto alone = smallConfig(dir + "_alone");
  alone.resultStore = "";
  const ExperimentResult rbAlone = runExperiment(b, alone);
  EXPECT_NE(ra.goldenInstrs, rb.goldenInstrs);
  EXPECT_NE(inject::serializeDeterministic(ra),
            inject::serializeDeterministic(rb));
  EXPECT_EQ(inject::serializeDeterministic(rb),
            inject::serializeDeterministic(rbAlone));
}

TEST(Experiment, ImageDigestIsStableAndCoversCompileKnobs) {
  // The campaign key stands on the image digest, so the digest must follow
  // from the source and the compile knobs alone, never from heap layout,
  // and it must move with every knob that changes the binary.
  const std::string dir = "care_test_artifacts/exp_digest";
  std::filesystem::remove_all(dir);
  auto digestOf = [&](const workloads::Workload& w,
                      const ExperimentConfig& cfg) {
    return inject::buildWorkload(w, cfg).cm.imageDigest;
  };
  ExperimentConfig base;
  base.cacheDir = dir;
  std::vector<std::unique_ptr<char[]>> churn;
  for (const workloads::Workload* w : workloads::allWorkloads()) {
    for (const opt::OptLevel level : {opt::OptLevel::O0, opt::OptLevel::O1}) {
      for (const bool armed : {false, true}) {
        ExperimentConfig cfg = base;
        cfg.level = level;
        cfg.armor.detect.cfc = cfg.armor.detect.addr = armed;
        const Md5Digest first = digestOf(*w, cfg);
        for (int j = 0; j < 500; ++j)
          churn.emplace_back(new char[16 + (j * 7919) % 300]);
        EXPECT_EQ(digestOf(*w, cfg), first)
            << w->name << (level == opt::OptLevel::O0 ? " O0" : " O1")
            << (armed ? " detectors armed" : "");
      }
    }
  }

  // The compile knobs the key no longer lists one by one, at -O1. The
  // workloads compile to the same binary under both slicing ablations, so
  // the Armor knobs are checked on a program where each one matters: a
  // non-inlined call result with only local uses (requireNonLocalUse), a
  // slice maximal slicing grows, and a lock-step induction variable pair
  // (inductionRecovery, Fig. 11).
  using Edit = std::function<void(core::ArmorOptions&)>;
  auto with = [&](const workloads::Workload& w, const Edit& edit) {
    ExperimentConfig cfg = base;
    cfg.level = opt::OptLevel::O1;
    edit(cfg.armor);
    return digestOf(w, cfg);
  };
  const Edit none = [](core::ArmorOptions&) {};
  const workloads::Workload knobs{"knobs", {{"knobs.c", R"(
double a[4096];
int g(int x) {
  if (x > 1000) { return g(x - 1); }
  a[x] = 0.0;
  return x + 1;
}
int main() {
  double s = 0.0;
  int idx = 0;
  for (int i = 0; i < 100; i = i + 1) {
    int j = g(i);
    a[j * 2] = 1.0;
    a[j * 3] = 2.0;
    s = s + a[idx + 3];
    idx = idx + 7;
  }
  emit(s);
  return 0;
}
)"}}};
  const Md5Digest armorPlain = with(knobs, none);
  EXPECT_NE(with(knobs, [](auto& a) { a.maximalSlicing = true; }),
            armorPlain);
  EXPECT_NE(with(knobs, [](auto& a) { a.requireNonLocalUse = false; }),
            armorPlain);
  EXPECT_NE(with(knobs, [](auto& a) { a.inductionRecovery = true; }),
            armorPlain);
  const workloads::Workload& hpccg = workloads::hpccg();
  const Md5Digest plain = with(hpccg, none);
  const Md5Digest cfc = with(hpccg, [](auto& a) { a.detect.cfc = true; });
  const Md5Digest addr = with(hpccg, [](auto& a) { a.detect.addr = true; });
  EXPECT_NE(cfc, plain);
  EXPECT_NE(addr, plain);
  EXPECT_NE(cfc, addr);
  // Sampling epochs 1 and 17 of a 1/16 rotation arm the same sites.
  auto sampled = [&](std::uint64_t epoch) {
    return with(hpccg, [&](core::ArmorOptions& a) {
      a.detect.cfc = a.detect.addr = true;
      a.detectSample = pareto::SampleConfig{16, epoch};
    });
  };
  EXPECT_EQ(sampled(1), sampled(17));
  EXPECT_NE(sampled(1), sampled(0));
}

TEST(Experiment, RollbackIntervalGetsDistinctCachesAndShards) {
  // Rollback trials space their ring by `rollbackInterval`, independently
  // of the replay interval: two campaigns that differ only in it run
  // different trials and must share no store shards.
  const std::string dir = "care_test_artifacts/exp_rb_keys";
  std::filesystem::remove_all(dir);
  ExperimentConfig cfg;
  cfg.injections = 40;
  cfg.seed = 123;
  cfg.cacheDir = dir;
  cfg.ckptInterval = 0;
  cfg.armor.recover = core::RecoveryStrategy::RepairThenRollback;
  auto runAt = [&](std::uint64_t interval) {
    cfg.rollbackInterval = interval;
    inject::CampaignTelemetry tel;
    runExperiment(workloads::hpccg(), cfg, &tel);
    return tel;
  };
  const inject::CampaignTelemetry at2000 = runAt(2000);
  const inject::CampaignTelemetry at50 = runAt(50);
  const inject::CampaignTelemetry again = runAt(2000);
  expectCold(at2000);
  expectCold(at50);
  // The store was live: the matching interval is served from it.
  expectWarm(again);
}

// --- parallel campaign engine -----------------------------------------------

TEST(Experiment, ParallelCampaignMatchesSerialByteForByte) {
  // The engine's contract: for any `threads`, the deterministic portion of
  // the records (points, outcomes, signals, latencies, CARE results) is
  // bit-identical to the legacy serial loop. Both runs are cold (the store
  // is off) so this exercises real execution, not cache reuse.
  const std::string dir = "care_test_artifacts/exp_par_eq";
  std::filesystem::remove_all(dir);
  auto serialCfg = smallConfig(dir);
  serialCfg.threads = 1;
  serialCfg.resultStore = "";
  const ExperimentResult serial = runExperiment(workloads::gtcp(), serialCfg);
  auto parCfg = serialCfg;
  parCfg.threads = 4;
  inject::CampaignTelemetry tel;
  const ExperimentResult parallel =
      runExperiment(workloads::gtcp(), parCfg, &tel);
  EXPECT_FALSE(tel.fromCache);
  EXPECT_EQ(tel.threads, 4);
  EXPECT_EQ(tel.trials, parCfg.injections);
  EXPECT_GT(tel.wallSec, 0.0);
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  EXPECT_EQ(serial.goldenInstrs, parallel.goldenInstrs);
  EXPECT_EQ(inject::serializeDeterministic(serial),
            inject::serializeDeterministic(parallel));
}

TEST(Experiment, ThreadsStayOutOfTheCacheKey) {
  // Serial-written shards must be reused verbatim by a parallel run: every
  // shard a hit, and identical records including the wall-clock timing
  // fields (which only a cache hit could reproduce).
  const std::string dir = "care_test_artifacts/exp_par_key";
  std::filesystem::remove_all(dir);
  auto serialCfg = ownStoreConfig(dir);
  serialCfg.threads = 1;
  inject::CampaignTelemetry serialTel;
  const ExperimentResult serial =
      runExperiment(workloads::minife(), serialCfg, &serialTel);
  expectCold(serialTel);
  auto parCfg = ownStoreConfig(dir);
  parCfg.threads = 4;
  inject::CampaignTelemetry tel;
  const ExperimentResult parallel =
      runExperiment(workloads::minife(), parCfg, &tel);
  expectWarm(tel);
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  EXPECT_EQ(inject::serializeDeterministic(serial),
            inject::serializeDeterministic(parallel));
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.records[i].withCare.recoveryUsTotal,
                     parallel.records[i].withCare.recoveryUsTotal);
    EXPECT_DOUBLE_EQ(serial.records[i].withCare.kernelUsTotal,
                     parallel.records[i].withCare.kernelUsTotal);
  }
}

TEST(Experiment, InterpBackendStaysOutOfTheCacheKey) {
  // The interpreter backend is a performance knob with a bit-identical
  // contract (vm_diff_test), so a campaign stored under one backend must be
  // served verbatim to a campaign running under another: every shard a
  // hit, identical deterministic bytes. Only the telemetry records which
  // backend each run resolved.
  struct InterpGuard {
    vm::InterpKind saved = vm::defaultInterp();
    ~InterpGuard() { vm::setDefaultInterp(saved); }
  } guard;
  const std::string dir = "care_test_artifacts/exp_interp_key";
  std::filesystem::remove_all(dir);
  vm::setDefaultInterp(vm::InterpKind::Fast);
  inject::CampaignTelemetry fastTel;
  const ExperimentResult fast =
      runExperiment(workloads::hpccg(), ownStoreConfig(dir), &fastTel);
  expectCold(fastTel);
  EXPECT_EQ(fastTel.interp, "fast");
  vm::setDefaultInterp(vm::InterpKind::Jit);
  inject::CampaignTelemetry jitTel;
  const ExperimentResult jit =
      runExperiment(workloads::hpccg(), ownStoreConfig(dir), &jitTel);
  expectWarm(jitTel);
  EXPECT_EQ(jitTel.interp, "jit");
  EXPECT_EQ(inject::serializeDeterministic(fast),
            inject::serializeDeterministic(jit));
}

TEST(Experiment, ParallelWrittenCacheRoundTrips) {
  // The inverse direction: a campaign executed by the parallel engine is
  // written to the store and loaded back with an identical ExperimentResult.
  const std::string dir = "care_test_artifacts/exp_par_rt";
  std::filesystem::remove_all(dir);
  auto cfg = ownStoreConfig(dir);
  cfg.threads = 4;
  inject::CampaignTelemetry cold, warm;
  const ExperimentResult fresh = runExperiment(workloads::gtcp(), cfg, &cold);
  const ExperimentResult cached = runExperiment(workloads::gtcp(), cfg, &warm);
  expectCold(cold);
  expectWarm(warm);
  ASSERT_EQ(fresh.records.size(), cached.records.size());
  EXPECT_EQ(fresh.goldenInstrs, cached.goldenInstrs);
  EXPECT_EQ(inject::serializeDeterministic(fresh),
            inject::serializeDeterministic(cached));
  for (Outcome o : {Outcome::Benign, Outcome::SoftFailure, Outcome::SDC,
                    Outcome::Hang})
    EXPECT_EQ(fresh.count(o), cached.count(o));
  EXPECT_EQ(fresh.recoveredCount(), cached.recoveredCount());
  for (std::size_t i = 0; i < fresh.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(fresh.records[i].withCare.recoveryUsTotal,
                     cached.records[i].withCare.recoveryUsTotal);
    EXPECT_DOUBLE_EQ(fresh.records[i].plain.recoveryUsTotal,
                     cached.records[i].plain.recoveryUsTotal);
  }
}

TEST(Experiment, AggregatesAreConsistent) {
  const auto r = runExperiment(workloads::gtcp(),
                               smallConfig("care_test_artifacts/exp_det"));
  const int total = r.count(Outcome::Benign) + r.count(Outcome::SoftFailure) +
                    r.count(Outcome::SDC) + r.count(Outcome::Hang) +
                    r.count(Outcome::Detected) + r.count(Outcome::RolledBack) +
                    r.count(Outcome::Corrected);
  EXPECT_EQ(total, static_cast<int>(r.records.size()));
  const auto b = r.latencyBuckets();
  EXPECT_EQ(b[0] + b[1] + b[2] + b[3], r.count(Outcome::SoftFailure));
  EXPECT_LE(r.recoveredCount(), r.segvCount());
  EXPECT_GE(r.coverage(), 0.0);
  EXPECT_LE(r.coverage(), 1.0);
}

} // namespace
} // namespace care::test
