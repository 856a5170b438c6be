// Experiment-runner tests: determinism, on-disk caching, aggregation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "inject/experiment.hpp"

namespace care::test {
namespace {

using inject::ExperimentConfig;
using inject::ExperimentResult;
using inject::Outcome;

ExperimentConfig smallConfig(const std::string& dir) {
  ExperimentConfig cfg;
  cfg.level = opt::OptLevel::O0;
  cfg.injections = 40;
  cfg.seed = 123;
  cfg.cacheDir = dir;
  return cfg;
}

TEST(Experiment, DeterministicForFixedSeed) {
  const std::string dir = "care_test_artifacts/exp_det";
  std::filesystem::remove_all(dir);
  const auto r1 = runExperiment(workloads::gtcp(), smallConfig(dir));
  std::filesystem::remove_all(dir); // force a fresh (non-cached) rerun
  const auto r2 = runExperiment(workloads::gtcp(), smallConfig(dir));
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
  const std::string dir = "care_test_artifacts/exp_keys";
  std::filesystem::remove_all(dir);
  auto c1 = smallConfig(dir);
  auto c2 = smallConfig(dir);
  c2.bits = 2;
  runExperiment(workloads::minife(), c1);
  runExperiment(workloads::minife(), c2);
  int files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().extension() == ".camp") ++files;
  EXPECT_EQ(files, 2);
}

TEST(Experiment, RollbackIntervalGetsDistinctCachesAndShards) {
  // Rollback trials space their ring by CARE_CKPT_INTERVAL (golden/64 when
  // unset), independently of the replay interval: two campaigns that
  // differ only in it run different trials and must share neither a .camp
  // file nor store shards.
  const std::string dir = "care_test_artifacts/exp_rb_keys";
  std::filesystem::remove_all(dir);
  auto cfg = smallConfig(dir + "/cache");
  cfg.ckptInterval = 0;
  cfg.armor.recover = core::RecoveryStrategy::RepairThenRollback;
  cfg.armor.recoverAuto = false;
  cfg.armor.detectAuto = false;
  cfg.armor.detectSampleAuto = false;
  cfg.fault = inject::FaultModel::Reg;
  cfg.ecc = vm::EccMode::Off;
  cfg.prune = pareto::PruneOptions{};
  cfg.processes = 0;
  cfg.resultStore = "";
  const char* saved = std::getenv("CARE_CKPT_INTERVAL");
  const std::string savedValue = saved ? saved : "";
  auto runAt = [&](const char* interval) {
    setenv("CARE_CKPT_INTERVAL", interval, 1);
    inject::CampaignTelemetry tel;
    runExperiment(workloads::hpccg(), cfg, &tel);
    return tel;
  };
  // The .camp file, store off.
  runAt("2000");
  EXPECT_FALSE(runAt("50").fromCache);
  // The store, with the .camp file removed before every run.
  cfg.resultStore = dir + "/store";
  std::filesystem::remove_all(cfg.cacheDir);
  runAt("2000");
  std::filesystem::remove_all(cfg.cacheDir);
  const inject::CampaignTelemetry at50 = runAt("50");
  std::filesystem::remove_all(cfg.cacheDir);
  const inject::CampaignTelemetry again = runAt("2000");
  if (saved)
    setenv("CARE_CKPT_INTERVAL", savedValue.c_str(), 1);
  else
    unsetenv("CARE_CKPT_INTERVAL");
  EXPECT_EQ(at50.storeHits, 0);
  EXPECT_EQ(at50.storeMisses, at50.shards);
  // The store was live: the matching interval is served from it.
  EXPECT_GT(again.storeHits, 0);
  EXPECT_EQ(again.storeHits, again.shards);
}

// --- parallel campaign engine -----------------------------------------------

TEST(Experiment, ParallelCampaignMatchesSerialByteForByte) {
  // The engine's contract: for any `threads`, the deterministic portion of
  // the records (points, outcomes, signals, latencies, CARE results) is
  // bit-identical to the legacy serial loop. Both runs are cold (the cache
  // is wiped in between) so this exercises real execution, not cache reuse.
  const std::string dir = "care_test_artifacts/exp_par_eq";
  std::filesystem::remove_all(dir);
  auto serialCfg = smallConfig(dir);
  serialCfg.threads = 1;
  const ExperimentResult serial = runExperiment(workloads::gtcp(), serialCfg);
  std::filesystem::remove_all(dir);
  auto parCfg = smallConfig(dir);
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
  // A serial-written cache must be reused verbatim by a parallel run: one
  // .camp file, fromCache=true, and identical records including the
  // wall-clock timing fields (which only a cache hit could reproduce).
  const std::string dir = "care_test_artifacts/exp_par_key";
  std::filesystem::remove_all(dir);
  auto serialCfg = smallConfig(dir);
  serialCfg.threads = 1;
  const ExperimentResult serial =
      runExperiment(workloads::minife(), serialCfg);
  auto parCfg = smallConfig(dir);
  parCfg.threads = 4;
  inject::CampaignTelemetry tel;
  const ExperimentResult parallel =
      runExperiment(workloads::minife(), parCfg, &tel);
  EXPECT_TRUE(tel.fromCache);
  int files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().extension() == ".camp") ++files;
  EXPECT_EQ(files, 1);
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
  // contract (vm_diff_test), so a campaign cached under one backend must be
  // served verbatim to a campaign running under another: one .camp file,
  // fromCache=true, identical deterministic bytes. Only the telemetry
  // records which backend each run resolved.
  struct InterpGuard {
    vm::InterpKind saved = vm::defaultInterp();
    ~InterpGuard() { vm::setDefaultInterp(saved); }
  } guard;
  const std::string dir = "care_test_artifacts/exp_interp_key";
  std::filesystem::remove_all(dir);
  vm::setDefaultInterp(vm::InterpKind::Fast);
  inject::CampaignTelemetry fastTel;
  const ExperimentResult fast =
      runExperiment(workloads::hpccg(), smallConfig(dir), &fastTel);
  EXPECT_FALSE(fastTel.fromCache);
  EXPECT_EQ(fastTel.interp, "fast");
  vm::setDefaultInterp(vm::InterpKind::Jit);
  inject::CampaignTelemetry jitTel;
  const ExperimentResult jit =
      runExperiment(workloads::hpccg(), smallConfig(dir), &jitTel);
  EXPECT_TRUE(jitTel.fromCache);
  EXPECT_EQ(jitTel.interp, "jit");
  int files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().extension() == ".camp") ++files;
  EXPECT_EQ(files, 1);
  EXPECT_EQ(inject::serializeDeterministic(fast),
            inject::serializeDeterministic(jit));
}

TEST(Experiment, ParallelWrittenCacheRoundTrips) {
  // The inverse direction: a campaign executed by the parallel engine is
  // written to disk and loaded back with an identical ExperimentResult.
  const std::string dir = "care_test_artifacts/exp_par_rt";
  std::filesystem::remove_all(dir);
  auto cfg = smallConfig(dir);
  cfg.threads = 4;
  inject::CampaignTelemetry cold, warm;
  const ExperimentResult fresh = runExperiment(workloads::gtcp(), cfg, &cold);
  const ExperimentResult cached = runExperiment(workloads::gtcp(), cfg, &warm);
  EXPECT_FALSE(cold.fromCache);
  EXPECT_TRUE(warm.fromCache);
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
