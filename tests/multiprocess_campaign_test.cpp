// Multi-process campaign service equivalence tests (DESIGN.md §4g).
//
// The service's contract is the same one the threaded engine states, but
// across address spaces: shard the trials over forked worker processes,
// stream the records back over pipes, and the merged campaign is
// byte-for-byte identical to the serial engine — including when a worker is
// SIGKILLed mid-shard and the coordinator has to requeue and respawn.
#include <gtest/gtest.h>

#include <filesystem>

#include "inject/experiment.hpp"
#include "inject/service.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

using inject::ExperimentConfig;
using inject::runExperiment;

/// A serial, in-process, store-off campaign with detectors off and repair
/// only, on top of the CI env legs; each test sets the engine it compares.
ExperimentConfig baseConfig(const std::string& dir) {
  ExperimentConfig cfg;
  runEnv().apply(cfg);
  cfg.level = opt::OptLevel::O0;
  cfg.injections = 48;
  cfg.seed = 321;
  cfg.cacheDir = dir;
  cfg.threads = 1;
  cfg.armor.detect = {};
  cfg.armor.recover = core::RecoveryStrategy::Repair;
  cfg.processes = 0;
  cfg.resultStore = "";
  return cfg;
}

TEST(MultiprocessCampaign, ForkedWorkersMatchSerialByteForByte) {
  // Two workloads, plain repair-only configuration.
  for (const workloads::Workload* w :
       {&workloads::gtcp(), &workloads::hpccg()}) {
    const std::string dir =
        "care_test_artifacts/mp_match_" + w->name;
    std::filesystem::remove_all(dir);
    const auto serial = runExperiment(*w, baseConfig(dir));
    std::filesystem::remove_all(dir); // force a fresh, non-cached rerun
    auto cfg = baseConfig(dir);
    cfg.processes = 3;
    inject::CampaignTelemetry tel;
    const auto forked = runExperiment(*w, cfg, &tel);
    EXPECT_FALSE(tel.fromCache);
    EXPECT_EQ(tel.processes, 3);
    EXPECT_GT(tel.shards, 0);
    EXPECT_EQ(tel.trials, 48);
    EXPECT_EQ(inject::serializeDeterministic(serial),
              inject::serializeDeterministic(forked))
        << w->name;
  }
}

TEST(MultiprocessCampaign, DetectorsAndRollbackArmedStayBitIdentical) {
  // The hardest configuration: Sentinel detectors armed AND the rollback
  // strategy live, so worker processes carry detector traps, checkpoint
  // restores and re-execution counts back over the pipes.
  const std::string dir = "care_test_artifacts/mp_armed";
  std::filesystem::remove_all(dir);
  auto armed = baseConfig(dir);
  armed.injections = 80;
  armed.armor.detect.cfc = armed.armor.detect.addr = true;
  armed.armor.recover = core::RecoveryStrategy::RepairThenRollback;
  armed.ckptInterval = 3000;
  inject::CampaignTelemetry telS, telF;
  const auto serial = runExperiment(workloads::gtcp(), armed, &telS);
  std::filesystem::remove_all(dir);
  auto forkedCfg = armed;
  forkedCfg.processes = 4;
  const auto forked = runExperiment(workloads::gtcp(), forkedCfg, &telF);
  EXPECT_EQ(inject::serializeDeterministic(serial),
            inject::serializeDeterministic(forked));
  // Semantic telemetry survives the pipe trip: both engines agree on what
  // the campaign *was*, not just on the record bytes.
  EXPECT_EQ(telS.detected, telF.detected);
  EXPECT_EQ(telS.recoveries, telF.recoveries);
  EXPECT_EQ(telS.rollbacks, telF.rollbacks);
  EXPECT_EQ(telS.rollbackReexecInstrs, telF.rollbackReexecInstrs);
  EXPECT_EQ(telS.careReruns, telF.careReruns);
}

TEST(MultiprocessCampaign, OneProcessEqualsInProcessEngine) {
  const std::string dir = "care_test_artifacts/mp_one";
  std::filesystem::remove_all(dir);
  const auto inproc = runExperiment(workloads::gtcp(), baseConfig(dir));
  std::filesystem::remove_all(dir);
  auto cfg = baseConfig(dir);
  cfg.processes = 1;
  const auto oneProc = runExperiment(workloads::gtcp(), cfg);
  EXPECT_EQ(inject::serializeDeterministic(inproc),
            inject::serializeDeterministic(oneProc));
}

TEST(MultiprocessCampaign, WorkerKilledMidShardStillCompletesIdentically) {
  const std::string dir = "care_test_artifacts/mp_kill";
  std::filesystem::remove_all(dir);
  const auto cfg = baseConfig(dir);
  inject::BuiltWorkload built =
      inject::buildWorkload(workloads::gtcp(), cfg);
  inject::CampaignConfig ccfg;
  runEnv().apply(ccfg);
  ccfg.seed = cfg.seed;
  ccfg.bitsToFlip = cfg.bits;
  ccfg.hangFactor = 4;
  inject::Campaign campaign(built.image.get(), ccfg);
  ASSERT_TRUE(campaign.profile());

  inject::ServiceConfig serialSvc;
  serialSvc.processes = 0;
  serialSvc.threads = 1;
  const auto reference =
      inject::runCampaign(campaign, 48, cfg.seed, 1, &built.artifacts, nullptr,
                  &serialSvc);

  inject::ServiceConfig killSvc;
  killSvc.processes = 3;
  killSvc.threads = 1;
  killSvc.shardSize = 8;
  killSvc.testKillAtTrial = 10; // SIGKILL the worker holding shard 1
  inject::CampaignTelemetry tel;
  const auto survived =
      inject::runCampaign(campaign, 48, cfg.seed, 1, &built.artifacts, &tel,
                  &killSvc);
  EXPECT_GE(tel.workerRestarts, 1);
  EXPECT_GE(tel.shardsRequeued, 1);
  ASSERT_EQ(reference.size(), survived.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_EQ(inject::serializeDeterministicRecord(reference[i]),
              inject::serializeDeterministicRecord(survived[i]))
        << "trial " << i;
}

TEST(MultiprocessCampaign, WorkerKilledAfterCommitIsNotDoubleCounted) {
  // The mirror image of the mid-shard kill: the worker dies *after* its
  // result frame is fully on the pipe but *before* it releases its seat
  // claim. The coordinator's end-game then sees a dead worker still
  // claiming a shard that was already committed — the requeue must be
  // dropped as a duplicate, never re-run or double-counted.
  const std::string dir = "care_test_artifacts/mp_kill_commit";
  std::filesystem::remove_all(dir);
  const auto cfg = baseConfig(dir);
  inject::BuiltWorkload built =
      inject::buildWorkload(workloads::gtcp(), cfg);
  inject::CampaignConfig ccfg;
  runEnv().apply(ccfg);
  ccfg.seed = cfg.seed;
  ccfg.bitsToFlip = cfg.bits;
  ccfg.hangFactor = 4;
  inject::Campaign campaign(built.image.get(), ccfg);
  ASSERT_TRUE(campaign.profile());

  inject::ServiceConfig serialSvc;
  serialSvc.processes = 0;
  serialSvc.threads = 1;
  const auto reference =
      inject::runCampaign(campaign, 48, cfg.seed, 1, &built.artifacts, nullptr,
                  &serialSvc);

  inject::ServiceConfig killSvc;
  killSvc.processes = 3;
  killSvc.threads = 1;
  killSvc.shardSize = 8;
  killSvc.testKillAfterCommitTrial = 10; // die holding committed shard 1
  inject::CampaignTelemetry tel;
  const auto survived =
      inject::runCampaign(campaign, 48, cfg.seed, 1, &built.artifacts, &tel,
                  &killSvc);
  EXPECT_GE(tel.workerRestarts, 1);
  // Exact counts: a double-committed shard would inflate the record list
  // (or corrupt the trial order) before byte comparison even runs.
  ASSERT_EQ(survived.size(), 48u);
  ASSERT_EQ(reference.size(), survived.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_EQ(inject::serializeDeterministicRecord(reference[i]),
              inject::serializeDeterministicRecord(survived[i]))
        << "trial " << i;
}

TEST(MultiprocessCampaign, EveryFaultModelStaysByteIdenticalAcrossEngines) {
  // Acceptance criterion for the memory-resident models (DESIGN.md §4i):
  // under every fault model, with SECDED armed, serial ≡ threaded ≡
  // multi-process record bytes.
  for (const inject::FaultModel model :
       {inject::FaultModel::Mem1, inject::FaultModel::Mem2Adj,
        inject::FaultModel::Burst}) {
    const std::string dir = std::string("care_test_artifacts/mp_fault_") +
                            inject::faultModelName(model);
    std::filesystem::remove_all(dir);
    auto cfg = baseConfig(dir);
    cfg.injections = 24;
    cfg.fault = model;
    cfg.ecc = vm::EccMode::Secded;
    const auto serial = runExperiment(workloads::gtcp(), cfg);
    std::filesystem::remove_all(dir);
    auto threadedCfg = cfg;
    threadedCfg.threads = 3;
    const auto threaded = runExperiment(workloads::gtcp(), threadedCfg);
    std::filesystem::remove_all(dir);
    auto forkedCfg = cfg;
    forkedCfg.processes = 2;
    inject::CampaignTelemetry tel;
    const auto forked = runExperiment(workloads::gtcp(), forkedCfg, &tel);
    EXPECT_EQ(tel.fault, inject::faultModelName(model));
    EXPECT_EQ(tel.ecc, "secded");
    EXPECT_EQ(inject::serializeDeterministic(serial),
              inject::serializeDeterministic(threaded))
        << inject::faultModelName(model);
    EXPECT_EQ(inject::serializeDeterministic(serial),
              inject::serializeDeterministic(forked))
        << inject::faultModelName(model);
  }
}

TEST(MultiprocessCampaign, ResultStoreComposesWithForkedWorkers) {
  const std::string dir = "care_test_artifacts/mp_store";
  const std::string storeDir = dir + "/store";
  const std::string cacheDir = dir + "/cache";
  std::filesystem::remove_all(dir);
  auto cfg = baseConfig(cacheDir);
  cfg.processes = 2;
  cfg.resultStore = storeDir;
  inject::CampaignTelemetry cold, warm;
  const auto first = runExperiment(workloads::gtcp(), cfg, &cold);
  EXPECT_EQ(cold.storeHits, 0);
  EXPECT_GT(cold.storeMisses, 0);
  const auto second = runExperiment(workloads::gtcp(), cfg, &warm);
  EXPECT_TRUE(warm.fromCache);
  EXPECT_EQ(warm.storeMisses, 0);
  EXPECT_EQ(warm.storeHits, warm.shards);
  EXPECT_EQ(inject::serializeDeterministic(first),
            inject::serializeDeterministic(second));
}

} // namespace
} // namespace care::test
