// Record-identity tests for the trial driver (DESIGN.md §4f, §4i).
//
// Campaign::runInjection drives every trial — register or memory fault,
// with or without a rollback ring, from entry or from a replay checkpoint
// — through one event schedule. The digests below were recorded from the
// four hand-written drive loops that schedule replaced, so any change in
// stop placement, capture order or strike timing shows up as a changed
// serializeDeterministic byte stream:
//  * the campaign grid: O0 workloads × {reg, mem1, mem2adj+secded} ×
//    {repair, repair_then_rollback} × {replay off, auto}, CARE re-runs on
//    (replay is a pure performance knob, so both settings share a digest);
//  * boundary geometry on small programs: a strike exactly on a ring
//    boundary, a strike before the first boundary, and a register fault
//    whose rollback cascade rewinds below earlier boundaries.
// The configs take none of the harness's CARE_* values, so every CI env leg
// runs the same grid.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "care/driver.hpp"
#include "inject/experiment.hpp"
#include "support/md5.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

using core::RecoveryStrategy;
using inject::Campaign;
using inject::CampaignConfig;
using inject::FaultModel;
using inject::InjectionRecord;
using inject::Outcome;

std::string md5Hex(const std::vector<std::uint8_t>& bytes) {
  Md5 h;
  h.update(bytes.data(), bytes.size());
  return h.finish().hex();
}

CampaignConfig pinnedConfig(FaultModel fault, RecoveryStrategy recover) {
  CampaignConfig cfg;
  cfg.seed = 2026;
  cfg.recover = recover;
  cfg.fault = fault;
  cfg.ecc = fault == FaultModel::Mem2Adj ? vm::EccMode::Secded
                                         : vm::EccMode::Off;
  return cfg;
}

// --- campaign grid ----------------------------------------------------------

/// serializeDeterministic MD5 per workload/model/strategy, 24 trials from
/// seed 2026, CARE re-runs of SIGSEGV and ECC-detected trials.
const std::map<std::string, std::string> kGridDigests = {
    {"HPCCG/reg/repair", "085b2425b0a7bdbe959dbd29bee48d9f"},
    {"HPCCG/reg/repair_then_rollback", "a67d1d2a8bfde7e067b0a571f5c592bf"},
    {"HPCCG/mem1/repair", "d8ff23cd9b263acc1b6b34c988f989f7"},
    {"HPCCG/mem1/repair_then_rollback", "d8ff23cd9b263acc1b6b34c988f989f7"},
    {"HPCCG/mem2adj/repair", "369433535c63f38929e5687ce19dc4c9"},
    {"HPCCG/mem2adj/repair_then_rollback", "243123c88f50c77b28d0c85b1105e810"},
    {"CoMD/reg/repair", "73d094089178d4494131fafeb7171c3a"},
    {"CoMD/reg/repair_then_rollback", "4d18e0f6429b111c89baa82aa72dfa85"},
    {"CoMD/mem1/repair", "c784ce1959c60b7df62f8786a8d9dc9d"},
    {"CoMD/mem1/repair_then_rollback", "c784ce1959c60b7df62f8786a8d9dc9d"},
    {"CoMD/mem2adj/repair", "f8e072e71bd47c1c44aa4dcf6acdf822"},
    {"CoMD/mem2adj/repair_then_rollback", "f8e072e71bd47c1c44aa4dcf6acdf822"},
    {"miniFE/reg/repair", "39bd11a8da9c0b7f03679848450ef817"},
    {"miniFE/reg/repair_then_rollback", "a390c4ef1434dd43527a738cdb2f91f3"},
    {"miniFE/mem1/repair", "7fe9acef151b6074881ebb7788459239"},
    {"miniFE/mem1/repair_then_rollback", "7fe9acef151b6074881ebb7788459239"},
    {"miniFE/mem2adj/repair", "776e7680ad8b38ce0953591c030c627d"},
    {"miniFE/mem2adj/repair_then_rollback", "776e7680ad8b38ce0953591c030c627d"},
    {"miniMD/reg/repair", "031427e1758430597bb8ed283ed172f8"},
    {"miniMD/reg/repair_then_rollback", "031427e1758430597bb8ed283ed172f8"},
    {"miniMD/mem1/repair", "474e7a4b7eff188f8405c8d435fced13"},
    {"miniMD/mem1/repair_then_rollback", "474e7a4b7eff188f8405c8d435fced13"},
    {"miniMD/mem2adj/repair", "9fe3817ce04371b322940d9ab539ed25"},
    {"miniMD/mem2adj/repair_then_rollback", "9fe3817ce04371b322940d9ab539ed25"},
    {"GTC-P/reg/repair", "b86d54399b7939999d4d221ff87441dd"},
    {"GTC-P/reg/repair_then_rollback", "2c5a6bd4465750d54681470821416dbc"},
    {"GTC-P/mem1/repair", "b82849ed5e387c1bfda074112b8ccbed"},
    {"GTC-P/mem1/repair_then_rollback", "071ea65b2b5738c6de0dc4ba4679ee62"},
    {"GTC-P/mem2adj/repair", "2c320a7b5675a1ef675e47dfd94b46a3"},
    {"GTC-P/mem2adj/repair_then_rollback", "474e13ff95c022f8a881a06844cab8fe"},
};

TEST(TrialDriver, CampaignGridMatchesPinnedDigests) {
  inject::ExperimentConfig bcfg;
  bcfg.cacheDir = "care_test_artifacts/trial_driver";
  std::filesystem::remove_all(bcfg.cacheDir);
  inject::ServiceConfig svc; // in-process, store off
  svc.processes = 0;
  svc.threads = 2;
  constexpr int kTrials = 24;
  for (const workloads::Workload* w : workloads::allWorkloads()) {
    const inject::BuiltWorkload built = inject::buildWorkload(*w, bcfg);
    for (const FaultModel model :
         {FaultModel::Reg, FaultModel::Mem1, FaultModel::Mem2Adj}) {
      for (const RecoveryStrategy recover :
           {RecoveryStrategy::Repair, RecoveryStrategy::RepairThenRollback}) {
        const std::string key = w->name + "/" +
                                inject::faultModelName(model) + "/" +
                                core::recoveryStrategyName(recover);
        for (const bool replay : {false, true}) {
          CampaignConfig cfg = pinnedConfig(model, recover);
          cfg.checkpointEveryInstrs = replay ? CampaignConfig::kCkptAuto : 0;
          Campaign campaign(built.image.get(), cfg);
          ASSERT_TRUE(campaign.profile()) << key;
          inject::ExperimentResult r;
          r.workload = w->name;
          r.level = opt::OptLevel::O0;
          r.goldenInstrs = campaign.goldenInstrs();
          r.records = inject::runCampaign(campaign, kTrials, cfg.seed,
                                          svc.threads, &built.artifacts,
                                          nullptr, &svc);
          EXPECT_EQ(md5Hex(inject::serializeDeterministic(r)),
                    kGridDigests.at(key))
              << key << (replay ? " replay=auto" : " replay=off");
        }
      }
    }
  }
}

// --- boundary geometry -------------------------------------------------------

/// CARE-compiled MiniC program.
struct CareEnv {
  core::CompiledModule cm;
  std::unique_ptr<vm::Image> image;
  std::map<std::int32_t, core::ModuleArtifacts> artifacts;
};

CareEnv buildCare(const char* src, const std::string& tag) {
  core::CompileOptions opts;
  opts.optLevel = opt::OptLevel::O0;
  opts.artifactDir = "care_test_artifacts";
  CareEnv e;
  e.cm = core::careCompile({{tag + ".c", src}}, "td_" + tag, opts);
  e.image = std::make_unique<vm::Image>();
  e.image->load(e.cm.mmod.get());
  e.image->link();
  e.artifacts[0] = e.cm.artifacts;
  return e;
}

/// The first global store in main: its CodeLoc and the global's address.
std::pair<vm::CodeLoc, std::uint64_t> firstGlobalStore(const vm::Image& im) {
  const auto& lm = im.module(0);
  const auto& code = lm.mod->functions[0].code;
  for (std::size_t i = 0; i < code.size(); ++i)
    if (code[i].op == backend::MOp::Store && code[i].mem.globalIdx >= 0)
      return {vm::CodeLoc{0, 0, static_cast<std::int32_t>(i)},
              lm.globalAddr[static_cast<std::size_t>(code[i].mem.globalIdx)]};
  ADD_FAILURE() << "no global store in main";
  return {};
}

/// The rollback ring spacing of a campaign with the default (auto) spacing.
std::uint64_t ringInterval(const Campaign& c) { return c.goldenInstrs() / 64; }

/// grid[0] is re-read in every step, so a strike on it traps soon after.
const char* kHotWordProg = R"(
double grid[1024];
int main() {
  for (int i = 0; i < 1024; i = i + 1) { grid[i] = i; }
  double s = 0.0;
  for (int step = 0; step < 40; step = step + 1) {
    for (int i = 0; i < 64; i = i + 1) { s = s + grid[i * 16]; }
  }
  emit(s);
  return 0;
}
)";

/// One mem2adj+secded strike on grid[0] at `nth`, plain and under the
/// rollback strategy.
InjectionRecord hotWordStrike(const CareEnv& e, const Campaign& c,
                              std::uint64_t nth) {
  InjectionRecord rec;
  rec.point.model = FaultModel::Mem2Adj;
  rec.point.nth = nth;
  rec.point.memAddr = firstGlobalStore(*e.image).second;
  rec.point.bits = {4, 5};
  rec.plain = c.runInjection(rec.point);
  rec.haveCare = true;
  rec.withCare = c.runInjection(rec.point, &e.artifacts);
  return rec;
}

void expectRolledBackDue(const InjectionRecord& rec) {
  EXPECT_TRUE(rec.plain.injected);
  EXPECT_EQ(rec.plain.outcome, Outcome::Detected);
  EXPECT_EQ(rec.plain.signal, vm::TrapKind::EccUncorrectable);
  EXPECT_EQ(rec.withCare.outcome, Outcome::RolledBack);
  EXPECT_GT(rec.withCare.rollbacks, 0u);
  EXPECT_TRUE(rec.withCare.careRecovered);
}

TEST(TrialDriver, StrikeOnRingBoundaryLandsAfterTheCapture) {
  const CareEnv e = buildCare(kHotWordProg, "boundary");
  Campaign c(e.image.get(),
             pinnedConfig(FaultModel::Mem2Adj, RecoveryStrategy::Rollback));
  ASSERT_TRUE(c.profile());
  // Mid-run, exactly on the 32nd periodic boundary: the capture there
  // holds the clean word, so the rollback cascade stops at it.
  const InjectionRecord rec = hotWordStrike(e, c, 32 * ringInterval(c));
  expectRolledBackDue(rec);
  EXPECT_EQ(md5Hex(inject::serializeDeterministicRecord(rec)),
            "cdd9d3f048f735eb8d49c6fbf99a81b9");
}

TEST(TrialDriver, StrikeBeforeFirstBoundaryRollsBackToEntry) {
  const CareEnv e = buildCare(kHotWordProg, "early");
  Campaign c(e.image.get(),
             pinnedConfig(FaultModel::Mem2Adj, RecoveryStrategy::Rollback));
  ASSERT_TRUE(c.profile());
  const InjectionRecord rec = hotWordStrike(e, c, ringInterval(c) / 2);
  expectRolledBackDue(rec);
  // Every periodic capture holds the struck word: only the entry is clean.
  EXPECT_GT(rec.withCare.rollbacks, 1u);
  EXPECT_EQ(md5Hex(inject::serializeDeterministicRecord(rec)),
            "1d0656f46b77c37b8cdeb2ae4afd8682");
}

TEST(TrialDriver, RegRollbackRewindsBelowEarlierBoundaries) {
  // idx[] is written early and dereferenced only at the end: a flipped
  // high bit in one entry traps long after the fault, and every capture in
  // between holds the corrupt entry, so the rollback cascade rewinds below
  // boundaries the run already passed.
  const CareEnv e = buildCare(R"(
      int idx[256];
      double data[1024];
      int main() {
        for (int i = 0; i < 256; i = i + 1) { idx[i] = i * 4; }
        for (int rep = 0; rep < 8; rep = rep + 1) {
          for (int i = 0; i < 1024; i = i + 1) { data[i] = data[i] + rep; }
        }
        double s = 0.0;
        for (int i = 0; i < 256; i = i + 1) { s = s + data[idx[i]]; }
        emit(s);
        return 0;
      })", "rewind");
  Campaign c(e.image.get(),
             pinnedConfig(FaultModel::Reg, RecoveryStrategy::Rollback));
  ASSERT_TRUE(c.profile());
  InjectionRecord rec;
  rec.point.loc = firstGlobalStore(*e.image).first;
  rec.point.nth = 100;
  rec.point.bits = {28};
  rec.plain = c.runInjection(rec.point);
  ASSERT_EQ(rec.plain.outcome, Outcome::SoftFailure);
  ASSERT_EQ(rec.plain.signal, vm::TrapKind::SegFault);
  rec.haveCare = true;
  rec.withCare = c.runInjection(rec.point, &e.artifacts);
  EXPECT_EQ(rec.withCare.outcome, Outcome::RolledBack);
  EXPECT_GT(rec.withCare.rollbacks, 1u);
  EXPECT_GT(rec.withCare.rollbackReexecInstrs, 2 * ringInterval(c));
  EXPECT_TRUE(rec.withCare.careRecovered);
  EXPECT_EQ(md5Hex(inject::serializeDeterministicRecord(rec)),
            "64864585fbd553224c5d506ce1a3d8e2");
}

} // namespace
} // namespace care::test
