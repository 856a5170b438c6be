// Memory-fault defense matrix (DESIGN.md §4i).
//
// The chart the tentpole exists for: {none, ECC, Sentinel, CARE, and
// combinations} × outcome classes under the mem1 single-bit memory fault
// model, on all five workloads. Two trailers probe the uncorrectable
// regime (mem2adj under SECDED, burst under SECDED+CRC) and re-state the
// engine-equivalence guarantee per fault model. Three hard gates fail the
// bench:
//  * SECDED corrects >= 99% of injected single-bit memory faults (the
//    remainder must be faults the program overwrote before any read —
//    masked, never observable — not escapes);
//  * every surviving mem2adj double-adjacent fault is flagged
//    EccUncorrectable (again netting out overwrite-masked trials);
//  * serializeDeterministic() is byte-identical across serial / threaded /
//    multiprocess engines and across the fast and JIT backends under every
//    memory fault model.
#include <filesystem>
#include <fstream>

#include "bench_util.hpp"

namespace {

using namespace care;

struct Defense {
  const char* name;
  bool ecc, sentinel, care;
};

constexpr Defense kDefenses[] = {
    {"none", false, false, false},
    {"ecc", true, false, false},
    {"sentinel", false, true, false},
    {"care", false, false, true},
    {"ecc+sentinel", true, true, false},
    {"ecc+care", true, false, true},
    {"ecc+sentinel+care", true, true, true},
};

inject::ExperimentConfig defenseConfig(inject::FaultModel model,
                                       const Defense& d,
                                       vm::EccMode eccMode) {
  auto cfg = bench::baseConfig(opt::OptLevel::O0);
  cfg.campaign.fault = model;
  cfg.campaign.ecc = d.ecc ? eccMode : vm::EccMode::Off;
  cfg.careOnSegv = d.care;
  cfg.campaign.recover = core::RecoveryStrategy::Repair;
  cfg.armor.detect.cfc = d.sentinel;
  cfg.armor.detect.addr = d.sentinel;
  return cfg;
}

/// Injected trials whose fault the program overwrote (full-word store)
/// before any load or scrub saw it: the corrupt pre-image is gone, so ECC
/// legitimately has nothing to correct or flag.
bool maskedByOverwrite(const inject::InjectionRecord& r) {
  return r.plain.injected && r.plain.eccCorrected == 0 &&
         r.plain.eccUncorrectable == 0 &&
         r.plain.outcome == inject::Outcome::Benign &&
         r.plain.outputMatchesGolden;
}

} // namespace

int main() {
  using namespace care;
  bench::header("Memory-fault defense matrix",
                "DESIGN.md §4i; no single-paper counterpart");

  std::string rows;
  char row[512];

  // ---- main matrix: mem1 × defenses × workloads -------------------------
  std::printf("mem1 (single-bit memory fault), %d injections/cell:\n\n",
              bench::baseConfig(opt::OptLevel::O0).injections);
  std::printf("%-10s %-18s %7s %7s %7s %7s %5s %5s %6s %7s\n", "Workload",
              "Defense", "Benign", "Corr", "Det", "SoftF", "SDC", "Hang",
              "Recov", "EccFix%");

  std::uint64_t eccInjected = 0, eccCorrectedTrials = 0, eccMasked = 0,
                eccEscapes = 0;
  for (const auto* w : workloads::allWorkloads()) {
    for (const Defense& d : kDefenses) {
      const auto cfg =
          defenseConfig(inject::FaultModel::Mem1, d, vm::EccMode::Secded);
      const inject::ExperimentResult r = inject::runExperiment(*w, cfg);
      std::uint64_t injected = 0, corrected = 0, masked = 0;
      for (const inject::InjectionRecord& rec : r.records) {
        if (!rec.plain.injected) continue;
        ++injected;
        if (rec.plain.eccCorrected > 0) ++corrected;
        if (maskedByOverwrite(rec)) ++masked;
      }
      const double fixPct =
          injected ? 100.0 * static_cast<double>(corrected) /
                         static_cast<double>(injected)
                   : 0;
      std::printf("%-10s %-18s %7d %7d %7d %7d %5d %5d %6d %6.1f%%\n",
                  w->name.c_str(), d.name, r.count(inject::Outcome::Benign),
                  r.count(inject::Outcome::Corrected), r.detectedCount(),
                  r.count(inject::Outcome::SoftFailure),
                  r.count(inject::Outcome::SDC),
                  r.count(inject::Outcome::Hang), r.recoveredCount(),
                  d.ecc ? fixPct : 0.0);
      if (d.ecc && !d.sentinel && !d.care) {
        // The pure-ECC row feeds gate 1: every injected fault must be
        // corrected or provably masked; anything else escaped the defense.
        eccInjected += injected;
        eccCorrectedTrials += corrected;
        eccMasked += masked;
        eccEscapes += injected - corrected - masked;
      }
      std::snprintf(
          row, sizeof(row),
          "%s    {\"model\":\"mem1\",\"workload\":\"%s\",\"defense\":\"%s\","
          "\"injections\":%zu,\"benign\":%d,\"corrected\":%d,"
          "\"detected\":%d,\"soft_failure\":%d,\"sdc\":%d,\"hang\":%d,"
          "\"rolled_back\":%d,\"recovered\":%d,\"ecc_fix_pct\":%.2f}",
          rows.empty() ? "" : ",\n", w->name.c_str(), d.name,
          r.records.size(), r.count(inject::Outcome::Benign),
          r.count(inject::Outcome::Corrected), r.detectedCount(),
          r.count(inject::Outcome::SoftFailure),
          r.count(inject::Outcome::SDC), r.count(inject::Outcome::Hang),
          r.count(inject::Outcome::RolledBack), r.recoveredCount(),
          d.ecc ? fixPct : 0.0);
      rows += row;
    }
  }

  const double gate1Pct =
      eccInjected ? 100.0 * static_cast<double>(eccCorrectedTrials) /
                        static_cast<double>(eccInjected)
                  : 0;
  const double gate1CoveredPct =
      eccInjected
          ? 100.0 * static_cast<double>(eccCorrectedTrials + eccMasked) /
                static_cast<double>(eccInjected)
          : 0;

  // ---- uncorrectable regime: mem2adj / burst ----------------------------
  std::printf("\nUncorrectable regime (pure-ECC defense):\n");
  std::printf("%-10s %-8s %-11s %7s %7s %7s %5s %7s\n", "Workload", "Model",
              "EccMode", "Det", "Flag", "Masked", "SDC", "Escape");
  std::uint64_t adjEscapes = 0, adjFlagged = 0, adjInjected = 0;
  struct UncorrLeg {
    inject::FaultModel model;
    vm::EccMode ecc;
    const char* eccName;
  };
  const UncorrLeg legs[] = {
      {inject::FaultModel::Mem2Adj, vm::EccMode::Secded, "secded"},
      {inject::FaultModel::Burst, vm::EccMode::SecdedCrc, "secded,crc"},
  };
  for (const UncorrLeg& leg : legs) {
    for (const auto* w : workloads::allWorkloads()) {
      auto cfg = defenseConfig(leg.model, kDefenses[1], leg.ecc);
      const inject::ExperimentResult r = inject::runExperiment(*w, cfg);
      std::uint64_t injected = 0, flagged = 0, masked = 0;
      for (const inject::InjectionRecord& rec : r.records) {
        if (!rec.plain.injected) continue;
        ++injected;
        if (rec.plain.eccUncorrectable > 0) ++flagged;
        else if (maskedByOverwrite(rec)) ++masked;
      }
      const std::uint64_t escapes = injected - flagged - masked;
      std::printf("%-10s %-8s %-11s %7d %7llu %7llu %5d %7llu\n",
                  w->name.c_str(), inject::faultModelName(leg.model),
                  leg.eccName, r.detectedCount(),
                  static_cast<unsigned long long>(flagged),
                  static_cast<unsigned long long>(masked),
                  r.count(inject::Outcome::SDC),
                  static_cast<unsigned long long>(escapes));
      if (leg.model == inject::FaultModel::Mem2Adj) {
        adjInjected += injected;
        adjFlagged += flagged;
        adjEscapes += escapes;
      }
      std::snprintf(
          row, sizeof(row),
          ",\n    {\"model\":\"%s\",\"workload\":\"%s\",\"defense\":\"ecc\","
          "\"ecc_mode\":\"%s\",\"injections\":%zu,\"detected\":%d,"
          "\"flagged\":%llu,\"masked\":%llu,\"sdc\":%d,\"escapes\":%llu}",
          inject::faultModelName(leg.model), w->name.c_str(), leg.eccName,
          r.records.size(), r.detectedCount(),
          static_cast<unsigned long long>(flagged),
          static_cast<unsigned long long>(masked),
          r.count(inject::Outcome::SDC),
          static_cast<unsigned long long>(escapes));
      rows += row;
    }
  }

  // ---- gate 3: engine/backend equivalence per fault model ---------------
  // Fresh cache dir per leg so every comparison is between real executions,
  // never a cache hit echoing the other side back.
  bool enginesIdentical = true;
  std::printf("\nEngine equivalence (serializeDeterministic, HPCCG O0):\n");
  {
    struct InterpGuard {
      vm::InterpKind saved = vm::defaultInterp();
      ~InterpGuard() { vm::setDefaultInterp(saved); }
    } guard;
    const std::string dir = "care_test_artifacts/bench_fault_matrix_eq";
    const auto* w = workloads::allWorkloads().front();
    for (inject::FaultModel model :
         {inject::FaultModel::Mem1, inject::FaultModel::Mem2Adj,
          inject::FaultModel::Burst}) {
      auto cfg = defenseConfig(model, kDefenses[1], vm::EccMode::Secded);
      cfg.injections = 40;
      cfg.cacheDir = dir;
      auto runLeg = [&](int threads, int processes, vm::InterpKind interp) {
        std::filesystem::remove_all(dir);
        vm::setDefaultInterp(interp);
        auto legCfg = cfg;
        legCfg.threads = threads;
        legCfg.processes = processes;
        return inject::serializeDeterministic(
            inject::runExperiment(*w, legCfg));
      };
      const auto serial = runLeg(1, 0, vm::InterpKind::Fast);
      const bool ok = serial == runLeg(3, 0, vm::InterpKind::Fast) &&
                      serial == runLeg(1, 2, vm::InterpKind::Fast) &&
                      serial == runLeg(1, 0, vm::InterpKind::Jit);
      if (!ok) enginesIdentical = false;
      std::printf("  %-8s serial==threaded==multiprocess==jit: %s\n",
                  inject::faultModelName(model), ok ? "PASS" : "FAIL");
    }
  }

  // ---- gates ------------------------------------------------------------
  std::printf("\nmem1+secded: %llu injected, %llu corrected (%.2f%%), "
              "%llu overwrite-masked, %llu escaped\n",
              static_cast<unsigned long long>(eccInjected),
              static_cast<unsigned long long>(eccCorrectedTrials), gate1Pct,
              static_cast<unsigned long long>(eccMasked),
              static_cast<unsigned long long>(eccEscapes));
  std::printf("mem2adj+secded: %llu injected, %llu flagged uncorrectable, "
              "%llu escaped\n",
              static_cast<unsigned long long>(adjInjected),
              static_cast<unsigned long long>(adjFlagged),
              static_cast<unsigned long long>(adjEscapes));

  const bool gate1 = gate1Pct >= 99.0 && eccEscapes == 0;
  const bool gate2 = adjEscapes == 0 && adjFlagged > 0;
  std::printf("\n[gate] SECDED corrects >=99%% of single-bit memory faults "
              "(100%% incl. masked: %.2f%%): %s\n",
              gate1CoveredPct, gate1 ? "PASS" : "FAIL");
  std::printf("[gate] every observable mem2adj fault flagged "
              "EccUncorrectable: %s\n",
              gate2 ? "PASS" : "FAIL");
  std::printf("[gate] byte-identical records across engines and backends "
              "per fault model: %s\n",
              enginesIdentical ? "PASS" : "FAIL");

  const std::string path = bench::envStr("CARE_BENCH_FAULT_MATRIX_JSON")
                               .value_or("BENCH_fault_matrix.json");
  std::ofstream f(path);
  f << "{\n  \"bench\": \"fault_matrix\",\n  \"rows\": [\n"
    << rows << "\n  ],\n  \"gates\": {\"mem1_corrected_pct\": " << gate1Pct
    << ", \"mem1_escapes\": " << eccEscapes
    << ", \"mem2adj_escapes\": " << adjEscapes
    << ", \"engines_identical\": " << (enginesIdentical ? "true" : "false")
    << "}\n}\n";
  std::printf("\nwrote %s\n", path.c_str());
  bench::footer();
  return gate1 && gate2 && enginesIdentical ? 0 : 1;
}
