// Production-overhead Pareto front (DESIGN.md §4j): sampled Sentinel
// detection rate vs instrumentation overhead, plus the equivalence-class
// pruning identity check. No paper counterpart — the paper's detectors are
// always-on; this bench quantifies the KFENCE-style rotation deviation.
//
// For every workload at O0:
//  * full Sentinel (rate 1): dynamic overhead over the detector-free build
//    and the campaign detection rate — the "pay everything" corner;
//  * rates N in {4, 16, 64, 256}: one campaign per rotation epoch (full
//    rotation for N <= 64, capped at 16 epochs above — `epochs_run` and
//    `rotation_complete` record the cap honestly). Per-epoch overhead is
//    averaged; per-epoch detection rates are *summed*: the epochs arm
//    disjoint site slices, so the sum is the amortized coverage a fleet
//    rotating through the epochs achieves.
//  * a mem1-model campaign run exhaustively and pruned (+audit), asserting
//    the group-expanded deterministic records are byte-identical.
//
// Gates (reported per workload and as a global verdict):
//  G1 some rate has mean overhead <= 1.10x AND amortized coverage >= 50%
//     of the full-Sentinel detection rate (for a capped rotation the sum
//     over the epochs run is a lower bound on the rotation's coverage, so
//     qualifying on it is conservative);
//  G2 mean overhead is non-increasing in N (tolerance 0.02 — golden-run
//     instruction counts are exact, but epoch subsets arm uneven slices);
//  G3 pruned == exhaustive record bytes on every workload.
//
// Writes BENCH_pareto.json (path: CARE_BENCH_PARETO_JSON). Campaign sizes:
// CARE_BENCH_PARETO_TRIALS (default 80) per epoch campaign.
#include <string>
#include <fstream>

#include "bench_util.hpp"

namespace {

using namespace care;

std::string detBytes(const std::vector<inject::InjectionRecord>& records) {
  std::string s;
  for (const auto& r : records) {
    const auto b = inject::serializeDeterministicRecord(r);
    s.append(reinterpret_cast<const char*>(b.data()), b.size());
  }
  return s;
}

} // namespace

int main() {
  const int trials = bench::envInt(
      "CARE_BENCH_PARETO_TRIALS", bench::envInt("CARE_INJECTIONS", 80));
  bench::header("Production-overhead Pareto: sampled Sentinel detection",
                "no paper table; sampling deviation of DESIGN.md 4j");
  std::printf("%-10s %7s | %9s %9s | %4s %6s %9s %9s %9s\n", "Workload",
              "trials", "full ovh", "full det", "N", "epochs", "mean ovh",
              "cov sum", "cov/full");

  const std::uint64_t rates[] = {4, 16, 64, 256};
  std::string rows;
  bool gParetoAll = true, gMonotoneAll = true, gPruneAll = true;
  for (const auto* w : workloads::allWorkloads()) {
    // Detector-free baseline: golden instruction count only (no trials).
    auto base = bench::baseConfig(opt::OptLevel::O0);
    base.injections = trials;
    base.careOnSegv = false;
    base.armor.detect = {};
    base.armor.detectSample = {};
    const inject::BuiltWorkload baseBuild = inject::buildWorkload(*w, base);
    inject::CampaignConfig baseCcfg = bench::campaignConfig();
    baseCcfg.seed = base.seed;
    inject::Campaign baseCampaign(baseBuild.image.get(), baseCcfg);
    if (!baseCampaign.profile())
      raise("bench_pareto: " + w->name + " failed to profile");
    const double goldenBase =
        static_cast<double>(baseCampaign.goldenInstrs());

    // Full Sentinel corner.
    auto det = base;
    det.armor.detect.cfc = true;
    det.armor.detect.addr = true;
    const inject::ExperimentResult full = inject::runExperiment(*w, det);
    const double ovhFull = full.goldenInstrs / goldenBase;
    const double rateFull =
        static_cast<double>(full.detectedCount()) / trials;
    std::printf("%-10s %7d | %8.3fx %8.1f%% |\n", w->name.c_str(), trials,
                ovhFull, 100.0 * rateFull);

    // Sampled rotations.
    std::string sampledRows;
    double prevOvh = ovhFull;
    bool gPareto = false, gMonotone = true;
    for (std::uint64_t rate : rates) {
      const std::uint64_t epochsRun = rate <= 64 ? rate : 16;
      double ovhSum = 0, covSum = 0;
      std::string perEpoch;
      for (std::uint64_t e = 0; e < epochsRun; ++e) {
        auto cfg = det;
        cfg.armor.detectSample = pareto::SampleConfig{rate, e};
        const inject::ExperimentResult r = inject::runExperiment(*w, cfg);
        ovhSum += r.goldenInstrs / goldenBase;
        const double dr =
            static_cast<double>(r.detectedCount()) / trials;
        covSum += dr;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.4f",
                      perEpoch.empty() ? "" : ",", dr);
        perEpoch += buf;
      }
      const double meanOvh = ovhSum / epochsRun;
      const bool complete = epochsRun == rate;
      const double covFrac = rateFull > 0 ? covSum / rateFull : 1.0;
      if (meanOvh <= 1.10 && covSum >= 0.5 * rateFull) gPareto = true;
      if (meanOvh > prevOvh + 0.02) gMonotone = false;
      prevOvh = meanOvh;
      std::printf("%-10s %7s | %9s %9s | %4llu %6llu %8.3fx %8.1f%% "
                  "%8.0f%%\n",
                  "", "", "", "",
                  static_cast<unsigned long long>(rate),
                  static_cast<unsigned long long>(epochsRun), meanOvh,
                  100.0 * covSum, 100.0 * covFrac);
      char row[256];
      std::snprintf(
          row, sizeof(row),
          "%s        {\"rate\":%llu,\"epochs_run\":%llu,"
          "\"rotation_complete\":%s,\"mean_overhead\":%.6f,"
          "\"coverage_sum\":%.6f,\"per_epoch_detect_rate\":[",
          sampledRows.empty() ? "" : ",\n",
          static_cast<unsigned long long>(rate),
          static_cast<unsigned long long>(epochsRun),
          complete ? "true" : "false", meanOvh, covSum);
      sampledRows += row + perEpoch + "]}";
    }

    // Pruning identity: exhaustive vs pruned+audited mem1 campaign.
    inject::ServiceConfig svc;
    svc.processes = 0;
    svc.threads = bench::env().threads.value_or(0);
    inject::CampaignConfig ccfg = bench::campaignConfig();
    ccfg.seed = base.seed;
    ccfg.fault = inject::FaultModel::Mem1;
    ccfg.prune.enabled = false;
    inject::Campaign exhaustive(baseBuild.image.get(), ccfg);
    if (!exhaustive.profile())
      raise("bench_pareto: " + w->name + " failed to profile (mem1)");
    const auto exRecords = inject::runCampaign(exhaustive, trials,
                                               base.seed, 1, nullptr,
                                               nullptr, &svc);
    ccfg.prune.enabled = true;
    ccfg.prune.auditK = 4;
    inject::Campaign pruned(baseBuild.image.get(), ccfg);
    if (!pruned.profile())
      raise("bench_pareto: " + w->name + " failed to profile (pruned)");
    inject::CampaignTelemetry tel;
    const auto prRecords = inject::runCampaign(pruned, trials, base.seed,
                                               1, nullptr, &tel, &svc);
    const bool identical = detBytes(exRecords) == detBytes(prRecords);
    std::printf("%-10s mem1 prune: %d groups / %llu weighted trials, "
                "audit mismatches %llu, records %s\n",
                "", tel.pruneGroups,
                static_cast<unsigned long long>(tel.pruneWeightedTrials),
                static_cast<unsigned long long>(tel.auditMismatches),
                identical ? "identical" : "DIVERGED");
    const bool gPrune =
        identical && tel.auditMismatches == 0 && tel.pruneGroups > 0;

    gParetoAll = gParetoAll && gPareto;
    gMonotoneAll = gMonotoneAll && gMonotone;
    gPruneAll = gPruneAll && gPrune;
    char head[512], tail[512];
    std::snprintf(head, sizeof(head),
                  "%s    {\"workload\":\"%s\",\"trials\":%d,"
                  "\"golden_base_instrs\":%.0f,\"full\":{\"overhead\":%.6f,"
                  "\"detect_rate\":%.6f},\"sampled\":[\n",
                  rows.empty() ? "" : ",\n", w->name.c_str(), trials,
                  goldenBase, ovhFull, rateFull);
    std::snprintf(tail, sizeof(tail),
                  "\n      ],\"prune\":{\"groups\":%d,"
                  "\"weighted_trials\":%llu,\"audit_mismatches\":%llu,"
                  "\"records_identical\":%s},\"gate_pareto\":%s,"
                  "\"gate_monotone\":%s}",
                  tel.pruneGroups,
                  static_cast<unsigned long long>(tel.pruneWeightedTrials),
                  static_cast<unsigned long long>(tel.auditMismatches),
                  identical ? "true" : "false", gPareto ? "true" : "false",
                  gMonotone ? "true" : "false");
    rows += head + sampledRows + tail;
  }

  std::printf("\ngates: pareto(<=1.10x & >=50%% coverage) %s | "
              "monotone front %s | prune identity %s\n",
              gParetoAll ? "OK" : "FAIL", gMonotoneAll ? "OK" : "FAIL",
              gPruneAll ? "OK" : "FAIL");
  const std::string path =
      bench::envStr("CARE_BENCH_PARETO_JSON").value_or("BENCH_pareto.json");
  std::ofstream f(path);
  f << "{\n  \"bench\": \"pareto\",\n  \"gate_pareto\": "
    << (gParetoAll ? "true" : "false") << ",\n  \"gate_monotone\": "
    << (gMonotoneAll ? "true" : "false") << ",\n  \"gate_prune\": "
    << (gPruneAll ? "true" : "false") << ",\n  \"rows\": [\n" << rows
    << "\n  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
  bench::footer();
  return gParetoAll && gMonotoneAll && gPruneAll ? 0 : 1;
}
