// Campaign scaling: trials/sec vs forked worker processes (DESIGN.md §4g).
//
// Runs the Table 2-shaped campaign over every workload at procs = 1, 2, 4
// and 8, asserting each run's records are byte-identical to the in-process
// serial engine before a throughput number counts. Then warms the shard
// result store once and reruns fully cached — the warm pass executes zero
// trials, so its speedup over the cold pass is the store's best case.
// Writes BENCH_campaign_scale.json (path: CARE_BENCH_SCALE_JSON).
//
// Speedup expectations are host-dependent: on a single-core host the procs
// curve is flat (fork + pipe overhead, no parallelism to win); the warm
// store speedup is hardware-independent because the warm pass only reads
// entries back.
#include <chrono>
#include <filesystem>
#include <fstream>

#include "bench_util.hpp"
#include "inject/service.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace care;

double runOnce(const inject::Campaign& campaign, int trials,
               std::uint64_t seed,
               const std::map<std::int32_t, core::ModuleArtifacts>* arts,
               inject::ServiceConfig svc, inject::CampaignTelemetry* tel,
               std::vector<inject::InjectionRecord>* out) {
  const Clock::time_point t0 = Clock::now();
  auto records =
      inject::runCampaign(campaign, trials, seed, 1, arts, tel, &svc);
  const double sec = std::chrono::duration<double>(Clock::now() - t0).count();
  if (out) *out = std::move(records);
  return sec;
}

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
  const int trials = bench::envInt("CARE_INJECTIONS", 400);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(bench::envInt("CARE_SEED", 2026));
  bench::header("Campaign scaling: forked workers and the result store",
                "the §4g campaign service; not a paper table");
  std::printf("%-10s %7s | %9s %9s %9s %9s | %9s %9s %8s\n", "Workload",
              "trials", "p=1 tr/s", "p=2 tr/s", "p=4 tr/s", "p=8 tr/s",
              "cold s", "warm s", "warm x");

  const std::string storeDir = "care_artifacts/bench_scale_store";
  std::filesystem::remove_all(storeDir);
  std::string rows;
  double minWarmSpeedup = 1e30;
  for (const auto* w : workloads::allWorkloads()) {
    auto cfg = bench::baseConfig(opt::OptLevel::O0);
    inject::BuiltWorkload built = inject::buildWorkload(*w, cfg);
    inject::CampaignConfig ccfg = bench::campaignConfig();
    ccfg.seed = cfg.seed;
    ccfg.hangFactor = 4;
    inject::Campaign campaign(built.image.get(), ccfg);
    if (!campaign.profile())
      raise("bench_campaign_scale: " + w->name + " failed to profile");

    // In-process serial reference: the identity every forked run must hit.
    inject::ServiceConfig serial;
    serial.processes = 0;
    serial.threads = 1;
    std::vector<inject::InjectionRecord> ref;
    runOnce(campaign, trials, seed, &built.artifacts, serial, nullptr, &ref);
    const std::string refBytes = detBytes(ref);

    double tps[4] = {0, 0, 0, 0};
    const int procsAxis[4] = {1, 2, 4, 8};
    for (int i = 0; i < 4; ++i) {
      inject::ServiceConfig svc;
      svc.processes = procsAxis[i];
      svc.threads = 1;
      std::vector<inject::InjectionRecord> got;
      const double sec =
          runOnce(campaign, trials, seed, &built.artifacts, svc, nullptr,
                  &got);
      if (detBytes(got) != refBytes)
        raise("bench_campaign_scale: procs=" +
              std::to_string(procsAxis[i]) + " diverged on " + w->name);
      tps[i] = sec > 0 ? trials / sec : 0;
    }

    // Store tier: cold fill, then a fully-cached warm pass.
    inject::ServiceConfig store;
    store.processes = 2;
    store.threads = 1;
    store.storeDir = storeDir;
    store.storeKey = inject::campaignKey(built.cm.imageDigest, ccfg,
                                         campaign.rollbackInterval(), true);
    inject::CampaignTelemetry coldTel, warmTel;
    std::vector<inject::InjectionRecord> warm;
    const double coldSec = runOnce(campaign, trials, seed, &built.artifacts,
                                   store, &coldTel, nullptr);
    const double warmSec = runOnce(campaign, trials, seed, &built.artifacts,
                                   store, &warmTel, &warm);
    if (warmTel.storeMisses != 0 || warmTel.storeHits != warmTel.shards)
      raise("bench_campaign_scale: warm pass was not fully cached on " +
            w->name);
    if (detBytes(warm) != refBytes)
      raise("bench_campaign_scale: warm store pass diverged on " + w->name);
    const double warmSpeedup = warmSec > 0 ? coldSec / warmSec : 0;
    if (warmSpeedup < minWarmSpeedup) minWarmSpeedup = warmSpeedup;

    std::printf("%-10s %7d | %9.1f %9.1f %9.1f %9.1f | %9.3f %9.3f %7.1fx\n",
                w->name.c_str(), trials, tps[0], tps[1], tps[2], tps[3],
                coldSec, warmSec, warmSpeedup);
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "%s    {\"workload\":\"%s\",\"trials\":%d,"
        "\"trials_per_sec\":{\"1\":%.2f,\"2\":%.2f,\"4\":%.2f,\"8\":%.2f},"
        "\"store_cold_sec\":%.6f,\"store_warm_sec\":%.6f,"
        "\"warm_speedup\":%.2f,\"warm_store_hits\":%d,\"shards\":%d}",
        rows.empty() ? "" : ",\n", w->name.c_str(), trials, tps[0], tps[1],
        tps[2], tps[3], coldSec, warmSec, warmSpeedup, warmTel.storeHits,
        warmTel.shards);
    rows += row;
  }

  std::printf("\nminimum warm-store speedup: %.1fx (target: >=10x) %s\n",
              minWarmSpeedup, minWarmSpeedup >= 10 ? "OK" : "BELOW TARGET");
  const std::string path = bench::envStr("CARE_BENCH_SCALE_JSON")
                               .value_or("BENCH_campaign_scale.json");
  std::ofstream f(path);
  f << "{\n  \"bench\": \"campaign_scale\",\n  \"rows\": [\n" << rows
    << "\n  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
  bench::footer();
  return 0;
}
