// Campaign throughput: replay cache on vs. off (DESIGN.md §4c).
//
// Runs the Table 2-shaped campaign (single-bit, CARE on SIGSEGV) over each
// workload twice — checkpointing disabled, then at the auto interval
// (goldenInstrs/64, or CARE_CKPT_INTERVAL) — and reports trials per wall
// second. Both campaigns run the exact same trials; the bench asserts
// their serializeDeterministic() byte streams are equal before reporting,
// so a speedup can never be bought with a changed record. Each cell is
// best-of-CARE_CAMPAIGN_REPS (default 3) to damp scheduler noise. Writes
// BENCH_campaign.json (path: CARE_BENCH_CAMPAIGN_JSON).
#include <chrono>
#include <fstream>

#include "bench_util.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace care;

struct Cell {
  double sec = 0;                       // best-of-reps wall time
  inject::CampaignTelemetry tel;        // telemetry of the best rep
  std::vector<inject::InjectionRecord> records;
  double trialsPerSec(int trials) const { return sec > 0 ? trials / sec : 0; }
};

Cell runCell(const inject::Campaign& campaign, int trials,
             std::uint64_t seed, int threads,
             const std::map<std::int32_t, core::ModuleArtifacts>* arts,
             int reps) {
  Cell cell;
  inject::ServiceConfig svc;
  svc.processes = bench::env().processes.value_or(0);
  svc.threads = threads;
  for (int r = 0; r < reps; ++r) {
    inject::CampaignTelemetry tel;
    const Clock::time_point t0 = Clock::now();
    auto records = inject::runCampaign(campaign, trials, seed, threads,
                                       arts, &tel, &svc);
    const double sec =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (r == 0 || sec < cell.sec) {
      cell.sec = sec;
      cell.tel = tel;
      cell.records = std::move(records);
    }
  }
  return cell;
}

} // namespace

int main() {
  const int reps = bench::envInt("CARE_CAMPAIGN_REPS", 3);
  const int trials = bench::envInt("CARE_INJECTIONS", 400);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(bench::envInt("CARE_SEED", 2026));
  const int threads = bench::env().threads.value_or(0);
  bench::header("Campaign throughput: replay cache on vs. off",
                "the §5.1 campaign engine; not a paper table");
  std::printf("%-10s %7s %8s %10s %10s %9s %12s  (best of %d)\n",
              "Workload", "trials", "ckpts", "off tr/s", "on tr/s",
              "speedup", "saved Minstr", reps);

  std::string rows;
  for (const auto* w : workloads::allWorkloads()) {
    auto cfg = bench::baseConfig(opt::OptLevel::O0);
    inject::BuiltWorkload built = inject::buildWorkload(*w, cfg);

    inject::CampaignConfig onCfg = bench::campaignConfig();
    onCfg.seed = cfg.seed;
    onCfg.hangFactor = 4;
    inject::CampaignConfig offCfg = onCfg;
    offCfg.checkpointEveryInstrs = 0;
    inject::Campaign off(built.image.get(), offCfg);
    inject::Campaign on(built.image.get(), onCfg);
    if (!off.profile() || !on.profile())
      raise("bench_campaign_throughput: " + w->name + " failed to profile");

    const Cell coff =
        runCell(off, trials, seed, threads, &built.artifacts, reps);
    const Cell con =
        runCell(on, trials, seed, threads, &built.artifacts, reps);

    // Equivalence gate: a throughput number only counts if the records are
    // byte-identical to the from-scratch campaign.
    inject::ExperimentResult a, b;
    a.workload = b.workload = w->name;
    a.level = b.level = opt::OptLevel::O0;
    a.goldenInstrs = off.goldenInstrs();
    b.goldenInstrs = on.goldenInstrs();
    a.records = coff.records;
    b.records = con.records;
    if (inject::serializeDeterministic(a) != inject::serializeDeterministic(b))
      raise("bench_campaign_throughput: checkpointed campaign diverged from "
            "from-scratch on " + w->name);
    if (con.tel.replaySavedInstrs == 0)
      raise("bench_campaign_throughput: replay cache saved nothing on " +
            w->name);

    const double speedup = con.sec > 0 ? coff.sec / con.sec : 0;
    std::printf("%-10s %7d %8llu %10.1f %10.1f %8.2fx %12.1f\n",
                w->name.c_str(), trials,
                static_cast<unsigned long long>(con.tel.ckptCount),
                coff.trialsPerSec(trials), con.trialsPerSec(trials), speedup,
                con.tel.replaySavedInstrs / 1e6);
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "%s    {\"workload\":\"%s\",\"trials\":%d,\"golden_instrs\":%llu,"
        "\"ckpt_count\":%llu,\"ckpt_interval\":%llu,"
        "\"off_sec\":%.6f,\"off_trials_per_sec\":%.2f,"
        "\"on_sec\":%.6f,\"on_trials_per_sec\":%.2f,\"speedup\":%.3f,"
        "\"replay_saved_instrs\":%llu,\"mips\":%.2f,"
        "\"effective_mips\":%.2f}",
        rows.empty() ? "" : ",\n", w->name.c_str(), trials,
        static_cast<unsigned long long>(on.goldenInstrs()),
        static_cast<unsigned long long>(con.tel.ckptCount),
        static_cast<unsigned long long>(on.checkpointInterval()),
        coff.sec, coff.trialsPerSec(trials), con.sec,
        con.trialsPerSec(trials), speedup,
        static_cast<unsigned long long>(con.tel.replaySavedInstrs),
        con.tel.mips, con.tel.effectiveMips);
    rows += row;
  }

  const std::string path =
      bench::envStr("CARE_BENCH_CAMPAIGN_JSON").value_or("BENCH_campaign.json");
  std::ofstream f(path);
  f << "{\n  \"bench\": \"campaign_throughput\",\n  \"reps\": " << reps
    << ",\n  \"rows\": [\n" << rows << "\n  ]\n}\n";
  std::printf("\nwrote %s\n", path.c_str());
  bench::footer();
  return 0;
}
