// carecc — command-line driver for the CARE toolchain.
//
// Lets a user point CARE at their own MiniC program without writing any
// C++ against the library:
//
//   carecc compile app.c -O1 -d artifacts/   Armor-compile, write artifacts
//   carecc run app.c [-O1]                   compile and execute in the VM
//   carecc inspect app.c [-O1]               dump optimized IR + kernels
//   carecc inject app.c -n 200 [--no-care]   seeded injection campaign
//
// Exit code: the program's exit code for `run`, 0/1 for the other modes,
// 2 for a bad flag or CARE_* variable.
//
// Settings come from the CARE_* environment (inject/run_env.hpp) first and
// from the flags second, so a flag beats its variable.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "care/driver.hpp"
#include "inject/engine.hpp"
#include "inject/experiment.hpp"
#include "inject/run_env.hpp"
#include "ir/printer.hpp"
#include "ir/serialize.hpp"
#include "pareto/prune.hpp"
#include "pareto/sample.hpp"
#include "sentinel/sentinel.hpp"
#include "support/env.hpp"
#include "support/trace.hpp"
#include "vm/checkpoint_ring.hpp"

using namespace care;

namespace {

struct Args {
  std::string mode;
  std::string file;
  opt::OptLevel level = opt::OptLevel::O0;
  std::string artifactDir = "care_artifacts";
  std::string entry = "main";
  int injections = 200;
  std::uint64_t seed = 2026;
  int threads = 0; // 0 = hardware concurrency
  int procs = 0;   // 0 = in-process engine
  /// nullopt = <artifactDir>/store; empty = store off.
  std::optional<std::string> resultStore;
  bool withCare = true;
  /// Compile knobs: --detect, --detect-sample, --iv-recovery.
  core::ArmorOptions armor;
  /// Campaign knobs: --recover, --rollback-ring, --ckpt-interval, --fault,
  /// --ecc, --prune, --prune-audit. `run` uses recover, the ring and the
  /// interval too.
  inject::CampaignConfig campaign;
};

void usage() {
  std::fprintf(stderr,
               "usage: carecc <compile|run|inspect|inject> <file.c>\n"
               "  -O0|-O1            optimization level (default -O0)\n"
               "  -d <dir>           artifact directory\n"
               "  -e <entry>         entry function (default main)\n"
               "  -n <count>         injections (inject mode)\n"
               "  -s <seed>          campaign seed\n"
               "  -j <threads>       campaign workers (0 = all cores; any\n"
               "                     value yields identical results)\n"
               "  --procs=<n>        forked worker processes for the\n"
               "                     campaign (crash-isolated; 0 = in-\n"
               "                     process engine; default CARE_PROCS or\n"
               "                     0; any value yields identical results)\n"
               "  --result-store=<d> shard result-store directory: repeated\n"
               "                     or overlapping campaigns resume from\n"
               "                     previously computed shards (default\n"
               "                     CARE_RESULT_STORE, else <-d dir>/store;\n"
               "                     empty = off)\n"
               "  --ckpt-interval <n> replay-cache segment length in instrs\n"
               "                     (0 = off; default CARE_CKPT_INTERVAL or\n"
               "                     golden/64); also the rollback-ring\n"
               "                     spacing, so under --recover=rollback or\n"
               "                     repair_then_rollback it changes the\n"
               "                     records (otherwise they are identical\n"
               "                     for any value)\n"
               "  --interp=<b>       interpreter backend: fast (default),\n"
               "                     ref (big-switch reference), or jit\n"
               "                     (template JIT); all bit-identical\n"
               "  --no-care          inject without Safeguard attached\n"
               "  --iv-recovery      enable the Fig. 11 extension\n"
               "  --detect=<list>    arm Sentinel detectors: comma list of\n"
               "                     cfc (control-flow signatures) and addr\n"
               "                     (address-chain duplication), or all /\n"
               "                     none; overrides CARE_DETECT\n"
               "  --detect-sample=<r> sample detector sites at rate 1/r,\n"
               "                     optionally with a rotation epoch as\n"
               "                     r@e (1 = every site, the default);\n"
               "                     overrides CARE_DETECT_SAMPLE\n"
               "  --prune=<on|off>   prune the campaign to one trial per\n"
               "                     provable equivalence class, expanding\n"
               "                     the records afterwards (identical\n"
               "                     outcome counts); overrides CARE_PRUNE\n"
               "  --prune-audit=<k>  re-run k pruned trials exhaustively and\n"
               "                     fail on any divergence from their\n"
               "                     representative; overrides\n"
               "                     CARE_PRUNE_AUDIT\n"
               "  --recover=<s>      Safeguard policy: repair (default),\n"
               "                     rollback, repair_then_rollback, none;\n"
               "                     overrides CARE_RECOVER\n"
               "  --rollback-ring <n> rollback checkpoint ring capacity\n"
               "                     (default CARE_ROLLBACK_RING or 8)\n"
               "  --fault=<m>        fault model: reg (destination operand,\n"
               "                     default), mem1 (one memory bit),\n"
               "                     mem2adj (two adjacent bits), burst\n"
               "                     (8-bit lane); overrides CARE_FAULT\n"
               "  --ecc=<m>          ECC on trial memory: off (default),\n"
               "                     secded, or secded,crc (scrub cross-\n"
               "                     check); overrides CARE_ECC\n"
               "  --trace=<file>     write a Chrome trace-event JSON of the\n"
               "                     recovery/campaign phases (%%p expands to\n"
               "                     the PID; default CARE_TRACE)\n"
               "Every flag beats its CARE_* variable; see README.md.\n");
}

/// A numeric flag's value through parseCount, at most `max`; raises naming
/// the flag otherwise ("5k", "1e2", "-3" and "four" are all errors).
std::uint64_t countFlag(const std::string& flag, const std::string& text,
                        std::uint64_t max =
                            std::numeric_limits<std::uint64_t>::max()) {
  const std::optional<std::uint64_t> v = parseCount(text);
  if (!v || *v > max)
    raise("bad " + flag + " '" + text +
          "' (expected a non-negative decimal integer)");
  return *v;
}

int intFlag(const std::string& flag, const std::string& text) {
  return static_cast<int>(
      countFlag(flag, text, std::numeric_limits<int>::max()));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) raise("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

core::CompiledModule compileFile(const Args& a) {
  core::CompileOptions opts;
  opts.optLevel = a.level;
  opts.artifactDir = a.artifactDir;
  opts.armor = a.armor;
  return core::careCompile({{a.file, slurp(a.file)}}, "app", opts);
}

int cmdCompile(const Args& a) {
  core::CompiledModule cm = compileFile(a);
  std::printf("compiled %s at %s\n", a.file.c_str(),
              a.level == opt::OptLevel::O0 ? "-O0" : "-O1");
  std::printf("  functions            : %zu\n", cm.mmod->functions.size());
  std::printf("  memory accesses      : %zu\n", cm.armorStats.memAccesses);
  std::printf("  recovery kernels     : %zu (avg %.1f IR instrs)\n",
              cm.armorStats.kernelsBuilt, cm.armorStats.avgKernelInstrs());
  if (!cm.sentinelStats.functions.empty()) {
    std::printf("  sentinel added instrs: %zu (%zu signature blocks, "
                "%zu shadow chains)\n",
                cm.sentinelStats.addedInstrs(),
                cm.sentinelStats.signatureBlocks(),
                cm.sentinelStats.shadowChains());
  }
  std::printf("  normal compile time  : %.4f s\n", cm.timings.normalSec);
  std::printf("  Armor overhead       : %.4f s\n", cm.timings.armorSec);
  if (cm.timings.sentinelSec > 0)
    std::printf("  Sentinel overhead    : %.4f s\n", cm.timings.sentinelSec);
  std::printf("  recovery table       : %s\n", cm.artifacts.tablePath.c_str());
  std::printf("  recovery library     : %s\n", cm.artifacts.libPath.c_str());
  return 0;
}

int cmdRun(const Args& a) {
  core::CompiledModule cm = compileFile(a);
  vm::Image image;
  image.load(cm.mmod.get());
  image.link();
  vm::Executor ex(&image);
  core::Safeguard safeguard;
  safeguard.addModule(0, cm.artifacts);
  safeguard.attach(ex);
  const core::RecoveryStrategy recover = a.campaign.recover;
  safeguard.setStrategy(recover);
  constexpr std::uint64_t kRunBudget = 5'000'000'000ull;
  vm::RunResult r;
  vm::CheckpointRing ring(a.campaign.rollbackRingCap);
  if (core::strategyRollsBack(recover)) {
    // Rollback needs live checkpoints: drive the run through boundary
    // pauses, feeding the ring. Outside a campaign there is no golden
    // instruction count to derive an interval from, so --ckpt-interval /
    // CARE_CKPT_INTERVAL apply directly (default 100k instructions).
    safeguard.setRollbackSource(&ring);
    std::uint64_t interval = a.campaign.rollbackEveryInstrs;
    if (interval == inject::CampaignConfig::kCkptAuto) interval = 100'000;
    r = vm::runCheckpointed(ex, a.entry, interval, kRunBudget,
                            [&](vm::Executor& e) { ring.push(e); });
  } else {
    ex.setBudget(kRunBudget);
    r = vm::runToCompletion(ex, a.entry);
  }
  if (const auto& st = safeguard.stats(); st.rollbacks > 0)
    std::printf("safeguard: %llu rollback(s), %llu instructions "
                "re-executed\n",
                static_cast<unsigned long long>(st.rollbacks),
                static_cast<unsigned long long>([&] {
                  std::uint64_t n = 0;
                  for (const auto& rec : st.records) n += rec.discardedInstrs;
                  return n;
                }()));
  for (std::uint64_t bits : ex.output()) {
    double d;
    std::memcpy(&d, &bits, 8);
    std::printf("emit: %.17g  (raw 0x%016llx)\n", d,
                static_cast<unsigned long long>(bits));
  }
  switch (r.status) {
  case vm::RunStatus::Done:
    std::printf("exited with code %lld after %llu instructions\n",
                static_cast<long long>(r.exitCode),
                static_cast<unsigned long long>(r.instrCount));
    return static_cast<int>(r.exitCode);
  case vm::RunStatus::Trapped:
    std::printf("terminated by %s at pc=0x%llx addr=0x%llx\n",
                vm::trapKindName(r.trap.kind),
                static_cast<unsigned long long>(r.trap.pc),
                static_cast<unsigned long long>(r.trap.addr));
    return 128;
  default:
    std::printf("instruction budget exceeded (hang?)\n");
    return 124;
  }
}

int cmdInspect(const Args& a) {
  core::CompiledModule cm = compileFile(a);
  std::printf("=== optimized IR ===\n%s\n", ir::toString(cm.irMod.get()).c_str());
  auto kernels = ir::readModuleFile(cm.artifacts.libPath);
  std::printf("=== recovery library (%zu functions) ===\n",
              kernels->numFunctions());
  for (const ir::Function* f : *kernels)
    if (!f->isDeclaration()) std::printf("%s\n", ir::toString(f).c_str());
  if (!cm.sentinelStats.functions.empty()) {
    std::printf("=== sentinel instrumentation ===\n");
    std::printf("%-24s %10s %8s %8s %8s\n", "function", "sig-blocks",
                "checks", "chains", "added");
    for (const sentinel::FunctionSentinelStats& fs :
         cm.sentinelStats.functions)
      std::printf("%-24s %10zu %8zu %8zu %8zu\n", fs.function.c_str(),
                  fs.signatureBlocks, fs.signatureChecks, fs.shadowChains,
                  fs.addedInstrs);
    std::printf("%-24s %10zu %8zu %8zu %8zu\n", "(total)",
                cm.sentinelStats.signatureBlocks(),
                cm.sentinelStats.signatureChecks(),
                cm.sentinelStats.shadowChains(),
                cm.sentinelStats.addedInstrs());
  }
  return 0;
}

int cmdInject(const Args& a) {
  core::CompiledModule cm = compileFile(a);
  vm::Image image;
  image.load(cm.mmod.get());
  image.link();
  std::map<std::int32_t, core::ModuleArtifacts> arts{{0, cm.artifacts}};

  inject::CampaignConfig ccfg = a.campaign;
  ccfg.seed = a.seed;
  ccfg.entry = a.entry;
  inject::Campaign campaign(&image, ccfg);
  if (!campaign.profile()) {
    std::fprintf(stderr, "program failed its golden run\n");
    return 1;
  }
  std::printf("golden run: %llu instructions\n",
              static_cast<unsigned long long>(campaign.goldenInstrs()));
  if (campaign.checkpointInterval() > 0)
    std::printf("replay cache: %zu checkpoints every %llu instructions\n",
                campaign.checkpoints().size(),
                static_cast<unsigned long long>(campaign.checkpointInterval()));

  // runCampaign's trial: a plain run, then a CARE re-run of every SIGSEGV
  // or ECC-detected trial; counts are identical for every -j / --procs.
  inject::ServiceConfig svc;
  svc.processes = a.procs;
  svc.threads = a.threads;
  svc.storeDir = a.resultStore.value_or(a.artifactDir + "/store");
  svc.storeKey = inject::campaignKey(cm.imageDigest, ccfg,
                                     campaign.rollbackInterval(), a.withCare);
  inject::CampaignTelemetry tel;
  tel.workload = a.file;
  inject::ExperimentResult r;
  r.level = a.level;
  r.records = inject::runCampaign(campaign, a.injections, a.seed, a.threads,
                                  a.withCare ? &arts : nullptr, &tel, &svc);
  inject::publishTelemetry(tel);

  // Table 2 layout: plain outcomes, then the CARE re-runs.
  using inject::Outcome;
  const int segv = r.segvCount();
  std::printf("injections : %d (seed %llu)\n", a.injections,
              static_cast<unsigned long long>(a.seed));
  std::printf("benign     : %d\n", r.count(Outcome::Benign));
  std::printf("SDC        : %d\n", r.count(Outcome::SDC));
  std::printf("hang       : %d\n", r.count(Outcome::Hang));
  std::printf("SIGSEGV    : %d\n", segv);
  std::printf("other sig  : %d\n", r.count(Outcome::SoftFailure) - segv);
  if (r.detectedCount())
    std::printf("detected   : %d (sentinel/ECC, avg latency %.1f instrs)\n",
                r.detectedCount(), tel.detectLatencyInstrs);
  if (r.count(Outcome::Corrected) || tel.eccCorrected || tel.eccUncorrectable)
    std::printf("corrected  : %d trials (ECC: %llu words corrected, %llu "
                "uncorrectable)\n",
                r.count(Outcome::Corrected),
                static_cast<unsigned long long>(tel.eccCorrected),
                static_cast<unsigned long long>(tel.eccUncorrectable));
  if (a.withCare) {
    std::printf("CARE re-runs of SIGSEGV / ECC-detected trials (strategy "
                "%s):\n",
                core::recoveryStrategyName(ccfg.recover));
    std::printf("  re-runs    : %d\n", tel.careReruns);
    std::printf("  recovered  : %d (avg %.1f us per recovery)\n",
                r.recoveredCount(), r.meanRecoveryUs());
    if (tel.rollbacks > 0)
      std::printf("  rolled back: %d (%llu rollbacks, %llu instrs "
                  "re-executed)\n",
                  r.rolledBackCount(),
                  static_cast<unsigned long long>(tel.rollbacks),
                  static_cast<unsigned long long>(tel.rollbackReexecInstrs));
  }
  std::printf("campaign   : %.2fs wall, %.1f trials/s, %.1f MIPS, "
              "threads=%d, utilization %.0f%%\n",
              tel.wallSec, tel.trialsPerSec, tel.mips, tel.threads,
              100.0 * tel.utilization);
  if (tel.processes > 0 || tel.storeHits + tel.storeMisses > 0)
    std::printf("service    : procs=%d, %d shards, store %d hit%s / %d "
                "miss%s, %d requeued, %d restarts\n",
                tel.processes, tel.shards, tel.storeHits,
                tel.storeHits == 1 ? "" : "s", tel.storeMisses,
                tel.storeMisses == 1 ? "" : "es", tel.shardsRequeued,
                tel.workerRestarts);
  if (tel.replaySavedInstrs > 0)
    std::printf("replay     : %llu prefix instrs skipped "
                "(%.1f effective MIPS)\n",
                static_cast<unsigned long long>(tel.replaySavedInstrs),
                tel.effectiveMips);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  Args a;
  std::vector<std::string> positional;
  try {
    const inject::RunEnv env = inject::readRunEnv();
    env.install();
    env.apply(a.armor);
    env.apply(a.campaign);
    a.procs = env.processes.value_or(a.procs);
    a.resultStore = env.resultStore;
    for (int i = 1; i < argc; ++i) {
      const std::string s = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          usage();
          std::exit(2);
        }
        return argv[++i];
      };
      // The value of `--flag=<v>` when `s` is that flag.
      auto value = [&](const char* flag) -> std::optional<std::string> {
        const std::string prefix = std::string(flag) + "=";
        if (s.rfind(prefix, 0) != 0) return std::nullopt;
        return s.substr(prefix.size());
      };
      std::optional<std::string> v;
      if (s == "-O0") a.level = opt::OptLevel::O0;
      else if (s == "-O1") a.level = opt::OptLevel::O1;
      else if (s == "-d") a.artifactDir = next();
      else if (s == "-e") a.entry = next();
      else if (s == "-n") a.injections = intFlag(s, next());
      else if (s == "-s") a.seed = countFlag(s, next());
      else if (s == "-j") a.threads = intFlag(s, next());
      else if ((v = value("--procs"))) a.procs = intFlag("--procs", *v);
      else if ((v = value("--result-store"))) a.resultStore = *v;
      else if (s == "--ckpt-interval")
        a.campaign.checkpointEveryInstrs = a.campaign.rollbackEveryInstrs =
            countFlag(s, next());
      else if ((v = value("--interp")))
        vm::setDefaultInterp(vm::parseInterp(*v));
      else if ((v = value("--detect-sample")))
        a.armor.detectSample = pareto::parseDetectSample(*v);
      else if ((v = value("--prune")))
        a.campaign.prune.enabled = pareto::parsePruneFlag(*v);
      else if ((v = value("--prune-audit")))
        a.campaign.prune.auditK = pareto::parsePruneAudit(*v);
      else if ((v = value("--detect")))
        a.armor.detect = sentinel::parseDetect(*v);
      else if ((v = value("--recover")))
        a.campaign.recover = core::parseRecoveryStrategy(*v);
      else if (s == "--rollback-ring")
        a.campaign.rollbackRingCap = countFlag(s, next());
      else if ((v = value("--fault")))
        a.campaign.fault = inject::parseFaultModel(*v);
      else if ((v = value("--ecc"))) a.campaign.ecc = vm::parseEccMode(*v);
      else if ((v = value("--trace"))) trace::enable(*v);
      else if (s == "--trace") trace::enable(next());
      else if (s == "--no-care") a.withCare = false;
      else if (s == "--iv-recovery") a.armor.inductionRecovery = true;
      else if (s == "-h" || s == "--help") { usage(); return 0; }
      else positional.push_back(s);
    }
  } catch (const Error& e) { // a flag's or variable's value failed to parse
    std::fprintf(stderr, "carecc: %s\n", e.what());
    return 2;
  }
  if (positional.size() != 2) {
    usage();
    return 2;
  }
  a.mode = positional[0];
  a.file = positional[1];
  try {
    if (a.mode == "compile") return cmdCompile(a);
    if (a.mode == "run") return cmdRun(a);
    if (a.mode == "inspect") return cmdInspect(a);
    if (a.mode == "inject") return cmdInject(a);
    usage();
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "carecc: %s\n", e.what());
    return 1;
  }
}
