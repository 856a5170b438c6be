// Campaign benchmark driver (see README.md in this directory).
//
// Runs one workload closed-loop for a wall-clock budget and writes what it
// measured — setup times, campaign totals, latency samples, per-layer
// counters and, when traced, spans — as one raw JSON object. run.py turns
// that into metrics. The driver reaches the libraries only through their
// public calls, so every span below wraps calls into exactly one layer.
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/regalloc.hpp"
#include "care/armor.hpp"
#include "care/safeguard.hpp"
#include "inject/experiment.hpp"
#include "inject/service.hpp"
#include "ir/names.hpp"
#include "ir/serialize.hpp"
#include "ir/verifier.hpp"
#include "lang/compile.hpp"
#include "opt/passes.hpp"
#include "sentinel/sentinel.hpp"
#include "support/rng.hpp"
#include "vm/executor.hpp"
#include "workloads/workloads.hpp"

extern char** environ;

namespace {

using namespace care;
using Clock = std::chrono::steady_clock;

// Fixed shape of every workload. The engine gets two workers: the host this
// benchmark was tuned on has four cores shared with other tenants.
constexpr int kWorkers = 2;
// Setup is repeated and its median reported, so one slow repetition cannot
// move setup_s. The repetitions after the first are spread over the timed
// loop (see SetupReps).
constexpr int kSetupReps = 12;
// Trials per app that the reference oracle re-runs on `ref`.
constexpr int kOracleTrialsPerApp = 3;
// A p90 needs ten samples beyond it.
constexpr std::size_t kMinLatencySamples = 100;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Nanoseconds on the monotonic clock, which forked workers share.
std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans --

struct SpanRec {
  const char* name;
  std::int64_t beginNs, endNs;
  int id, parent;
  std::int64_t trial; // -1 outside trials
};

/// In-memory span log; written out once at exit.
class Tracer {
public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  int nextId() { return nextId_.fetch_add(1, std::memory_order_relaxed); }
  void record(const SpanRec& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

private:
  const bool on_;
  std::atomic<int> nextId_{1};
  std::mutex mu_;
  std::vector<SpanRec> spans_;
};

/// RAII span around calls into one layer; a no-op when tracing is off.
class Span {
public:
  Span(Tracer& t, const char* name, int parent = 0)
      : t_(t), rec_{name, 0, 0, 0, parent, -1} {
    if (!t_.on()) return;
    rec_.id = t_.nextId();
    rec_.beginNs = nowNs();
  }
  ~Span() {
    if (!t_.on()) return;
    rec_.endNs = nowNs();
    t_.record(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return rec_.id; }

private:
  Tracer& t_;
  SpanRec rec_;
};

/// A span that also adds its wall time (ms) to `total`, traced or not.
class Step {
public:
  Step(Tracer& t, const char* name, int parent, double& total)
      : span_(t, name, parent), total_(total), t0_(Clock::now()) {}
  ~Step() { total_ += msSince(t0_); }
  Step(const Step&) = delete;
  Step& operator=(const Step&) = delete;

private:
  Span span_;
  double& total_;
  Clock::time_point t0_;
};

/// Cost of recording one span, measured on a throwaway tracer.
double spanCostNs() {
  Tracer t(true);
  constexpr int kN = 20000;
  const std::int64_t t0 = nowNs();
  for (int i = 0; i < kN; ++i) Span s(t, "bench.probe");
  return static_cast<double>(nowNs() - t0) / kN;
}

// ------------------------------------------------------------ raw output --

/// Flat raw results: scalars, sample lists and a few strings.
struct Raw {
  std::map<std::string, double> counters;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::string> info;
  std::vector<std::string> failures;

  void add(const std::string& k, double v) { counters[k] += v; }
  void fail(const std::string& why) {
    counters["ops_failed"] += 1;
    if (failures.size() < 20) failures.push_back(why);
  }
};

std::string jsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string jsonNum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void writeRaw(const std::string& path, const Raw& raw, const Tracer& tr) {
  std::string o = "{\"info\":{";
  const char* sep = "";
  for (const auto& [k, v] : raw.info) {
    o += sep + jsonStr(k) + ":" + jsonStr(v);
    sep = ",";
  }
  o += "},\"counters\":{";
  sep = "";
  for (const auto& [k, v] : raw.counters) {
    o += sep + jsonStr(k) + ":" + jsonNum(v);
    sep = ",";
  }
  o += "},\"samples\":{";
  sep = "";
  for (const auto& [k, vs] : raw.samples) {
    o += sep + jsonStr(k) + ":[";
    for (std::size_t i = 0; i < vs.size(); ++i)
      o += (i ? "," : "") + jsonNum(vs[i]);
    o += "]";
    sep = ",";
  }
  o += "},\"failures\":[";
  sep = "";
  for (const std::string& f : raw.failures) {
    o += sep + jsonStr(f);
    sep = ",";
  }
  // Spans as [id, parent, trial, name, begin_ns, end_ns].
  o += "],\"spans\":[";
  sep = "";
  for (const SpanRec& s : tr.spans()) {
    o += sep;
    o += "[" + std::to_string(s.id) + "," + std::to_string(s.parent) + "," +
         std::to_string(s.trial) + "," + jsonStr(s.name) + "," +
         std::to_string(s.beginNs) + "," + std::to_string(s.endNs) + "]";
    sep = ",";
  }
  o += "]}\n";
  std::ofstream f(path, std::ios::binary);
  f << o;
  if (!f) throw std::runtime_error("cannot write " + path);
}

// -------------------------------------------------------------- workloads --

struct WorkloadSpec {
  std::string name;
  opt::OptLevel level = opt::OptLevel::O0;
  vm::InterpKind interp = vm::InterpKind::Fast;
  bool campaign = true; // false: fault-free deployed runs
  inject::FaultModel fault = inject::FaultModel::Reg;
  vm::EccMode ecc = vm::EccMode::Off;
  int processes = 0;         // forked workers; 0 = in-process engine
  int trialsPerCampaign = 0; // per app per round
  int shardSize = 16;
  // The first rounds' records are kept for the deterministic counts, the
  // reference oracle and the runCampaign cross-check (enough for >= 100
  // trials, and on table2_jit about 100 CARE re-runs).
  int keptRounds = 1;
  bool sentinel = false; // sampled cfc,addr detectors
};

WorkloadSpec specFor(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "table2_jit") {
    s.interp = vm::InterpKind::Jit;
    s.trialsPerCampaign = 40;
    s.keptRounds = 3;
  } else if (name == "mem_ecc_procs") {
    s.level = opt::OptLevel::O1;
    s.fault = inject::FaultModel::Mem1;
    s.ecc = vm::EccMode::Secded;
    s.processes = kWorkers;
    // Six shards per campaign, so the two workers stay evenly loaded.
    s.trialsPerCampaign = 30;
    s.shardSize = 5;
  } else if (name == "deployed_golden") {
    s.level = opt::OptLevel::O1;
    s.interp = vm::InterpKind::Jit;
    s.campaign = false;
    s.sentinel = true;
  } else {
    throw std::runtime_error("unknown workload '" + name +
                             "' (expected table2_jit, mem_ecc_procs or "
                             "deployed_golden)");
  }
  return s;
}

/// One compiled, loaded and (for campaigns) profiled mini-app.
struct App {
  const workloads::Workload* w = nullptr;
  std::unique_ptr<ir::Module> irMod;
  std::unique_ptr<backend::MModule> mmod;
  std::map<std::int32_t, core::ModuleArtifacts> artifacts;
  std::unique_ptr<vm::Image> image;
  std::unique_ptr<inject::Campaign> campaign;
  std::vector<std::uint64_t> goldenOutput; // deployed runs' reference
  std::uint64_t goldenInstrs = 0;
};

std::size_t countIr(const ir::Module& m) {
  std::size_t n = 0;
  for (const ir::Function* f : m)
    for (const ir::BasicBlock* bb : *f) n += bb->size();
  return n;
}

std::size_t countMir(const backend::MModule& m) {
  std::size_t n = 0;
  for (const backend::MFunction& f : m.functions) n += f.code.size();
  return n;
}

inject::CampaignConfig campaignConfig(const WorkloadSpec& spec,
                                      std::uint64_t seed,
                                      std::uint64_t ckptEvery) {
  inject::CampaignConfig c;
  c.seed = seed;
  c.bitsToFlip = 1;
  c.hangFactor = 4; // as the experiment harness
  c.checkpointEveryInstrs = ckptEvery;
  c.recover = core::RecoveryStrategy::RepairThenRollback;
  c.rollbackRingCap = 8;
  c.fault = spec.fault;
  c.ecc = spec.ecc;
  c.prune = pareto::PruneOptions{};
  return c;
}

/// A deployed CARE process: fresh executor on the warmed image, Safeguard
/// attached, run to completion.
vm::RunResult deployedRun(const App& a, std::vector<std::uint64_t>* output) {
  vm::Executor ex(a.image.get());
  core::Safeguard sg;
  for (const auto& [mi, arts] : a.artifacts) sg.addModule(mi, arts);
  sg.attach(ex);
  const vm::RunResult rr = vm::runToCompletion(ex);
  if (output) *output = ex.output();
  return rr;
}

struct SetupTimes {
  double lang = 0, opt = 0, armor = 0, sentinel = 0, lower = 0, load = 0,
         profile = 0, firstRun = 0;
  double total() const {
    return lang + opt + armor + sentinel + lower + load + profile + firstRun;
  }
};

/// Compile one app the way careCompile does, one public call per step.
App buildApp(const workloads::Workload& w, const WorkloadSpec& spec,
             std::uint64_t seed, const std::string& artifactDir, Tracer& tr,
             int parent, SetupTimes& t, Raw* counts) {
  App a;
  a.w = &w;
  const std::string modName =
      w.name + (spec.level == opt::OptLevel::O0 ? "_O0" : "_O1");
  auto mod = std::make_unique<ir::Module>(modName);
  {
    Step s(tr, "lang.compileIntoModule", parent, t.lang);
    for (const core::SourceFile& src : w.sources)
      lang::compileIntoModule(src.content, src.name, *mod);
    ir::verifyOrDie(*mod);
  }
  {
    Step s(tr, "opt.optimize", parent, t.opt);
    opt::optimize(*mod, spec.level);
    ir::verifyOrDie(*mod);
    ir::uniquifyNames(*mod);
  }
  const std::size_t irInstrs = countIr(*mod);
  std::size_t kernels = 0;
  {
    Step s(tr, "care.runArmor", parent, t.armor);
    core::ArmorOptions ao;
    ao.detectAuto = false;
    ao.detectSampleAuto = false;
    ao.recoverAuto = false;
    core::ArmorResult armor = core::runArmor(*mod, ao);
    ir::verifyOrDie(*armor.kernelModule);
    core::ModuleArtifacts arts;
    arts.tablePath = artifactDir + "/" + modName + ".rtable";
    arts.libPath = artifactDir + "/" + modName + ".rlib";
    armor.table.writeFile(arts.tablePath);
    ir::writeModuleFile(*armor.kernelModule, arts.libPath);
    a.artifacts[0] = arts;
    kernels = armor.stats.kernelsBuilt;
  }
  sentinel::SentinelStats sst;
  if (spec.sentinel) {
    Step s(tr, "sentinel.runSentinel", parent, t.sentinel);
    sentinel::DetectOptions det;
    det.cfc = det.addr = true;
    // One fixed 1/16 slice: which slice is armed moves run time by up to
    // 2x, far more than any change a run should resolve.
    sst = sentinel::runSentinel(*mod, det, pareto::SampleConfig{16, 0});
    ir::verifyOrDie(*mod);
  }
  {
    Step s(tr, "backend.lowerModule", parent, t.lower);
    a.mmod = backend::lowerModule(*mod);
  }
  a.irMod = std::move(mod);
  {
    Step s(tr, "vm.Image.load", parent, t.load);
    a.image = std::make_unique<vm::Image>();
    a.image->load(a.mmod.get());
    a.image->link();
  }
  if (spec.campaign) {
    Step s(tr, "inject.Campaign.profile", parent, t.profile);
    a.campaign = std::make_unique<inject::Campaign>(
        a.image.get(),
        campaignConfig(spec, seed, inject::CampaignConfig::kCkptAuto));
    if (!a.campaign->profile())
      throw std::runtime_error(w.name + " failed to profile");
    a.goldenInstrs = a.campaign->goldenInstrs();
  } else {
    // The first run JIT-compiles the hot functions; it is setup, and its
    // output is the reference every timed run is checked against.
    Step s(tr, "vm.Executor.run", parent, t.firstRun);
    const vm::RunResult rr = deployedRun(a, &a.goldenOutput);
    if (rr.status != vm::RunStatus::Done)
      throw std::runtime_error(w.name + " golden run did not complete");
    a.goldenInstrs = rr.instrCount;
  }
  if (counts) {
    counts->add("opt.ir_instrs", static_cast<double>(irInstrs));
    counts->add("care.kernels", static_cast<double>(kernels));
    counts->add("sentinel.armed_sites",
                static_cast<double>(sst.armedSites()));
    counts->add("sentinel.total_sites",
                static_cast<double>(sst.totalSites()));
    counts->add("backend.mir_instrs",
                static_cast<double>(countMir(*a.mmod)));
    counts->add("vm.golden_instrs", static_cast<double>(a.goldenInstrs));
    if (a.campaign)
      counts->add("inject.ckpt_count",
                  static_cast<double>(a.campaign->checkpoints().size()));
  }
  return a;
}

/// One setup of all five apps under a "bench.setup" span, with its times
/// added to raw's setup samples; `counts` also records the apps' counts.
std::vector<App> setUp(const WorkloadSpec& spec, std::uint64_t seed,
                       const std::string& artDir, Tracer& tr, int parent,
                       Raw& raw, bool counts) {
  std::vector<App> apps;
  SetupTimes t;
  Span setup(tr, "bench.setup", parent);
  for (const workloads::Workload* w : workloads::allWorkloads())
    apps.push_back(buildApp(*w, spec, seed, artDir, tr, setup.id(), t,
                            counts ? &raw : nullptr));
  raw.samples["setup_s"].push_back(t.total() / 1e3);
  raw.samples["lang.compile_ms"].push_back(t.lang);
  raw.samples["opt.optimize_ms"].push_back(t.opt);
  raw.samples["care.armor_ms"].push_back(t.armor);
  raw.samples["sentinel.instrument_ms"].push_back(t.sentinel);
  raw.samples["backend.lower_ms"].push_back(t.lower);
  raw.samples["vm.load_ms"].push_back(t.load);
  raw.samples["inject.profile_ms"].push_back(t.profile);
  raw.samples["vm.first_run_ms"].push_back(t.firstRun);
  return apps;
}

/// The setup repetitions after the first, run at even intervals through the
/// timed loop: a shared host's speed drifts over seconds, so setups spread
/// over the run sample the same stretch of time as the figures measured
/// beside them, where back-to-back setups at start-up all catch the same
/// moment (report.setup_seconds turns them into setup_s). The repetitions
/// build throwaway apps in their own artifact directory, and the time they
/// take is kept out of the timed loop.
class SetupReps {
public:
  SetupReps(const WorkloadSpec& spec, std::uint64_t seed, std::string artDir,
            double seconds, Tracer& tr, Raw& raw)
      : spec_(spec), seed_(seed), artDir_(std::move(artDir)),
        seconds_(seconds), tr_(tr), raw_(raw) {
    std::filesystem::create_directories(artDir_);
  }

  /// Runs the repetitions due by `loopSec` seconds of timed loop.
  void between(double loopSec, int parent) {
    while (done_ < kSetupReps &&
           loopSec >= seconds_ * done_ / kSetupReps)
      once(parent);
  }
  /// Runs the repetitions not yet due, so every run has kSetupReps.
  void finish() {
    while (done_ < kSetupReps) once(0);
  }
  /// Seconds spent in repetitions so far.
  double spentSec() const { return spentSec_; }

private:
  void once(int parent) {
    const Clock::time_point t0 = Clock::now();
    setUp(spec_, seed_, artDir_, tr_, parent, raw_, false);
    spentSec_ += msSince(t0) / 1e3;
    ++done_;
  }

  const WorkloadSpec& spec_;
  const std::uint64_t seed_;
  const std::string artDir_;
  const double seconds_;
  Tracer& tr_;
  Raw& raw_;
  int done_ = 1; // the apps the timed loop uses
  double spentSec_ = 0;
};

// ---------------------------------------------------------------- trials --

/// When one trial's runInjection calls began and ended (nowNs); careBegin
/// stays 0 without a CARE re-run.
struct TrialStamps {
  std::int64_t begin = 0, plainEnd = 0, careBegin = 0, careEnd = 0;
  std::int64_t end() const { return careBegin ? careEnd : plainEnd; }
};

/// Per-trial stamps in memory shared with forked campaign workers, so the
/// trials they run are timed too.
class SharedStamps {
public:
  explicit SharedStamps(std::size_t n) : n_(n) {
    void* p = mmap(nullptr, n * sizeof(TrialStamps), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap failed");
    at_ = static_cast<TrialStamps*>(p);
  }
  ~SharedStamps() { munmap(at_, n_ * sizeof(TrialStamps)); }
  SharedStamps(const SharedStamps&) = delete;
  SharedStamps& operator=(const SharedStamps&) = delete;
  TrialStamps& operator[](std::size_t i) { return at_[i]; }

private:
  std::size_t n_;
  TrialStamps* at_;
};

/// The trial runCampaign runs (engine.cpp): the plain run, then a CARE
/// re-run for the failures a recovery strategy can fix.
inject::InjectionRecord runTrial(
    const inject::Campaign& c, const inject::InjectionPoint& pt,
    const std::map<std::int32_t, core::ModuleArtifacts>* arts,
    TrialStamps& st) {
  using inject::Outcome;
  inject::InjectionRecord rec;
  rec.point = pt;
  st.begin = nowNs();
  rec.plain = c.runInjection(pt);
  st.plainEnd = nowNs();
  const bool segv = rec.plain.outcome == Outcome::SoftFailure &&
                    rec.plain.signal == vm::TrapKind::SegFault;
  const bool eccDetected =
      rec.plain.outcome == Outcome::Detected &&
      rec.plain.signal == vm::TrapKind::EccUncorrectable;
  if (arts && (segv || eccDetected)) {
    st.careBegin = nowNs();
    rec.haveCare = true;
    rec.withCare = c.runInjection(pt, arts);
    st.careEnd = nowNs();
  }
  return rec;
}

std::uint64_t roundSeed(std::uint64_t seed, std::size_t app, int round) {
  return Rng::stream(seed, (static_cast<std::uint64_t>(round) << 8) | app)
      .next();
}

/// Deterministic per-layer counts of one record.
void countRecord(const inject::InjectionRecord& rec, Raw& raw) {
  using inject::Outcome;
  static const std::map<Outcome, const char*> names = {
      {Outcome::Benign, "benign"},
      {Outcome::SDC, "sdc"},
      {Outcome::SoftFailure, "soft_failure"},
      {Outcome::Hang, "hang"},
      {Outcome::Detected, "detected"},
      {Outcome::Corrected, "corrected"},
      {Outcome::RolledBack, "rolled_back"}};
  raw.add(std::string("inject.outcome.") + names.at(rec.plain.outcome), 1);
  auto work = [&](const inject::InjectionResult& r) {
    const double tail =
        static_cast<double>(r.instrsExecuted - r.replaySavedInstrs);
    raw.add("inject.tail_instrs", tail);
    if (r.outcome == Outcome::Hang) raw.add("inject.hang_tail_instrs", tail);
    raw.add("inject.replay_saved_instrs",
            static_cast<double>(r.replaySavedInstrs));
    raw.add("vm.ecc_corrected", static_cast<double>(r.eccCorrected));
    raw.add("vm.ecc_uncorrectable", static_cast<double>(r.eccUncorrectable));
  };
  work(rec.plain);
  if (!rec.haveCare) return;
  work(rec.withCare);
  const inject::InjectionResult& c = rec.withCare;
  raw.add("inject.care_reruns", 1);
  raw.add("care.activations", static_cast<double>(c.safeguardActivations));
  raw.add("care.rollbacks", static_cast<double>(c.rollbacks));
  raw.add("care.rollback_reexec_instrs",
          static_cast<double>(c.rollbackReexecInstrs));
  if (!c.careRecovered) return;
  raw.add("care.recovered", 1);
  raw.samples["care.key_us"].push_back(c.keyUsTotal);
  raw.samples["care.load_us"].push_back(c.loadUsTotal);
  raw.samples["care.param_us"].push_back(c.paramUsTotal);
  raw.samples["care.kernel_us"].push_back(c.kernelUsTotal);
  raw.samples["care.patch_us"].push_back(c.patchUsTotal);
  if (c.rollbacks > 0)
    raw.samples["care.rollback_us"].push_back(c.rollbackUsTotal);
}

// ------------------------------------------------------------- campaigns --

struct KeptCampaign {
  std::uint64_t seed = 0;
  std::vector<inject::InjectionRecord> records;
};

void runCampaignWorkload(const WorkloadSpec& spec, std::vector<App>& apps,
                         std::uint64_t seed, double seconds,
                         const std::string& dir, SetupReps& reps, Tracer& tr,
                         Raw& raw) {
  const std::string storeDir = dir + "/store";
  auto service = [&](const App& a, std::uint64_t s) {
    inject::ServiceConfig svc;
    svc.processes = spec.processes;
    svc.threads = kWorkers;
    svc.shardSize = spec.shardSize;
    if (spec.processes > 0) {
      svc.storeDir = storeDir;
      svc.storeKey = "perfbench-" + a.w->name + "-" + std::to_string(s);
    }
    return svc;
  };
  const std::size_t trials = static_cast<std::size_t>(spec.trialsPerCampaign);
  SharedStamps stamps(trials);
  std::vector<std::vector<KeptCampaign>> kept(apps.size());
  std::vector<double>& latency = raw.samples["latency_ms"];
  std::int64_t trialId = 0;

  // ---- timed loop: rounds of one campaign per app -----------------------
  const Clock::time_point start = Clock::now();
  auto loopSec = [&] { return msSince(start) / 1e3 - reps.spentSec(); };
  for (int round = 0;; ++round) {
    Span rs(tr, "bench.round");
    for (std::size_t i = 0; i < apps.size(); ++i) {
      reps.between(loopSec(), rs.id());
      const App& a = apps[i];
      const std::uint64_t s = roundSeed(seed, i, round);
      const inject::ServiceConfig svc = service(a, s);
      inject::CampaignTelemetry tel;
      std::vector<inject::InjectionRecord> recs;
      const Clock::time_point t0 = Clock::now();
      Span cs(tr,
              spec.processes ? "service.runCampaignTrials"
                             : "engine.runCampaignTrials",
              rs.id());
      try {
        // runCampaign's points and trial, with every trial stamped; the
        // traced run checks these records against runCampaign's own.
        std::vector<inject::InjectionPoint> points;
        Rng rng(s);
        for (std::size_t k = 0; k < trials; ++k)
          points.push_back(a.campaign->sample(rng));
        for (std::size_t k = 0; k < trials; ++k) stamps[k] = TrialStamps{};
        const inject::TrialFn trial = [&](int k, Rng&) {
          const std::size_t ks = static_cast<std::size_t>(k);
          return runTrial(*a.campaign, points[ks], &a.artifacts, stamps[ks]);
        };
        recs = inject::runCampaignTrials(*a.campaign, points, s, svc, trial,
                                         &tel);
      } catch (const std::exception& e) {
        raw.add("ops_attempted", static_cast<double>(trials));
        for (std::size_t k = 0; k < trials; ++k)
          raw.fail(a.w->name + ": campaign threw: " + e.what());
        continue;
      }
      const double wallMs = msSince(t0);
      if (tel.fromCache || tel.storeHits > 0)
        throw std::runtime_error("refusing to report: a timed campaign was "
                                 "served from a cache");
      raw.add("ops_attempted", static_cast<double>(recs.size()));
      raw.add("campaign_trials", static_cast<double>(recs.size()));
      raw.add("campaign_wall_s", wallMs / 1e3);
      raw.add("campaign_busy_s", tel.workerBusySec);
      raw.add("campaign_sim_instrs", static_cast<double>(tel.simInstrs));
      raw.add("campaign_worker_capacity_s", tel.wallSec * tel.threads);
      raw.add("service.shards", tel.shards);
      raw.add("service.worker_restarts", tel.workerRestarts);
      if (tel.workerRestarts > 0)
        raw.fail(a.w->name + ": a campaign worker crashed and was restarted");
      raw.add("store.hits", tel.storeHits);
      raw.add("store.misses", tel.storeMisses);
      for (std::size_t k = 0; k < trials; ++k) {
        const TrialStamps st = stamps[k];
        if (!st.begin || !st.plainEnd) {
          raw.fail(a.w->name + ": a trial left no timestamps");
          continue;
        }
        if (spec.processes > 0)
          latency.push_back(static_cast<double>(st.end() - st.begin) / 1e6);
        if (round < spec.keptRounds)
          raw.add("inject.kept_trial_s",
                  static_cast<double>(st.plainEnd - st.begin +
                                      st.careEnd - st.careBegin) / 1e9);
        if (!tr.on()) continue;
        // Spans of trials that may have run in forked workers, rebuilt from
        // their shared stamps.
        raw.samples["inject.plain_us"].push_back(
            static_cast<double>(st.plainEnd - st.begin) / 1e3);
        tr.record({"inject.runInjection", st.begin, st.plainEnd, tr.nextId(),
                   cs.id(), trialId});
        if (st.careBegin) {
          raw.samples["inject.care_us"].push_back(
              static_cast<double>(st.careEnd - st.careBegin) / 1e3);
          tr.record({"inject.runInjection.care", st.careBegin, st.careEnd,
                     tr.nextId(), cs.id(), trialId});
        }
        ++trialId;
      }
      if (spec.processes == 0)
        for (const inject::InjectionRecord& r : recs)
          if (r.haveCare && r.withCare.careRecovered)
            latency.push_back(r.withCare.recoveryUsTotal / 1e3);
      if (round < spec.keptRounds) {
        for (const inject::InjectionRecord& r : recs) countRecord(r, raw);
        kept[i].push_back({s, std::move(recs)});
      }
    }
    const double elapsed = loopSec();
    if (round + 1 >= spec.keptRounds && elapsed >= seconds &&
        (latency.size() >= kMinLatencySamples || elapsed >= 3 * seconds))
      break;
  }
  raw.add("timed_loop_s", loopSec());
  reps.finish();

  if (tr.on()) {
    // The kept campaigns through runCampaign itself: first with the store
    // off (its own trial closure must give the timed path's records), then,
    // on the forked service, against the now-warm store.
    for (const bool warm : {false, true}) {
      if (warm && spec.processes == 0) continue;
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < apps.size(); ++i) {
        for (const KeptCampaign& kc : kept[i]) {
          inject::ServiceConfig svc = service(apps[i], kc.seed);
          if (!warm) svc.storeDir = svc.storeKey = "";
          inject::CampaignTelemetry tel;
          Span cs(tr, warm ? "service.runCampaign.warm_store"
                           : (spec.processes ? "service.runCampaign"
                                             : "engine.runCampaign"));
          const auto recs = inject::runCampaign(
              *apps[i].campaign, static_cast<int>(kc.records.size()),
              kc.seed, kWorkers, &apps[i].artifacts, &tel, &svc);
          for (std::size_t k = 0; k < recs.size(); ++k)
            if (inject::serializeDeterministicRecord(recs[k]) !=
                inject::serializeDeterministicRecord(kc.records[k]))
              raw.fail(apps[i].w->name + ": runCampaign record differs" +
                       (warm ? " (warm store)" : ""));
        }
      }
      if (warm) raw.add("store.warm_ms", msSince(t0));
    }
  }

  // ---- reference oracle: a seeded sample on `ref`, replay off, serial ----
  vm::setDefaultInterp(vm::InterpKind::Ref);
  Rng pick(seed ^ 0x0AC1E5ull);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const App& a = apps[i];
    if (kept[i].empty()) continue; // its campaigns threw; already failed
    inject::Campaign ref(a.image.get(), campaignConfig(spec, seed, 0));
    if (!ref.profile()) {
      raw.fail(a.w->name + ": reference profile failed");
      continue;
    }
    const std::vector<inject::InjectionRecord>& recs = kept[i].front().records;
    for (int k = 0; k < kOracleTrialsPerApp && !recs.empty(); ++k) {
      const inject::InjectionRecord& want = recs[pick.below(recs.size())];
      TrialStamps st;
      const inject::InjectionRecord got =
          runTrial(ref, want.point, &a.artifacts, st);
      if (inject::serializeDeterministicRecord(got) !=
          inject::serializeDeterministicRecord(want))
        raw.fail(a.w->name + ": record differs from the ref interpreter");
    }
  }
  vm::setDefaultInterp(spec.interp);
}

// ------------------------------------------------------ deployed binary --

/// The deployed runs; `reps` (null in the probe) are the setup repetitions
/// to spread over them.
void runDeployedWorkload(std::vector<App>& apps, std::uint64_t seed,
                         double seconds, SetupReps* reps, Tracer& tr,
                         Raw& raw) {
  std::vector<std::vector<double>> runMs(apps.size());
  std::vector<double>& latency = raw.samples["latency_ms"];
  double instrs = 0, runSec = 0;
  std::vector<std::size_t> order(apps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed);
  const Clock::time_point start = Clock::now();
  auto loopSec = [&] {
    return msSince(start) / 1e3 - (reps ? reps->spentSec() : 0.0);
  };
  while (loopSec() < seconds || latency.size() < kMinLatencySamples) {
    Span rs(tr, "bench.round");
    if (reps) reps->between(loopSec(), rs.id());
    const Clock::time_point r0 = Clock::now();
    // The seed orders the apps within each round.
    for (std::size_t k = order.size(); k > 1; --k)
      std::swap(order[k - 1], order[rng.below(k)]);
    for (const std::size_t i : order) {
      const App& a = apps[i];
      std::vector<std::uint64_t> out;
      double ms = 0;
      vm::RunResult rr;
      {
        Step s(tr, "vm.Executor.run", rs.id(), ms);
        rr = deployedRun(a, &out);
      }
      raw.add("ops_attempted", 1);
      if (rr.status != vm::RunStatus::Done ||
          rr.instrCount != a.goldenInstrs || out != a.goldenOutput)
        raw.fail(a.w->name + ": deployed run differs from its first run");
      runMs[i].push_back(ms);
      instrs += static_cast<double>(rr.instrCount);
      runSec += ms / 1e3;
    }
    latency.push_back(msSince(r0));
  }
  raw.add("timed_loop_s", loopSec());
  raw.add("campaign_trials", raw.counters["ops_attempted"]);
  raw.add("campaign_wall_s", loopSec());
  if (reps) reps->finish();
  raw.add("vm.jit_instrs", instrs);
  raw.add("vm.jit_run_s", runSec);
  for (std::vector<double>& v : runMs) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    raw.samples["vm.median_run_ms"].push_back(v[v.size() / 2]);
  }

  // Reference oracle: every app once on `ref`.
  vm::setDefaultInterp(vm::InterpKind::Ref);
  for (const App& a : apps) {
    std::vector<std::uint64_t> out;
    const vm::RunResult rr = deployedRun(a, &out);
    if (rr.status != vm::RunStatus::Done || rr.instrCount != a.goldenInstrs ||
        out != a.goldenOutput)
      raw.fail(a.w->name + ": jit run differs from the ref interpreter");
  }
  vm::setDefaultInterp(vm::InterpKind::Jit);
}

/// The deployed binary's layers (Sentinel pass, native JIT runs) for the
/// table2_jit traced run: deployed_golden itself is too noisy on a shared
/// host to carry bounded metrics, so these layers are measured here too.
void deployedProbe(std::uint64_t seed, const std::string& dir, Raw& raw) {
  const WorkloadSpec spec = specFor("deployed_golden");
  const std::string artDir = dir + "/deployed";
  std::filesystem::create_directories(artDir);
  Tracer off(false);
  SetupTimes t;
  Raw probe;
  std::vector<App> apps;
  for (const workloads::Workload* w : workloads::allWorkloads())
    apps.push_back(buildApp(*w, spec, seed, artDir, off, 0, t, &probe));
  runDeployedWorkload(apps, seed, 2.0, nullptr, off, probe);
  raw.samples["sentinel.instrument_ms"] = {t.sentinel};
  raw.samples["vm.first_run_ms"] = {t.firstRun};
  raw.samples["vm.median_run_ms"] = probe.samples["vm.median_run_ms"];
  for (const char* k : {"sentinel.armed_sites", "sentinel.total_sites",
                        "vm.jit_instrs", "vm.jit_run_s"})
    raw.counters[k] = probe.counters[k];
  for (const std::string& why : probe.failures) raw.fail("deployed: " + why);
}

// ------------------------------------------------------------------ main --

/// Clear every CARE_* variable: the benchmark passes each knob it depends
/// on explicitly, so nothing in the caller's environment can reach the
/// libraries. (CARE_TRACE is read before main; run.py clears it too.)
void clearCareEnv() {
  std::vector<std::string> names;
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("CARE_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

double peakRssMb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: care_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --dir <run dir> --raw <file>\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* k : {"workload", "seed", "seconds", "trace", "dir", "raw"})
    if (!args.count(k)) return usage();

  const std::string buildType = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  if (buildType == "Debug" || !ndebug) {
    std::fprintf(stderr,
                 "care_perfbench: refusing to time a %s build (NDEBUG %s)\n",
                 buildType.c_str(), ndebug ? "on" : "off");
    return 3;
  }
  clearCareEnv();

  try {
    const WorkloadSpec spec = specFor(args["workload"]);
    const std::uint64_t seed = std::stoull(args["seed"]);
    const double seconds = std::stod(args["seconds"]);
    const std::string dir = args["dir"];
    Tracer tr(args["trace"] == "1");
    Raw raw;
    raw.info["workload"] = spec.name;
    raw.info["compiler"] = std::string("g++ ") + __VERSION__;
    raw.info["build_type"] = buildType;
    raw.info["ndebug"] = ndebug ? "1" : "0";
    raw.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
    raw.add("ops_attempted", 0);
    raw.add("ops_failed", 0);
    vm::setDefaultInterp(spec.interp);

    // ---- setup: the first repetition's apps are the ones timed; the other
    // repetitions run spread over the timed loop -------------------------
    const std::string artDir = dir + "/artifacts";
    std::filesystem::create_directories(artDir);
    std::vector<App> apps = setUp(spec, seed, artDir, tr, 0, raw, true);
    SetupReps reps(spec, seed, dir + "/artifacts-reps", seconds, tr, raw);

    if (spec.campaign)
      runCampaignWorkload(spec, apps, seed, seconds, dir, reps, tr, raw);
    else
      runDeployedWorkload(apps, seed, seconds, &reps, tr, raw);

    raw.counters["peak_rss_mb"] = peakRssMb();
    if (tr.on() && spec.name == "table2_jit") deployedProbe(seed, dir, raw);
    if (tr.on()) raw.add("bench.span_cost_ns", spanCostNs());
    writeRaw(args["raw"], raw, tr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "care_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
