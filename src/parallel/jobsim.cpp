#include "parallel/jobsim.hpp"

#include <atomic>
#include <optional>
#include <barrier>
#include <chrono>
#include <thread>
#include <vector>

#include "support/error.hpp"

namespace care::parallel {

namespace {
using Clock = std::chrono::steady_clock;
} // namespace

double JobSimulator::measureGoldenStepSeconds() {
  vm::Executor ex(image_, baseMem_);
  ex.setBudget(2'000'000'000ull);
  int steps = 0;
  const auto t0 = Clock::now();
  vm::RunResult res = ex.run();
  while (res.status == vm::RunStatus::Yielded) {
    ++steps;
    res = ex.run();
  }
  CARE_ASSERT(res.status == vm::RunStatus::Done,
              "golden parallel workload failed");
  const double total = std::chrono::duration<double>(Clock::now() - t0).count();
  return steps > 0 ? total / steps : total;
}

JobResult JobSimulator::run(const JobConfig& cfg,
                            const inject::InjectionPoint* inj) {
  JobResult out;
  const double stepSec = cfg.workerStepSeconds > 0
                             ? cfg.workerStepSeconds
                             : measureGoldenStepSeconds();

  std::barrier<> bar(cfg.ranks);
  // Termination must be latched to a barrier phase: rank 0 publishes the
  // index of the final phase *before* arriving at it, and workers exit only
  // after completing exactly that phase (a bare "done" flag races — a
  // worker released from phase k could observe a flag set during k+1 and
  // abandon the barrier early, deadlocking everyone else).
  std::atomic<int> lastPhase{-1};
  std::atomic<bool> failed{false};

  const auto t0 = Clock::now();

  // Ranks 1..N-1: compute for a step, then synchronize.
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(cfg.ranks - 1));
  for (int r = 1; r < cfg.ranks; ++r) {
    workers.emplace_back([&] {
      for (int phase = 0;; ++phase) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(stepSec));
        bar.arrive_and_wait();
        if (lastPhase.load(std::memory_order_acquire) == phase) return;
      }
    });
  }

  // Rank 0: the real workload under the VM.
  {
    vm::Executor ex(image_, baseMem_);
    ex.setBudget(2'000'000'000ull);
    core::Safeguard safeguard;
    if (cfg.withCare) {
      for (const auto& [mi, arts] : artifacts_)
        safeguard.addModule(mi, arts);
      safeguard.attach(ex);
    }
    if (inj) {
      out.faultInjected = true;
      ex.armInjection(inj->loc, inj->nth, [&](vm::Executor& e) {
        inject::Campaign::corruptDestination(e, inj->loc, inj->bits);
      });
    }

    // C/R baseline: a real checkpoint of the whole process image, charged
    // with modeled stable-storage I/O time.
    std::optional<vm::Executor::ResumePoint> cp;
    int cpStep = 0;
    auto ioCost = [&](std::uint64_t bytes) {
      return cfg.ioLatencySeconds +
             static_cast<double>(bytes) / cfg.ioBandwidthBytesPerSec;
    };
    auto cpBytes = [&] { return cp->mem.mappedBytes() + sizeof(cp->st); };
    auto takeCheckpoint = [&](int atStep) {
      cp = ex.resumePoint();
      cpStep = atStep;
      out.checkpointBytes = cpBytes();
      const double cost = ioCost(cpBytes());
      out.checkpointSeconds += cost;
      std::this_thread::sleep_for(std::chrono::duration<double>(cost));
    };
    if (cfg.checkpointInterval > 0) takeCheckpoint(0);

    int phase = 0;
    int step = 0; // logical workload step (rewinds on restore)
    for (;;) {
      const vm::RunResult res = ex.run();
      if (res.status == vm::RunStatus::Yielded) {
        ++step;
        out.stepsCompleted = std::max(out.stepsCompleted, step);
        if (cfg.checkpointInterval > 0 &&
            step % cfg.checkpointInterval == 0 && step != cpStep)
          takeCheckpoint(step);
        bar.arrive_and_wait();
        ++phase;
        continue;
      }
      if (res.status == vm::RunStatus::Done) {
        out.completed = true;
      } else if (cfg.checkpointInterval > 0 && cp) {
        // Unrecovered fault with C/R: reload the checkpoint and replay.
        ++out.restarts;
        out.stepsReplayed += step - cpStep;
        const double cost = ioCost(cpBytes());
        out.restartSeconds += cost;
        std::this_thread::sleep_for(std::chrono::duration<double>(cost));
        ex.restoreCheckpoint(*cp);
        step = cpStep;
        continue; // other ranks keep meeting us at the barrier
      } else {
        failed.store(true, std::memory_order_release);
      }
      lastPhase.store(phase, std::memory_order_release);
      bar.arrive_and_wait(); // the published final phase
      break;
    }
    if (cfg.withCare) {
      const core::SafeguardStats& st = safeguard.stats();
      out.safeguardActivations = st.activations;
      out.recovered = st.recovered > 0;
      for (const core::RecoveryRecord& r : st.records)
        out.recoveryUsTotal += r.totalUs;
    }
  }

  for (std::thread& t : workers) t.join();
  out.wallSeconds = std::chrono::duration<double>(Clock::now() - t0).count();
  if (failed.load()) out.completed = false;
  return out;
}

} // namespace care::parallel
