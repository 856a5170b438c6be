// Multi-rank parallel-job simulator (paper §5.4, Fig. 10).
//
// Models an MPI job in lock-step: rank 0 executes the real workload in the
// VM (optionally with a fault injected and Safeguard attached), every other
// rank is a thread that "computes" for the golden per-step duration and
// meets rank 0 at a std::barrier — the end-of-timestep synchronization the
// workload's mpi_barrier() calls yield at. Because CARE repairs a fault in
// tens of microseconds of simulated-host time, rank 0 still reaches the
// barrier on time and the job completes with no visible delay; an
// unrecovered fault kills the whole job, which is what the C/R comparison
// (CheckpointModel) prices.
#pragma once

#include <cstdint>
#include <map>

#include "care/safeguard.hpp"
#include "inject/injector.hpp"

namespace care::parallel {

struct JobConfig {
  int ranks = 64;          // simulated processes (threads)
  int threadsPerRank = 6;  // modeled only; reported as core count
  bool withCare = true;
  /// Per-step compute time for non-zero ranks; <=0 means "measure rank 0's
  /// golden per-step time first and use that".
  double workerStepSeconds = -1;

  // --- checkpoint/restart baseline (real implementation, not a model) -----
  /// Steps between checkpoints; 0 disables C/R. With C/R enabled, an
  /// unrecovered fault rolls rank 0 back to the last checkpoint and replays
  /// the lost steps instead of killing the job.
  int checkpointInterval = 0;
  /// Modeled stable-storage performance for checkpoint I/O: each write and
  /// each restart read costs latency + bytes/bandwidth of wall time.
  double ioBandwidthBytesPerSec = 200e6;
  double ioLatencySeconds = 0.010;
};

struct JobResult {
  bool completed = false;       // job finished (no unrecovered fault)
  double wallSeconds = 0;       // whole-job wall time
  int stepsCompleted = 0;       // barriers rank 0 reached
  bool faultInjected = false;
  bool recovered = false;       // Safeguard repaired at least one fault
  std::uint64_t safeguardActivations = 0;
  double recoveryUsTotal = 0;
  // C/R accounting:
  int restarts = 0;             // restore-from-checkpoint events
  int stepsReplayed = 0;        // work re-executed after restores
  double checkpointSeconds = 0; // I/O time spent writing checkpoints
  double restartSeconds = 0;    // I/O time spent reloading state
  std::uint64_t checkpointBytes = 0;
};

class JobSimulator {
public:
  JobSimulator(const vm::Image* image,
               std::map<std::int32_t, core::ModuleArtifacts> artifacts)
      : image_(image), artifacts_(std::move(artifacts)) {
    vm::Memory base;
    image_->initMemory(base);
    baseMem_ = vm::MemorySnapshot::capture(base);
  }

  /// Measure the fault-free per-step wall time of rank 0's workload.
  double measureGoldenStepSeconds();

  /// Run one job. `inj` (optional) is injected into rank 0.
  JobResult run(const JobConfig& cfg,
                const inject::InjectionPoint* inj = nullptr);

private:
  const vm::Image* image_;
  std::map<std::int32_t, core::ModuleArtifacts> artifacts_;
  /// Post-initMemory image, captured once; each simulated job CoW-forks it.
  vm::MemorySnapshot baseMem_;
};

/// Analytical checkpoint/restart cost model used for the paper's §5.4
/// comparison: recovering via C/R costs a restart load plus re-execution of
/// the work lost since the last checkpoint (interval/2 steps on average),
/// versus CARE's tens of milliseconds.
struct CheckpointModel {
  double stepSeconds = 0;          // measured per-timestep cost
  double restartLoadSeconds = 10;  // checkpoint read + job relaunch
  double checkpointWriteSeconds = 2;

  /// Mean time to recover from a failure with checkpoints every `interval`
  /// steps (uniform failure point).
  double avgRecoverySeconds(int interval) const {
    return restartLoadSeconds + 0.5 * interval * stepSeconds;
  }
  /// Amortized checkpointing overhead added to every step.
  double overheadPerStep(int interval) const {
    return checkpointWriteSeconds / interval;
  }
};

} // namespace care::parallel
