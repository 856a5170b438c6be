// The one reader of the CARE_* environment.
//
// The libraries read no environment: every knob is a plain config field
// whose default is a constant. Only the edges — carecc, the bench mains and
// the test harness — call readRunEnv() once, apply what it returns to their
// configs, put their own flags or pins on top, and install() the
// process-wide settings. A campaign's record therefore depends only on
// values its caller can see. Each knob has one home: compile knobs in
// core::ArmorOptions, campaign knobs in CampaignConfig (which
// ExperimentConfig embeds), and the run's workers and store in
// ExperimentConfig itself.
//
// Each variable keeps one meaning. Unset or empty leaves the field unset,
// except CARE_DETECT (empty disarms the detectors) and CARE_RESULT_STORE
// (empty turns the store off). A malformed value raises care::Error naming
// the variable.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "care/armor.hpp"
#include "inject/experiment.hpp"

namespace care::inject {

/// A variable's value, or nullptr when it is unset.
using EnvLookup = std::function<const char*(const char* name)>;

/// What the environment set; an empty optional means "not set".
struct RunEnv {
  std::optional<sentinel::DetectOptions> detect;    // CARE_DETECT
  std::optional<pareto::SampleConfig> detectSample; // CARE_DETECT_SAMPLE
  std::optional<core::RecoveryStrategy> recover;    // CARE_RECOVER
  std::optional<FaultModel> fault;                  // CARE_FAULT
  std::optional<vm::EccMode> ecc;                   // CARE_ECC
  std::optional<bool> prune;                        // CARE_PRUNE
  std::optional<int> pruneAudit;                    // CARE_PRUNE_AUDIT
  /// CARE_CKPT_INTERVAL: the replay interval and the rollback spacing.
  std::optional<std::uint64_t> ckptInterval;
  std::optional<int> processes;                     // CARE_PROCS
  std::optional<int> threads;                       // CARE_THREADS
  std::optional<std::string> resultStore;           // CARE_RESULT_STORE
  std::optional<vm::InterpKind> interp;             // CARE_INTERP
  std::optional<std::string> telemetry;             // CARE_TELEMETRY
  std::optional<std::string> trace;                 // CARE_TRACE

  /// Overwrite the fields the environment set: detect and detectSample.
  void apply(core::ArmorOptions& a) const;
  /// recover, fault, ECC, pruning, and the replay and rollback spacing.
  void apply(CampaignConfig& c) const;
  /// Both of the above, on c.armor and c.campaign, plus processes, threads
  /// and the result store.
  void apply(ExperimentConfig& c) const;
  /// Install the process-wide settings the environment set: the default
  /// interpreter backend, tracing and the telemetry sink.
  void install() const;
};

/// Parse every CARE_* variable once through `lookup` (the process
/// environment when empty). Throws care::Error naming the first malformed
/// variable.
RunEnv readRunEnv(const EnvLookup& lookup = {});

} // namespace care::inject
