// Armor: CARE's compile-time front end (paper §3.2).
//
// For every memory access instruction whose address involves computation,
// Armor backward-slices the address calculation — stopping at the paper's
// terminal conditions (allocas, globals, arguments, phis / induction
// variables, non-simple calls, and Terminal Values determined by liveness) —
// clones the slice into a *recovery kernel* in a separate module (the
// recovery library), and records how to find and call that kernel in the
// Recovery Table, keyed by the access's (file,line,col) debug tuple.
#pragma once

#include <memory>

#include "care/recovery_table.hpp"
#include "ir/module.hpp"
#include "sentinel/sentinel.hpp"

namespace care::core {

/// Compile-time knobs only: each one changes the compiled image and so its
/// digest. Runtime policy, such as the Safeguard recovery strategy, lives
/// in inject::CampaignConfig.
struct ArmorOptions {
  /// Terminal Value rule: a slice input must be live at the protected access
  /// *and* have a non-local use (guaranteeing machine-level availability).
  /// Disabling drops the non-local-use half (ablation).
  bool requireNonLocalUse = true;
  /// Ablation: slice all the way to the roots, ignoring liveness — the
  /// "aggressively copy all computations" strawman of §3.2.
  bool maximalSlicing = false;
  /// Fig. 11 extension (paper §7 future work): when a kernel parameter is a
  /// simple induction variable with a lock-step peer in the same loop,
  /// record the affine relation so Safeguard can recompute a corrupted
  /// induction variable from its peer.
  bool inductionRecovery = false;
  /// Sentinel detectors (DESIGN.md §4e) to arm between Armor and lowering.
  /// Off by default; golden outputs are unchanged unless armed.
  sentinel::DetectOptions detect;
  /// Sentinel site-sampling layer (DESIGN.md §4j): arm ~1/rate of the
  /// detector sites for the given rotation epoch. Rate 1 (the default) is
  /// byte-identical to unsampled instrumentation. Semantic whenever the
  /// detectors are armed and rate > 1 (image digest, telemetry).
  pareto::SampleConfig detectSample;
  bool detectAuto = false;       // unread; perfbench/ still assigns it
  bool detectSampleAuto = false; // unread; perfbench/ still assigns it
  bool recoverAuto = false;      // unread; perfbench/ still assigns it
};

struct ArmorStats {
  std::size_t memAccesses = 0;     // loads+stores examined
  std::size_t kernelsBuilt = 0;    // Table 8 "Num. of kernels"
  std::size_t kernelInstrs = 0;    // cloned statements (Table 8 avg)
  std::size_t multiOpAccesses = 0; // Table 5: address calc with >1 operation
  std::size_t totalAddrOps = 0;    // Table 5: sum of ops over multiOp accesses
  double avgKernelInstrs() const {
    return kernelsBuilt ? double(kernelInstrs) / double(kernelsBuilt) : 0.0;
  }
};

struct ArmorResult {
  std::unique_ptr<ir::Module> kernelModule; // the "recovery library"
  RecoveryTable table;
  ArmorStats stats;
};

/// Run Armor over `app`. Mutates `app` only by (a) uniquifying value names
/// and (b) assigning synthetic unique debug locations to memory accesses
/// that lack one (the paper's "fake debug data"). Must run after
/// optimization and before instruction selection.
ArmorResult runArmor(ir::Module& app, const ArmorOptions& opts = {});

} // namespace care::core
