// careCompile: the "clang + Armor" driver.
//
// Pipeline per module: MiniC parse/codegen -> optimizer (O0/O1) -> Armor
// (recovery kernels + recovery table, serialized to files) -> instruction
// selection + register allocation (MIR with debug info). Timing of the
// normal pipeline and of Armor are reported separately (Table 8).
#pragma once

#include <string>
#include <vector>

#include "backend/regalloc.hpp"
#include "care/armor.hpp"
#include "care/safeguard.hpp"
#include "opt/passes.hpp"
#include "support/md5.hpp"

namespace care::core {

struct SourceFile {
  std::string name;    // debug file name (recovery keys include it)
  std::string content; // MiniC source
};

struct CompileTimings {
  double normalSec = 0;   // parse + codegen + optimize + isel + regalloc
  double armorSec = 0;    // slicing + liveness + kernel emission + serialize
  double sentinelSec = 0; // detector instrumentation (when armed)
};

struct CompiledModule {
  std::unique_ptr<ir::Module> irMod;        // post-optimization IR
  std::unique_ptr<backend::MModule> mmod;   // executable MIR
  ModuleArtifacts artifacts;                // recovery table+library files
  ArmorStats armorStats;
  sentinel::SentinelStats sentinelStats;    // empty unless detectors armed
  CompileTimings timings;
  /// MD5 over what a campaign runs: every MIR field of `mmod` plus the
  /// recovery table and kernel library in `artifacts`. Equal digests mean
  /// identical trials, so it keys the campaign result store
  /// (inject::campaignKey) in place of build names and compile knobs.
  Md5Digest imageDigest;
};

struct CompileOptions {
  opt::OptLevel optLevel = opt::OptLevel::O0;
  bool enableCare = true;      // run Armor and emit artifacts
  ArmorOptions armor;
  /// Directory for the recovery table / library files (created if needed),
  /// named `<module>_<content hash>.rtable` / `.rlib`.
  std::string artifactDir = "care_artifacts";
};

/// Compile `sources` into one module named `moduleName`.
CompiledModule careCompile(const std::vector<SourceFile>& sources,
                           const std::string& moduleName,
                           const CompileOptions& opts);

} // namespace care::core
