// Sentinel: compiler-inserted soft-error detectors (DESIGN.md §4e).
//
// CARE's Safeguard can only repair faults that *manifest* as traps; the §5.1
// campaigns still classify many injections as SDC or Hang because the
// corrupted value never touches an unmapped page. Sentinel closes part of
// that gap with two opt-in IR instrumentation passes that convert silent
// corruptions into a dedicated trap the runtime can attribute:
//
//  * CFC  — CFCSS-style control-flow signatures. Every basic block gets a
//    compile-time signature; a per-function signature cell is updated with
//    XOR differences at block entry (with a run-time adjusting value for
//    branch-fan-in blocks) and compared against the expected constant at
//    function exits and loop back-edges. A mismatch reaches the trap block.
//  * ADDR — PRESAGE-style address-chain duplication. For each protected
//    load/store, the backward address slice Armor already knows how to
//    compute is cloned inline as a shadow chain (loads/phis stay shared
//    terminals; nothing is re-executed against memory) and the shadow
//    effective address is compared against the original just before the
//    access.
//
// Both passes run after optimization and after Armor, right before
// instruction selection, and only when explicitly armed (ArmorOptions /
// carecc --detect / CARE_DETECT) — with detectors off, compiled modules are
// bit-identical to pre-Sentinel builds. The trap path is a call to
// `__sentinel_trap`, lowered to a dedicated MIR op that raises
// vm::TrapKind::Sentinel so the injection classifier can tell detector
// aborts from assert-driven ones.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ir/module.hpp"
#include "pareto/sample.hpp"

namespace care::sentinel {

/// Which detectors to arm.
struct DetectOptions {
  bool cfc = false;  // control-flow signature checking
  bool addr = false; // address-chain duplication
  bool any() const { return cfc || addr; }
  bool operator==(const DetectOptions&) const = default;
};

/// Parse a --detect / CARE_DETECT spec: a comma-separated list of
/// `cfc` / `addr` / `all`, or `none` / `off` / the empty string for no
/// detectors. Raises on unknown tokens.
DetectOptions parseDetect(const std::string& spec);

/// Per-function instrumentation statistics (reported by `carecc inspect`).
struct FunctionSentinelStats {
  std::string function;
  std::size_t signatureBlocks = 0; // CFC: blocks carrying signature updates
  std::size_t signatureChecks = 0; // CFC: compare sites (exits + back-edges)
  std::size_t shadowChains = 0;    // ADDR: protected accesses
  std::size_t shadowInstrs = 0;    // ADDR: cloned address instructions
  std::size_t addedInstrs = 0;     // instruction count after minus before
  // Sampling-layer site accounting (DESIGN.md §4j). A "site" is a unit the
  // sampler can arm independently: the whole function for CFC (signature
  // schemes need every block participating), one protectable access for
  // ADDR. Unsampled builds arm every site, so armed == total there.
  std::size_t cfcSites = 0;        // 0 or 1: function is CFC-protectable
  std::size_t cfcArmed = 0;        // CFC actually instrumented here
  std::size_t addrSites = 0;       // accesses with a duplicable chain
  std::size_t addrArmed = 0;       // accesses actually instrumented
};

struct SentinelStats {
  std::vector<FunctionSentinelStats> functions;

  std::size_t signatureBlocks() const { return sum(&FunctionSentinelStats::signatureBlocks); }
  std::size_t signatureChecks() const { return sum(&FunctionSentinelStats::signatureChecks); }
  std::size_t shadowChains() const { return sum(&FunctionSentinelStats::shadowChains); }
  std::size_t shadowInstrs() const { return sum(&FunctionSentinelStats::shadowInstrs); }
  std::size_t addedInstrs() const { return sum(&FunctionSentinelStats::addedInstrs); }
  std::size_t totalSites() const {
    return sum(&FunctionSentinelStats::cfcSites) +
           sum(&FunctionSentinelStats::addrSites);
  }
  std::size_t armedSites() const {
    return sum(&FunctionSentinelStats::cfcArmed) +
           sum(&FunctionSentinelStats::addrArmed);
  }

private:
  std::size_t sum(std::size_t FunctionSentinelStats::* field) const {
    std::size_t n = 0;
    for (const auto& f : functions) n += f.*field;
    return n;
  }
};

/// Instrument every defined function in `m` with the armed detectors.
/// Mutates the module in place (new blocks, instructions, and the
/// `__sentinel_trap` declaration); callers should re-verify afterwards.
/// Must run after optimization and after Armor (Sentinel adds code, never
/// renames, so Armor's recovery-table name linkage is preserved), and
/// before instruction selection.
///
/// `sample` is the pareto site-sampling layer (DESIGN.md §4j): with the
/// default rate-1 config every site is armed and the output is
/// byte-identical to the pre-sampling pass; with rate N only the sites
/// whose slot matches the epoch are instrumented — unarmed sites cost
/// nothing and detect nothing, and the armed sets of N consecutive epochs
/// partition the full site population.
SentinelStats runSentinel(ir::Module& m, const DetectOptions& opts,
                          const pareto::SampleConfig& sample = {});

} // namespace care::sentinel
