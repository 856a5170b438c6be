#include "care/safeguard.hpp"

#include <algorithm>
#include <cstring>

#include "care/kernel_interp.hpp"
#include "ir/serialize.hpp"
#include "support/trace.hpp"
#include "vm/checkpoint_ring.hpp"

namespace care::core {

using backend::LocKind;
using backend::MemRef;
using backend::MFunction;
using backend::MInst;
using backend::VarLoc;
using vm::Trap;
using vm::TrapAction;
using vm::TrapKind;

namespace {

using Clock = std::chrono::steady_clock;

/// Backstop on total rollbacks per Safeguard (the floor already bounds
/// them by the ring size).
constexpr std::uint32_t kMaxRollbacks = 32;

double usSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

} // namespace

const char* failCodeName(FailCode c) {
  switch (c) {
  case FailCode::PcNotInModule: return "pc not in any module";
  case FailCode::ModuleNotCompiled: return "module not CARE-compiled";
  case FailCode::NoDebugLoc: return "no debug location";
  case FailCode::BadDebugFileId: return "bad debug file id";
  case FailCode::ArtifactLoadFailed: return "artifact load failed";
  case FailCode::NoKernelForKey: return "no recovery kernel for key";
  case FailCode::KernelSymbolMissing: return "kernel symbol missing";
  case FailCode::NoMemoryOperand:
    return "faulting instruction has no memory operand";
  case FailCode::GlobalParamMissing: return "global parameter not found";
  case FailCode::ParamUnavailable: return "parameter location unavailable";
  case FailCode::KernelFailed: return "kernel failed";
  case FailCode::SdcGuardTripped:
    return "recomputed address equals faulting address";
  case FailCode::NoPatchableOperand: return "no patchable address operand";
  case FailCode::RecoveryDisabled: return "recovery disabled by strategy";
  case FailCode::NoCheckpointForRollback:
    return "no checkpoint available for rollback";
  case FailCode::RollbackLimitReached: return "rollback limit reached";
  }
  return "?";
}

void Safeguard::addModule(std::int32_t moduleIdx, ModuleArtifacts artifacts) {
  modules_[moduleIdx] = std::move(artifacts);
}

void Safeguard::attach(vm::Executor& ex) {
  ex.setTrapHook([this](vm::Executor& e, const Trap& t) {
    return onTrap(e, t);
  });
}

void Safeguard::pushRecord(RecoveryRecord&& rec) {
  if (stats_.records.size() >= maxRecords_) {
    ++stats_.droppedRecords;
    return;
  }
  stats_.records.push_back(std::move(rec));
}

bool patchAddressOperand(vm::MachineState& st, const MemRef& mem,
                         std::uint64_t gaddr, std::uint64_t newAddr,
                         Safeguard::PatchTarget target) {
  const std::uint64_t baseVal =
      mem.base != backend::kNoReg ? st.g[mem.base] : 0;
  const std::uint64_t indexVal =
      mem.index != backend::kNoReg ? st.g[mem.index] : 0;
  const std::int64_t disp = mem.disp;

  bool patched = false;
  auto patchIndex = [&] {
    // scale == 0 would divide by zero below; treat the operand as
    // index-unpatchable and let the base fallback handle it.
    if (patched || mem.index == backend::kNoReg || mem.scale == 0) return;
    const std::int64_t numer = static_cast<std::int64_t>(
        newAddr - gaddr - baseVal - static_cast<std::uint64_t>(disp));
    if (numer % mem.scale == 0) {
      st.g[mem.index] = static_cast<std::uint64_t>(numer / mem.scale);
      patched = true;
    }
  };
  auto patchBase = [&] {
    if (patched || mem.base == backend::kNoReg ||
        mem.base == backend::kFP || mem.base == backend::kSP)
      return;
    st.g[mem.base] = newAddr - gaddr - indexVal * mem.scale -
                     static_cast<std::uint64_t>(disp);
    patched = true;
  };
  if (target == Safeguard::PatchTarget::IndexFirst) {
    patchIndex();
    patchBase();
  } else {
    patchBase();
    patchIndex();
  }
  return patched;
}

bool Safeguard::tryRepair(vm::Executor& ex, const Trap& trap,
                          RecoveryRecord& rec, Clock::time_point t0) {
  auto failWith = [&](FailCode code, std::string reason) {
    rec.failCode = code;
    rec.failReason = std::move(reason);
    return false;
  };

  // --- phase 1: keying — PC -> module -> (file,line,col) -> MD5 key ------
  const vm::Image& image = *ex.image();
  const vm::CodeLoc loc = image.locate(trap.pc);
  if (!loc.valid())
    return failWith(FailCode::PcNotInModule, "pc not in any module");

  // dladdr step: per-module artifacts (app keyed by absolute PC range,
  // libraries by their own base — both implicit in the module lookup).
  auto ait = modules_.find(loc.module);
  if (ait == modules_.end())
    return failWith(FailCode::ModuleNotCompiled, "module not CARE-compiled");

  const MFunction& fn = image.function(loc);
  // A corrupt or hand-built image may carry a line table shorter than the
  // function body; treat the missing entry as "no debug location" instead
  // of indexing out of range.
  if (loc.instr < 0 ||
      static_cast<std::size_t>(loc.instr) >= fn.lineTable.size())
    return failWith(FailCode::NoDebugLoc, "no debug location");
  const ir::DebugLoc dl =
      fn.lineTable[static_cast<std::size_t>(loc.instr)];
  if (!dl.valid())
    return failWith(FailCode::NoDebugLoc, "no debug location");
  const auto& files = image.module(static_cast<std::size_t>(loc.module))
                          .mod->files;
  if (dl.file == 0 || dl.file > files.size())
    return failWith(FailCode::BadDebugFileId, "bad debug file id");
  const std::uint64_t key =
      recoveryKey(files[dl.file - 1], dl.line, dl.col);
  const auto tKey = Clock::now();
  rec.keyUs = usSince(t0, tKey);
  trace::span("safeguard.key", "safeguard", t0, tKey);

  // --- phase 2: artifact load + kernel lookup ----------------------------
  // (paper: protobuf decode + dlopen happen inside the handler; >98% of
  // recovery time is this preparation). Both are released when the
  // activation ends, trading repeat load cost for the paper's fixed 27 MB
  // memory budget.
  RecoveryTable table;
  std::unique_ptr<ir::Module> lib;
  try {
    table = RecoveryTable::readFile(ait->second.tablePath);
    lib = ir::readModuleFile(ait->second.libPath);
  } catch (const Error&) {
    return failWith(FailCode::ArtifactLoadFailed, "artifact load failed");
  }

  const RecoveryEntry* entry = table.find(key);
  if (!entry)
    return failWith(FailCode::NoKernelForKey, "no recovery kernel for key");
  const ir::Function* kernel = lib->findFunction(entry->symbol);
  if (!kernel)
    return failWith(FailCode::KernelSymbolMissing, "kernel symbol missing");
  const auto tLoad = Clock::now();
  rec.loadUs = usSince(tKey, tLoad);
  trace::span("safeguard.load", "safeguard", tKey, tLoad);

  // --- phase 3: operand disassembly + parameter fetch ---------------------
  // Disassemble the faulting instruction; it must have a memory operand.
  const MInst& inst = image.instruction(loc);
  if (!inst.accessesMemory())
    return failWith(FailCode::NoMemoryOperand,
                    "faulting instruction has no memory operand");
  const MemRef& mem = inst.mem;
  const auto& lm = image.module(static_cast<std::size_t>(loc.module));

  // Fetch kernel arguments from the stalled process.
  vm::MachineState& st = ex.state();
  auto fetchByName = [&](const std::string& name,
                         RawValue& out) -> bool {
    const VarLoc* vl = nullptr;
    for (const VarLoc& cand : fn.varLocs) {
      if (cand.name == name &&
          cand.beginIdx <= static_cast<std::uint32_t>(loc.instr) &&
          static_cast<std::uint32_t>(loc.instr) < cand.endIdx) {
        vl = &cand;
        break;
      }
    }
    if (!vl) return false;
    switch (vl->kind) {
    case LocKind::GReg:
      out = st.g[vl->regOrOffset];
      return true;
    case LocKind::FReg:
      std::memcpy(&out, &st.f[vl->regOrOffset], 8);
      return true;
    case LocKind::FrameSlot: {
      const std::uint64_t addr =
          st.g[backend::kFP] + static_cast<std::int64_t>(vl->regOrOffset);
      return ex.memory().readBytes(addr, &out, 8);
    }
    case LocKind::FrameAddr:
      out = st.g[backend::kFP] + static_cast<std::int64_t>(vl->regOrOffset);
      return true;
    }
    return false;
  };

  std::vector<RawValue> args;
  args.reserve(entry->params.size());
  // Fig. 11 extension: parameters recomputable from a lock-step peer.
  struct AltArg {
    std::size_t index;
    RawValue value;
  };
  std::vector<AltArg> altArgs;
  for (const ParamDesc& p : entry->params) {
    if (p.isGlobal) {
      bool found = false;
      for (std::size_t gi = 0; gi < lm.mod->globals.size(); ++gi) {
        if (lm.mod->globals[gi].name == p.name) {
          args.push_back(lm.globalAddr[gi]);
          found = true;
          break;
        }
      }
      if (!found)
        return failWith(FailCode::GlobalParamMissing,
                        "global parameter not found");
      continue;
    }
    // Pre-compute the induction-variable alternative, if any.
    RawValue altValue = 0;
    bool haveAlt = false;
    if (p.hasIvAlt) {
      RawValue peer;
      std::int64_t recomputed;
      if (fetchByName(p.ivAlt.peerName, peer) &&
          p.ivAlt.recompute(static_cast<std::int64_t>(peer), recomputed)) {
        altValue = static_cast<RawValue>(recomputed);
        haveAlt = true;
      }
    }
    RawValue v;
    if (!fetchByName(p.name, v)) {
      if (haveAlt) {
        // Location lost, but the peer relation reconstructs the value.
        args.push_back(altValue);
        continue;
      }
      // The paper's live-range limitation: the value is not available in
      // any register or stack slot at this PC.
      return failWith(FailCode::ParamUnavailable,
                      "parameter location unavailable: " + p.name);
    }
    if (haveAlt && altValue != v)
      altArgs.push_back({args.size(), altValue});
    args.push_back(v);
  }
  const auto tParam = Clock::now();
  rec.paramUs = usSince(tLoad, tParam);
  trace::span("safeguard.params", "safeguard", tLoad, tParam);

  // --- phase 4: kernel execution (timed separately: Fig. 9 shows its share
  // of recovery time is negligible) incl. the SDC guard and Fig. 11 retries.
  KernelResult kres = runRecoveryKernel(*kernel, args, ex.memory());
  if (!kres.ok) {
    rec.kernelUs = usSince(tParam, Clock::now());
    return failWith(FailCode::KernelFailed,
                    std::string("kernel failed: ") + kres.error);
  }
  std::uint64_t newAddr = kres.value;
  bool usedIvAlt = false;

  // §3.4: if the recomputed address equals the faulting one, the kernel's
  // inputs were contaminated too — declaring non-recoverable here is what
  // guarantees CARE never substitutes an SDC for a crash. The Fig. 11
  // extension adds one more attempt: a contaminated *induction variable*
  // parameter can be recomputed from its lock-step peer and the kernel
  // re-run with the substituted value.
  if (newAddr == trap.addr) {
    for (const AltArg& alt : altArgs) {
      std::vector<RawValue> retryArgs = args;
      retryArgs[alt.index] = alt.value;
      const KernelResult retry =
          runRecoveryKernel(*kernel, retryArgs, ex.memory());
      if (retry.ok && retry.value != trap.addr) {
        newAddr = retry.value;
        usedIvAlt = true;
        break;
      }
    }
    if (!usedIvAlt) {
      rec.kernelUs = usSince(tParam, Clock::now());
      return failWith(FailCode::SdcGuardTripped,
                      "recomputed address equals faulting address");
    }
  }
  const auto tKern = Clock::now();
  rec.kernelUs = usSince(tParam, tKern);
  trace::span("safeguard.kernel", "safeguard", tParam, tKern);

  // --- phase 5: patch the operand -----------------------------------------
  // Prefer the index register (paper's default), fall back to the base
  // register. Never patch the frame/stack pointers.
  const std::uint64_t gaddr =
      mem.globalIdx >= 0
          ? lm.globalAddr[static_cast<std::size_t>(mem.globalIdx)]
          : 0;
  const bool patched =
      patchAddressOperand(st, mem, gaddr, newAddr, patchTarget_);
  const auto tPatch = Clock::now();
  rec.patchUs = usSince(tKern, tPatch);
  trace::span("safeguard.patch", "safeguard", tKern, tPatch);
  if (!patched)
    return failWith(FailCode::NoPatchableOperand,
                    "no patchable address operand");

  rec.usedIvAlt = usedIvAlt;
  rec.patchedAddr = newAddr;
  return true;
}

bool Safeguard::tryRollback(vm::Executor& ex, RecoveryRecord& rec) {
  // repair_then_rollback keeps the (more specific) repair fail code and
  // appends the rollback verdict to the text. Rollback-only records arrive
  // holding the placeholder RecoveryDisabled code ("repair disabled by
  // strategy"); the rollback verdict replaces that code, since no repair
  // was ever attempted.
  auto failWith = [&](FailCode code, const char* reason) {
    if (rec.failReason.empty()) {
      rec.failCode = code;
      rec.failReason = reason;
      return false;
    }
    if (rec.failCode == FailCode::RecoveryDisabled) rec.failCode = code;
    rec.failReason += std::string("; rollback: ") + reason;
    return false;
  };
  const auto t0 = Clock::now();
  if (!ring_)
    return failWith(FailCode::NoCheckpointForRollback,
                    "no checkpoint ring armed");
  if (rollbackCount_ >= kMaxRollbacks)
    return failWith(FailCode::RollbackLimitReached, "rollback limit reached");
  // The floor makes restore targets strictly decrease across activations:
  // a contaminated checkpoint whose re-execution traps again is never
  // retried; the cascade marches toward the pinned entry state.
  const std::uint64_t faultCount = ex.instrCount();
  const std::uint64_t ceiling = std::min(faultCount, rollbackFloor_);
  const vm::Executor::ResumePoint* rp = ring_->latestBefore(ceiling);
  if (!rp)
    return failWith(FailCode::NoCheckpointForRollback,
                    "no checkpoint below the fault");
  const auto tSelect = Clock::now();
  trace::span("safeguard.rollback.select", "safeguard", t0, tSelect);

  rec.rollbackToInstr = rp->instrCount;
  rec.discardedInstrs = faultCount - rp->instrCount;
  rollbackFloor_ = rp->instrCount;
  ++rollbackCount_;
  const std::uint64_t target = rp->instrCount;
  // Output is preserved: emitted values were externalized and cannot be
  // unwound; the re-execution re-emits, and the SDC comparison honestly
  // sees escaped corruption and duplicates (DESIGN.md §4f).
  ex.restoreCheckpoint(*rp, /*preserveOutput=*/true);
  // Checkpoints past the restore target describe the discarded execution
  // (possibly contaminated); dropping them invalidates `rp`, hence the
  // saved `target`.
  ring_->dropAfter(target);
  const auto tEnd = Clock::now();
  rec.rollbackUs = usSince(t0, tEnd);
  trace::span("safeguard.rollback.restore", "safeguard", tSelect, tEnd);
  return true;
}

TrapAction Safeguard::onTrap(vm::Executor& ex, const Trap& trap) {
  // CARE targets invalid-memory-access errors (SIGSEGV); everything else
  // propagates to the default handler (paper §3). ECC-uncorrectable words
  // (DESIGN.md §4i) are the one addition: the kernel-repair path is
  // meaningless for them — the *data* is gone, not an address register —
  // but a rollback strategy can rewind past the strike, so they reach
  // tryRollback() and nothing else.
  const bool eccFault = trap.kind == TrapKind::EccUncorrectable;
  if (trap.kind != TrapKind::SegFault && !eccFault)
    return TrapAction::Propagate;
  if (eccFault && !strategyRollsBack(strategy_)) return TrapAction::Propagate;
  const auto t0 = Clock::now();
  RecoveryRecord rec;
  rec.pc = trap.pc;
  rec.faultAddr = trap.addr;

  bool repaired = false;
  if (eccFault) {
    rec.failCode = FailCode::RecoveryDisabled;
    rec.failReason = "kernel repair not applicable to ECC faults";
  } else if (strategyRepairs(strategy_)) {
    repaired = tryRepair(ex, trap, rec, t0);
  } else {
    rec.failCode = FailCode::RecoveryDisabled;
    rec.failReason = strategy_ == RecoveryStrategy::Rollback
                         ? "repair disabled by strategy"
                         : "recovery disabled by strategy";
  }
  bool rolledBack = false;
  if (!repaired && strategyRollsBack(strategy_))
    rolledBack = tryRollback(ex, rec);

  // --- outcome commit -----------------------------------------------------
  // Every stats_ mutation happens here, after the strategy decision is
  // final. (Previously activations and ivAltRecoveries were bumped
  // mid-flight, before any outcome existed, so an attempt abandoned by a
  // later decision point would have recorded a recovery that never
  // happened; safeguard_test pins the per-strategy invariants.)
  const auto tEnd = Clock::now();
  rec.totalUs = usSince(t0, tEnd);
  trace::span("safeguard.onTrap", "safeguard", t0, tEnd);
  ++stats_.activations;
  if (repaired) {
    rec.recovered = true;
    ++stats_.recovered;
    if (rec.usedIvAlt) ++stats_.ivAltRecoveries;
    trace::counter("safeguard.recovered",
                   static_cast<double>(stats_.recovered));
    pushRecord(std::move(rec));
    return TrapAction::Retry;
  }
  if (rolledBack) {
    rec.rolledBack = true;
    ++stats_.rollbacks;
    trace::counter("safeguard.rollbacks",
                   static_cast<double>(stats_.rollbacks));
    pushRecord(std::move(rec));
    return TrapAction::Retry;
  }
  stats_.failures[failCodeName(rec.failCode)]++;
  trace::instant(failCodeName(rec.failCode), "safeguard.fail");
  pushRecord(std::move(rec));
  return TrapAction::Propagate;
}

} // namespace care::core
