#include "backend/regalloc.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "ir/scalar.hpp"
#include "support/error.hpp"

namespace care::backend {

namespace {

struct Interval {
  std::int16_t vreg = kNoReg;
  bool isFP = false;
  std::int32_t begin = -1;
  std::int32_t end = -1;
  bool crossesCall = false;
  // result
  std::int16_t phys = kNoReg;
  std::int32_t spillSlot = -1; // frame offset when spilled
};

} // namespace

MFunction allocateRegisters(ISelResult isel) {
  std::vector<MInst>& code = isel.fn.code;
  const std::size_t n = code.size();
  const std::int16_t numVRegs =
      static_cast<std::int16_t>(isel.vregIsFP.size());

  // ------------------------------------------------------------------
  // 1. Block structure (leaders / successors) for liveness.
  // ------------------------------------------------------------------
  std::set<std::int32_t> leaderSet{0};
  for (std::size_t i = 0; i < n; ++i) {
    if (code[i].isBranch()) {
      leaderSet.insert(code[i].target);
      if (i + 1 < n) leaderSet.insert(static_cast<std::int32_t>(i + 1));
    }
    if (code[i].op == MOp::Ret && i + 1 < n)
      leaderSet.insert(static_cast<std::int32_t>(i + 1));
  }
  std::vector<std::int32_t> leaders(leaderSet.begin(), leaderSet.end());
  const std::size_t numBlocks = leaders.size();
  auto blockOf = [&](std::int32_t idx) {
    auto it = std::upper_bound(leaders.begin(), leaders.end(), idx);
    return static_cast<std::size_t>(it - leaders.begin()) - 1;
  };
  auto blockEnd = [&](std::size_t b) {
    return b + 1 < numBlocks ? leaders[b + 1] : static_cast<std::int32_t>(n);
  };
  std::vector<std::vector<std::size_t>> succs(numBlocks);
  for (std::size_t b = 0; b < numBlocks; ++b) {
    const std::int32_t last = blockEnd(b) - 1;
    if (last < leaders[b]) continue;
    const MInst& t = code[static_cast<std::size_t>(last)];
    if (t.op == MOp::Jmp) {
      succs[b].push_back(blockOf(t.target));
    } else if (t.op == MOp::BrCmp || t.op == MOp::FBrCmp) {
      succs[b].push_back(blockOf(t.target));
      if (last + 1 < static_cast<std::int32_t>(n))
        succs[b].push_back(blockOf(last + 1));
    } else if (t.op != MOp::Ret && t.op != MOp::Abort &&
               last + 1 < static_cast<std::int32_t>(n)) {
      succs[b].push_back(blockOf(last + 1));
    }
  }

  // ------------------------------------------------------------------
  // 2. Liveness of vregs (physical registers are ISel-local, skipped).
  // ------------------------------------------------------------------
  auto isVReg = [](std::int16_t r) { return r >= kFirstVReg; };
  std::vector<std::set<std::int16_t>> liveIn(numBlocks), liveOut(numBlocks);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t b = numBlocks; b-- > 0;) {
      std::set<std::int16_t> out;
      for (std::size_t s : succs[b])
        out.insert(liveIn[s].begin(), liveIn[s].end());
      std::set<std::int16_t> in = out;
      for (std::int32_t i = blockEnd(b) - 1; i >= leaders[b]; --i) {
        const MInst& mi = code[static_cast<std::size_t>(i)];
        forEachReg(mi, [&](std::int16_t r, bool, bool isDef) {
          if (isDef && isVReg(r)) in.erase(r);
        });
        forEachReg(mi, [&](std::int16_t r, bool, bool isDef) {
          if (!isDef && isVReg(r)) in.insert(r);
        });
      }
      if (out != liveOut[b]) { liveOut[b] = std::move(out); changed = true; }
      if (in != liveIn[b]) { liveIn[b] = std::move(in); changed = true; }
    }
  }

  // ------------------------------------------------------------------
  // 3. Conservative single-range intervals.
  // ------------------------------------------------------------------
  std::vector<Interval> ivs(static_cast<std::size_t>(numVRegs));
  for (std::int16_t v = 0; v < numVRegs; ++v) {
    ivs[static_cast<std::size_t>(v)].vreg =
        static_cast<std::int16_t>(kFirstVReg + v);
    ivs[static_cast<std::size_t>(v)].isFP =
        isel.vregIsFP[static_cast<std::size_t>(v)];
  }
  auto extend = [&](std::int16_t vreg, std::int32_t pos) {
    Interval& iv = ivs[static_cast<std::size_t>(vreg - kFirstVReg)];
    if (iv.begin < 0 || pos < iv.begin) iv.begin = pos;
    if (pos > iv.end) iv.end = pos;
  };
  for (std::size_t i = 0; i < n; ++i)
    forEachReg(code[i], [&](std::int16_t r, bool, bool) {
      if (isVReg(r)) extend(r, static_cast<std::int32_t>(i));
    });
  for (std::size_t b = 0; b < numBlocks; ++b) {
    for (std::int16_t v : liveIn[b]) extend(v, leaders[b]);
    for (std::int16_t v : liveOut[b]) extend(v, blockEnd(b) - 1);
  }
  for (std::uint32_t cp : isel.callPositions) {
    for (Interval& iv : ivs) {
      if (iv.begin < 0) continue;
      if (iv.begin < static_cast<std::int32_t>(cp) &&
          static_cast<std::int32_t>(cp) < iv.end)
        iv.crossesCall = true;
    }
  }

  // ------------------------------------------------------------------
  // 4. Linear scan.
  // ------------------------------------------------------------------
  std::uint32_t spillBytes = 0;
  auto newSpillSlot = [&]() {
    spillBytes += 8;
    return -static_cast<std::int32_t>(isel.allocaBytes + spillBytes);
  };

  std::set<std::int16_t> usedCalleeSaved; // both classes; fp offset +100
  {
    std::vector<Interval*> order;
    for (Interval& iv : ivs)
      if (iv.begin >= 0) order.push_back(&iv);
    std::sort(order.begin(), order.end(), [](const Interval* a,
                                             const Interval* b) {
      return a->begin < b->begin;
    });

    std::vector<Interval*> active;
    std::set<std::int16_t> freeInt, freeFP;
    for (std::int16_t r = kAllocFirst; r <= kAllocLast; ++r) freeInt.insert(r);
    for (std::int16_t r = kFAllocFirst; r <= kFAllocLast; ++r) freeFP.insert(r);

    for (Interval* iv : order) {
      // Expire finished intervals.
      for (std::size_t a = 0; a < active.size();) {
        if (active[a]->end < iv->begin) {
          if (active[a]->phys != kNoReg) {
            (active[a]->isFP ? freeFP : freeInt).insert(active[a]->phys);
          }
          active.erase(active.begin() + static_cast<std::ptrdiff_t>(a));
        } else {
          ++a;
        }
      }
      auto& freeSet = iv->isFP ? freeFP : freeInt;
      const std::int16_t csFirst = iv->isFP
          ? static_cast<std::int16_t>(kFCalleeSavedFirst)
          : static_cast<std::int16_t>(kCalleeSavedFirst);
      std::int16_t chosen = kNoReg;
      if (iv->crossesCall) {
        for (std::int16_t r : freeSet)
          if (r >= csFirst) { chosen = r; break; }
      } else {
        // Prefer caller-saved to keep callee-saved (and their prologue
        // traffic) for intervals that need them.
        for (std::int16_t r : freeSet)
          if (r < csFirst) { chosen = r; break; }
        if (chosen == kNoReg && !freeSet.empty()) chosen = *freeSet.begin();
      }
      if (chosen != kNoReg) {
        freeSet.erase(chosen);
        iv->phys = chosen;
        active.push_back(iv);
        if (chosen >= csFirst)
          usedCalleeSaved.insert(
              static_cast<std::int16_t>(iv->isFP ? chosen + 100 : chosen));
      } else {
        iv->spillSlot = newSpillSlot();
      }
    }
  }

  // Frame slots for callee-saved registers we clobber.
  std::map<std::int16_t, std::int32_t> csSlot;
  std::uint32_t csBytes = 0;
  for (std::int16_t key : usedCalleeSaved) {
    csBytes += 8;
    csSlot[key] =
        -static_cast<std::int32_t>(isel.allocaBytes + spillBytes + csBytes);
  }
  const std::uint32_t frameSize =
      (isel.allocaBytes + spillBytes + csBytes + 15) & ~15u;

  // ------------------------------------------------------------------
  // 5. Rewrite: prologue, spill loads/stores, epilogues, target fixup.
  // ------------------------------------------------------------------
  auto physOf = [&](std::int16_t r) -> const Interval* {
    if (!isVReg(r)) return nullptr;
    return &ivs[static_cast<std::size_t>(r - kFirstVReg)];
  };

  MFunction out;
  out.name = isel.fn.name;
  out.argTypes = isel.fn.argTypes;
  out.retType = isel.fn.retType;
  out.hasRet = isel.fn.hasRet;
  out.frameSize = frameSize;
  std::vector<MInst>& nc = out.code;

  auto put = [&](MInst in, DebugLoc loc) {
    in.loc = loc;
    nc.push_back(in);
  };
  auto frameSlot = [&](MOp op, std::int16_t reg, bool fp, std::int32_t off,
                       DebugLoc loc) {
    put(slotAccess(op, reg, fp, kFP, off), loc);
  };
  auto saveRestore = [&](MOp op, DebugLoc loc) {
    for (const auto& [key, off] : csSlot) {
      const bool fp = key >= 100;
      frameSlot(op, static_cast<std::int16_t>(fp ? key - 100 : key), fp, off,
                loc);
    }
  };

  const DebugLoc entryLoc = n > 0 ? code[0].loc : DebugLoc{};
  // Prologue: push rbp; mov rbp, rsp; sub rsp, frame; save callee-saved.
  put(adjustSP(-8), entryLoc);
  put(slotAccess(MOp::Store, kFP, false, kSP, 0), entryLoc);
  put(copyReg(kFP, kSP, false), entryLoc);
  if (frameSize > 0)
    put(adjustSP(-static_cast<std::int64_t>(frameSize)), entryLoc);
  saveRestore(MOp::Store, entryLoc);

  std::vector<std::int32_t> indexMap(n, -1);
  std::vector<std::size_t> branchSites;

  for (std::size_t i = 0; i < n; ++i) {
    indexMap[i] = static_cast<std::int32_t>(nc.size());
    MInst in = code[i];
    const DebugLoc loc = in.loc;

    if (in.op == MOp::Ret) {
      // Epilogue: restore callee-saved, tear down the frame, return.
      saveRestore(MOp::Load, loc);
      put(copyReg(kSP, kFP, false), loc);
      put(slotAccess(MOp::Load, kFP, false, kSP, 0), loc);
      put(adjustSP(8), loc);
      put(in, loc);
      continue;
    }

    // Spilled uses load into the scratches in use order (int: r15, r12,
    // r5; FP: f15, f14); a spilled def goes through r15 / f15 and is
    // stored back after the instruction. A def sharing a use's scratch is
    // fine: every MIR instruction reads before it writes.
    static constexpr std::int16_t kIntScratch[] = {kScratch, kScratch2,
                                                   kScratch3};
    static constexpr std::int16_t kFPScratch[] = {kFScratch, kFScratch2};
    std::size_t intScratchUsed = 0, fpScratchUsed = 0;
    std::int16_t dstScratch = kNoReg;
    std::int32_t dstSpillOff = 0;
    bool dstFP = false;
    forEachReg(in, [&](std::int16_t& slot, bool fp, bool isDef) {
      const Interval* iv = physOf(slot);
      if (!iv) return;
      if (iv->phys != kNoReg) {
        slot = iv->phys;
      } else if (isDef) {
        dstFP = fp;
        dstScratch = (fp ? kFPScratch : kIntScratch)[0];
        dstSpillOff = iv->spillSlot;
        slot = dstScratch;
      } else {
        std::size_t& used = fp ? fpScratchUsed : intScratchUsed;
        CARE_ASSERT(used < (fp ? std::size(kFPScratch)
                               : std::size(kIntScratch)),
                    "too many spilled operands");
        slot = fp ? kFPScratch[used] : kIntScratch[used];
        ++used;
        frameSlot(MOp::Load, slot, fp, iv->spillSlot, loc);
      }
    });
    put(in, loc);
    if (in.isBranch()) branchSites.push_back(nc.size() - 1);
    if (dstScratch != kNoReg)
      frameSlot(MOp::Store, dstScratch, dstFP, dstSpillOff, loc);
  }

  // Fix branch targets through the index map.
  for (std::size_t site : branchSites) {
    MInst& br = nc[site];
    CARE_ASSERT(br.target >= 0 &&
                    static_cast<std::size_t>(br.target) < indexMap.size(),
                "branch target out of range");
    br.target = indexMap[static_cast<std::size_t>(br.target)];
  }

  // ------------------------------------------------------------------
  // 6. Debug info: line table + variable locations.
  // ------------------------------------------------------------------
  out.lineTable.reserve(nc.size());
  for (const MInst& in : nc) out.lineTable.push_back(in.loc);

  for (const auto& [name, vreg] : isel.namedVRegs) {
    const Interval& iv = ivs[static_cast<std::size_t>(vreg - kFirstVReg)];
    if (iv.begin < 0) continue; // never materialized
    VarLoc vl;
    vl.name = name;
    vl.beginIdx = static_cast<std::uint32_t>(
        indexMap[static_cast<std::size_t>(iv.begin)]);
    vl.endIdx = static_cast<std::uint32_t>(
        iv.end + 1 < static_cast<std::int32_t>(n)
            ? indexMap[static_cast<std::size_t>(iv.end + 1)]
            : static_cast<std::int32_t>(nc.size()));
    if (iv.phys != kNoReg) {
      vl.kind = iv.isFP ? LocKind::FReg : LocKind::GReg;
      vl.regOrOffset = iv.phys;
    } else {
      vl.kind = LocKind::FrameSlot;
      vl.regOrOffset = iv.spillSlot;
    }
    out.varLocs.push_back(std::move(vl));
  }
  // Allocas: their IR value is the slot's address (fp + offset), valid for
  // the whole function body.
  for (const auto& [name, off] : isel.allocaOffsets) {
    VarLoc vl;
    vl.name = name;
    vl.beginIdx = 0;
    vl.endIdx = static_cast<std::uint32_t>(nc.size());
    vl.kind = LocKind::FrameAddr;
    vl.regOrOffset = static_cast<std::int32_t>(off);
    out.varLocs.push_back(std::move(vl));
  }

  return out;
}

std::unique_ptr<MModule> lowerModule(const ir::Module& irm) {
  auto mm = std::make_unique<MModule>();
  mm->name = irm.name();

  ModuleLowering ml;
  ml.irModule = &irm;

  // Globals.
  for (std::size_t i = 0; i < irm.numGlobals(); ++i) {
    const ir::GlobalVariable* g = irm.global(i);
    ml.globalIndex[g] = static_cast<std::int32_t>(i);
    MGlobal mg;
    mg.name = g->name();
    mg.elemType = mtypeFor(g->elemType());
    mg.count = g->count();
    mg.init = g->init();
    mm->globals.push_back(std::move(mg));
  }

  // Function and extern tables. Intrinsics and runtime services are lowered
  // to dedicated MIR ops and need no entry.
  for (const ir::Function* f : irm) {
    if (f->isIntrinsic() || ir::runtimeFnByName(f->name())) continue;
    const std::string& nm = f->name();
    if (f->isDeclaration()) {
      ml.externIndex[f] = static_cast<std::int32_t>(mm->externs.size());
      mm->externs.push_back(nm);
    } else {
      ml.funcIndex[f] = static_cast<std::int32_t>(mm->functions.size());
      mm->functions.emplace_back(); // reserve the slot; filled below
      mm->functions.back().name = nm;
    }
  }

  for (const ir::Function* f : irm) {
    auto it = ml.funcIndex.find(f);
    if (it == ml.funcIndex.end()) continue;
    ISelResult isel = selectInstructions(*f, ml);
    mm->functions[static_cast<std::size_t>(it->second)] =
        allocateRegisters(std::move(isel));
  }

  for (std::uint32_t i = 1; i <= irm.numFiles(); ++i)
    mm->files.push_back(irm.fileName(i));

  return mm;
}

} // namespace care::backend
