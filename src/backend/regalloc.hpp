// Linear-scan register allocation + frame lowering + debug-info emission.
//
// Virtual registers get physical registers from the allocatable pools
// (kAllocFirst..kAllocLast / kFAllocFirst..kFAllocLast in mir.hpp);
// intervals that cross a call site are restricted to the callee-saved
// subset (from kCalleeSavedFirst / kFCalleeSavedFirst) or spilled to frame
// slots. Operands are walked through the one operand table (forEachReg).
// This stage also emits the prologue/epilogue, rewrites spilled operands
// through mir.hpp's spill scratches, and produces the two debug-info
// artifacts CARE's runtime consumes: the per-instruction line table and
// DWARF-style variable location lists (VarLoc).
#pragma once

#include "backend/isel.hpp"

namespace care::backend {

/// Consume ISel output, produce the final function (physical registers,
/// prologue/epilogue, line table and variable locations filled in).
MFunction allocateRegisters(ISelResult isel);

/// Lower a whole IR module (ISel + RA for every defined function; globals,
/// externs and the file table copied over).
std::unique_ptr<MModule> lowerModule(const ir::Module& irm);

} // namespace care::backend
