// Recovery-kernel execution engine.
//
// The paper dlopen()s the recovery library and invokes kernels via libffi;
// here kernels are CARE-IR functions executed by this interpreter against a
// read-only view of the stalled process's memory. Kernels are straight-line
// address recomputations, but they may call cloned "simple" helper functions
// with real control flow, so this is a complete (side-effect-free) IR
// interpreter: local allocas live in interpreter-private buffers addressed
// from a reserved range; loads hit either those buffers or process memory;
// stores are only legal to local buffers (a kernel must never mutate the
// process it is repairing).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ir/module.hpp"
#include "vm/memory.hpp"

namespace care::core {

/// A raw parameter/result value: integers and pointers as bits, doubles
/// bit-cast. Interpretation is driven by the IR types.
using RawValue = std::uint64_t;

struct KernelResult {
  bool ok = false;
  RawValue value = 0;
  const char* error = nullptr; // static string describing the failure
};

/// Execute `kernel` with `args` (one RawValue per parameter, in order)
/// against `mem`, computing as the machine does (ir/scalar.hpp). Returns
/// the kernel's return value, or failure if the kernel would read unmapped
/// memory, write process memory, trap on a division, or exceed the
/// step/recursion budget.
KernelResult runRecoveryKernel(const ir::Function& kernel,
                               const std::vector<RawValue>& args,
                               const vm::Memory& mem);

} // namespace care::core
