// Shared helpers for CARE tests: compile MiniC to an executable image and
// run it, at a chosen optimization level.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "backend/regalloc.hpp"
#include "inject/run_env.hpp"
#include "ir/verifier.hpp"
#include "lang/compile.hpp"
#include "opt/passes.hpp"
#include "vm/executor.hpp"

namespace care::test {

/// The CARE_* environment, read once by the harness (test_main.cpp).
/// Tests that follow the CI env legs apply it to their configs first and
/// set what they pin afterwards.
const inject::RunEnv& runEnv();

/// The engine of a direct runCampaign call that follows the CI env legs:
/// `threads` in-process workers, or CARE_PROCS forked ones; store off.
inline inject::ServiceConfig envService(int threads) {
  inject::ServiceConfig s;
  s.processes = runEnv().processes.value_or(0);
  s.threads = threads;
  return s;
}

struct Program {
  std::unique_ptr<ir::Module> irMod;
  std::unique_ptr<backend::MModule> mMod;
  std::unique_ptr<vm::Image> image;
};

inline Program buildProgram(const std::string& source, opt::OptLevel level,
                            const std::string& name = "test") {
  Program p;
  p.irMod = std::make_unique<ir::Module>(name);
  lang::compileIntoModule(source, name + ".c", *p.irMod);
  ir::verifyOrDie(*p.irMod);
  opt::optimize(*p.irMod, level);
  ir::verifyOrDie(*p.irMod);
  p.mMod = backend::lowerModule(*p.irMod);
  p.image = std::make_unique<vm::Image>();
  p.image->load(p.mMod.get());
  p.image->link();
  return p;
}

struct RunOutput {
  vm::RunResult result;
  std::vector<std::uint64_t> output;
};

inline RunOutput runProgram(const Program& p,
                            std::uint64_t budget = 200'000'000) {
  vm::Executor ex(p.image.get());
  ex.setBudget(budget);
  RunOutput out;
  out.result = vm::runToCompletion(ex);
  out.output = ex.output();
  return out;
}

inline RunOutput compileAndRun(const std::string& source, opt::OptLevel level) {
  const Program p = buildProgram(source, level);
  return runProgram(p);
}

/// The aligned words mapped in `before` that hold another value in
/// `after`, in address order: words a run between them wrote.
inline std::vector<std::uint64_t>
changedWords(const vm::MemorySnapshot& before,
             const vm::MemorySnapshot& after) {
  std::vector<std::uint64_t> out;
  for (const std::uint64_t page : before.pageNumbers())
    for (std::uint64_t w = page * vm::Memory::kPageSize;
         w < (page + 1) * vm::Memory::kPageSize; w += 8)
      if (before.readWord(w) != after.readWord(w)) out.push_back(w);
  return out;
}

inline double bitsToDouble(std::uint64_t bits) {
  double d;
  __builtin_memcpy(&d, &bits, 8);
  return d;
}

} // namespace care::test
