// Textual dump of CARE-IR in an LLVM-flavoured syntax, for people: tests,
// diagnostics and `carecc inspect`. Nothing reads it back; modules are
// stored and loaded with ir/serialize.hpp.
#pragma once

#include <string>

#include "ir/module.hpp"

namespace care::ir {

std::string toString(const Value* v);        // operand-style, e.g. "%t3", "42"
std::string toString(const Instruction* in); // full instruction line
std::string toString(const Function* f);
std::string toString(const Module* m);

} // namespace care::ir
