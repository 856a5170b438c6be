// Binary serialization of CARE-IR modules.
//
// The paper ships recovery kernels as a stand-alone shared library that
// Safeguard dlopen()s only when a crash-causing error is detected; here the
// kernel module is serialized to a file with writeModule() and lazily
// deserialized by Safeguard with readModule(). Round-tripping is exact
// (structure, types, names, debug locations, function attributes).
#pragma once

#include <memory>

#include "ir/module.hpp"
#include "support/bytestream.hpp"

namespace care::ir {

/// A type as its kind byte, followed by the pointee's for a pointer. The
/// recovery table (care/recovery_table.cpp) stores parameter types so too.
void writeType(const Type* t, ByteWriter& w);
Type* readType(ByteReader& r);

void writeModule(const Module& m, ByteWriter& w);
std::unique_ptr<Module> readModule(ByteReader& r);

/// File convenience wrappers.
void writeModuleFile(const Module& m, const std::string& path);
std::unique_ptr<Module> readModuleFile(const std::string& path);

} // namespace care::ir
