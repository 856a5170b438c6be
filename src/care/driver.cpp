#include "care/driver.hpp"

#include <chrono>
#include <filesystem>

#include "ir/names.hpp"
#include "ir/serialize.hpp"
#include "ir/verifier.hpp"
#include "lang/compile.hpp"
#include "support/bytestream.hpp"

namespace care::core {

namespace {
using Clock = std::chrono::steady_clock;
double secSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void putLoc(const ir::DebugLoc& loc, ByteWriter& w) {
  w.u32(loc.file);
  w.u32(loc.line);
  w.u32(loc.col);
}

/// Every field of `m`, one by one (never raw struct bytes, whose padding
/// is unspecified), in declaration order.
void putImage(const backend::MModule& m, ByteWriter& w) {
  w.str(m.name);
  w.u32(static_cast<std::uint32_t>(m.functions.size()));
  for (const backend::MFunction& f : m.functions) {
    w.str(f.name);
    w.u32(static_cast<std::uint32_t>(f.code.size()));
    for (const backend::MInst& in : f.code) {
      w.u8(static_cast<std::uint8_t>(in.op));
      w.u8(in.sub);
      w.u8(in.narrow ? 1 : 0);
      w.u16(static_cast<std::uint16_t>(in.dst));
      w.u16(static_cast<std::uint16_t>(in.src1));
      w.u16(static_cast<std::uint16_t>(in.src2));
      w.i64(in.imm);
      w.f64(in.fimm);
      w.u16(static_cast<std::uint16_t>(in.mem.base));
      w.u16(static_cast<std::uint16_t>(in.mem.index));
      w.u8(in.mem.scale);
      w.i64(in.mem.disp);
      w.u32(static_cast<std::uint32_t>(in.mem.globalIdx));
      w.u8(static_cast<std::uint8_t>(in.mem.type));
      w.u32(static_cast<std::uint32_t>(in.target));
      w.u8(in.externCall ? 1 : 0);
      putLoc(in.loc, w);
    }
    w.u32(f.frameSize);
    w.u32(static_cast<std::uint32_t>(f.argTypes.size()));
    for (backend::MType t : f.argTypes) w.u8(static_cast<std::uint8_t>(t));
    w.u8(static_cast<std::uint8_t>(f.retType));
    w.u8(f.hasRet ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(f.lineTable.size()));
    for (const ir::DebugLoc& loc : f.lineTable) putLoc(loc, w);
    w.u32(static_cast<std::uint32_t>(f.varLocs.size()));
    for (const backend::VarLoc& v : f.varLocs) {
      w.str(v.name);
      w.u32(v.beginIdx);
      w.u32(v.endIdx);
      w.u8(static_cast<std::uint8_t>(v.kind));
      w.u32(static_cast<std::uint32_t>(v.regOrOffset));
    }
  }
  w.u32(static_cast<std::uint32_t>(m.globals.size()));
  for (const backend::MGlobal& g : m.globals) {
    w.str(g.name);
    w.u8(static_cast<std::uint8_t>(g.elemType));
    w.u64(g.count);
    w.u32(static_cast<std::uint32_t>(g.init.size()));
    for (double d : g.init) w.f64(d);
  }
  w.u32(static_cast<std::uint32_t>(m.externs.size()));
  for (const std::string& e : m.externs) w.str(e);
  w.u32(static_cast<std::uint32_t>(m.files.size()));
  for (const std::string& f : m.files) w.str(f);
}
} // namespace

CompiledModule careCompile(const std::vector<SourceFile>& sources,
                           const std::string& moduleName,
                           const CompileOptions& opts) {
  CompiledModule out;

  // --- normal compilation (front end + optimizer) --------------------------
  const auto tNormal0 = Clock::now();
  out.irMod = std::make_unique<ir::Module>(moduleName);
  for (const SourceFile& src : sources)
    lang::compileIntoModule(src.content, src.name, *out.irMod);
  ir::verifyOrDie(*out.irMod);
  opt::optimize(*out.irMod, opts.optLevel);
  ir::verifyOrDie(*out.irMod);
  ir::uniquifyNames(*out.irMod);
  out.timings.normalSec = secSince(tNormal0);

  // --- Armor (between optimization and lowering) ---------------------------
  // The image digest hashes the artifact bytes exactly as written.
  Md5 digest;
  if (opts.enableCare) {
    const auto tArmor0 = Clock::now();
    ArmorResult armor = runArmor(*out.irMod, opts.armor);
    ir::verifyOrDie(*armor.kernelModule);
    ByteWriter table, lib;
    armor.table.write(table);
    ir::writeModule(*armor.kernelModule, lib);
    digest.update(table.data().data(), table.size());
    digest.update(lib.data().data(), lib.size());
    // Named by content: builds that differ never overwrite each other's
    // artifacts, whatever knobs produced them.
    const std::string stem = opts.artifactDir + "/" + moduleName + "_" +
                             Md5(digest).finish().hex().substr(0, 12);
    std::filesystem::create_directories(opts.artifactDir);
    out.artifacts.tablePath = stem + ".rtable";
    out.artifacts.libPath = stem + ".rlib";
    table.writeFile(out.artifacts.tablePath);
    lib.writeFile(out.artifacts.libPath);
    out.armorStats = armor.stats;
    out.timings.armorSec = secSince(tArmor0);
  }

  // --- Sentinel detectors (after Armor so instrumentation can't perturb
  // --- the recovery slices; independent of enableCare) ---------------------
  if (opts.armor.detect.any()) {
    const auto tSent0 = Clock::now();
    out.sentinelStats = sentinel::runSentinel(*out.irMod, opts.armor.detect,
                                              opts.armor.detectSample);
    ir::verifyOrDie(*out.irMod);
    out.timings.sentinelSec = secSince(tSent0);
  }

  // --- lowering (still part of "normal compilation" time) ------------------
  const auto tLower0 = Clock::now();
  out.mmod = backend::lowerModule(*out.irMod);
  out.timings.normalSec += secSince(tLower0);

  ByteWriter image;
  putImage(*out.mmod, image);
  digest.update(image.data().data(), image.size());
  out.imageDigest = digest.finish();
  return out;
}

} // namespace care::core
