#include "vm/loader.hpp"

#include "support/error.hpp"
#include "vm/decode.hpp"
#include "vm/jit.hpp"

namespace care::vm {

using backend::MModule;

Image::Image() = default;
Image::~Image() = default;

const DecodedImage& Image::decoded() const {
  std::call_once(decodeOnce_, [this] {
    decoded_ = std::make_unique<const DecodedImage>(decodeImage(*this));
  });
  return *decoded_;
}

JitImage& Image::jit() const {
  std::call_once(jitOnce_, [this] {
    jit_ = std::make_unique<JitImage>(*this);
  });
  return *jit_;
}

std::int32_t Image::load(const MModule* mod) {
  LoadedModule lm;
  lm.mod = mod;
  lm.isLibrary = !modules_.empty();
  const std::size_t idx = modules_.size();
  lm.codeBase = lm.isLibrary
                    ? kLibBase + (static_cast<std::uint64_t>(idx) - 1) *
                                     kLibStride
                    : kAppCodeBase;

  std::uint64_t cursor = lm.codeBase;
  for (const backend::MFunction& f : mod->functions) {
    lm.funcBase.push_back(cursor);
    cursor += f.code.size() * 4;
    cursor = (cursor + 15) & ~15ull; // align next function
  }
  lm.codeEnd = cursor;

  // Global addresses: each on its own page(s) plus one guard page, so that
  // a corrupted index overshooting an array faults instead of corrupting a
  // neighbouring array.
  std::uint64_t data = lm.isLibrary ? lm.codeBase + kLibDataOff : kAppDataBase;
  for (const backend::MGlobal& g : mod->globals) {
    lm.globalAddr.push_back(data);
    const std::uint64_t bytes = g.count * backend::mtypeSize(g.elemType);
    const std::uint64_t pages =
        (bytes + Memory::kPageSize - 1) / Memory::kPageSize;
    data += (pages + 1) * Memory::kPageSize; // +1 guard page
  }

  modules_.push_back(std::move(lm));
  return static_cast<std::int32_t>(idx);
}

void Image::link() {
  for (LoadedModule& lm : modules_) {
    lm.externTargets.clear();
    for (const std::string& name : lm.mod->externs) {
      FuncRef target = findFunction(name);
      if (!target.valid()) raise("unresolved extern: " + name);
      lm.externTargets.push_back(target);
    }
  }
  main_ = findFunction("main");
}

FuncRef Image::findFunction(const std::string& name) const {
  for (std::size_t m = 0; m < modules_.size(); ++m) {
    const auto& fns = modules_[m].mod->functions;
    for (std::size_t f = 0; f < fns.size(); ++f)
      if (fns[f].name == name)
        return {static_cast<std::int32_t>(m), static_cast<std::int32_t>(f)};
  }
  return {};
}

CodeLoc Image::locate(std::uint64_t pc) const {
  for (std::size_t m = 0; m < modules_.size(); ++m) {
    const LoadedModule& lm = modules_[m];
    if (pc < lm.codeBase || pc >= lm.codeEnd) continue;
    // Binary search over function bases.
    const auto& fb = lm.funcBase;
    std::size_t lo = 0, hi = fb.size();
    while (lo + 1 < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (fb[mid] <= pc) lo = mid;
      else hi = mid;
    }
    const backend::MFunction& fn = lm.mod->functions[lo];
    const std::uint64_t off = pc - fb[lo];
    if (off % 4 != 0) return {};
    const std::uint64_t idx = off / 4;
    if (idx >= fn.code.size()) return {};
    return {static_cast<std::int32_t>(m), static_cast<std::int32_t>(lo),
            static_cast<std::int32_t>(idx)};
  }
  return {};
}

std::uint64_t Image::pcOf(std::int32_t module, std::int32_t func,
                          std::int32_t instr) const {
  const LoadedModule& lm = modules_[static_cast<std::size_t>(module)];
  return lm.funcBase[static_cast<std::size_t>(func)] +
         4ull * static_cast<std::uint64_t>(instr);
}

const backend::MFunction& Image::function(const CodeLoc& loc) const {
  return modules_[static_cast<std::size_t>(loc.module)]
      .mod->functions[static_cast<std::size_t>(loc.func)];
}

const backend::MInst& Image::instruction(const CodeLoc& loc) const {
  return function(loc).code[static_cast<std::size_t>(loc.instr)];
}

std::uint64_t Image::initMemory(Memory& mem) const {
  for (const LoadedModule& lm : modules_) {
    for (std::size_t g = 0; g < lm.mod->globals.size(); ++g) {
      const backend::MGlobal& mg = lm.mod->globals[g];
      const std::uint64_t addr = lm.globalAddr[g];
      const unsigned esz = backend::mtypeSize(mg.elemType);
      mem.map(addr, mg.count * esz);
      if (mg.init.empty()) continue;
      for (std::size_t i = 0; i < mg.init.size() && i < mg.count; ++i) {
        const double v = mg.init[i];
        switch (mg.elemType) {
        case backend::MType::F64:
          mem.storeF(addr + i * 8, backend::MType::F64, v);
          break;
        case backend::MType::F32:
          mem.storeF(addr + i * 4, backend::MType::F32, v);
          break;
        case backend::MType::I64:
          mem.store(addr + i * 8, backend::MType::I64,
                    static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
          break;
        case backend::MType::I32:
          mem.store(addr + i * 4, backend::MType::I32,
                    static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
          break;
        case backend::MType::I8:
          mem.store(addr + i, backend::MType::I8,
                    static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
          break;
        }
      }
    }
  }
  mem.map(kStackTop - kStackSize, kStackSize);
  return kStackTop;
}

} // namespace care::vm
