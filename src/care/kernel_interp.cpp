#include "care/kernel_interp.hpp"

#include <cstring>
#include <map>

#include "backend/mir.hpp" // mtypeFor
#include "ir/scalar.hpp"
#include "support/error.hpp"

namespace care::core {

namespace {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Type;
using ir::Value;

/// Local alloca buffers are addressed from this reserved range, far outside
/// anything the loader maps.
constexpr std::uint64_t kLocalBase = 0xCA7E000000000000ull;

constexpr std::size_t kMaxSteps = 100000;
constexpr int kMaxDepth = 32;

struct Interp {
  const vm::Memory& mem;
  std::size_t steps = 0;
  const char* error = nullptr;

  // Local memory: base address -> buffer.
  std::map<std::uint64_t, std::vector<std::uint8_t>> locals;
  std::uint64_t nextLocal = kLocalBase;

  explicit Interp(const vm::Memory& m) : mem(m) {}

  bool isLocal(std::uint64_t addr) const { return addr >= kLocalBase; }

  std::uint8_t* localPtr(std::uint64_t addr, unsigned size) {
    auto it = locals.upper_bound(addr);
    if (it == locals.begin()) return nullptr;
    --it;
    const std::uint64_t off = addr - it->first;
    if (off + size > it->second.size()) return nullptr;
    return it->second.data() + off;
  }

  bool loadValue(std::uint64_t addr, Type* type, RawValue& out) {
    const unsigned size = type->sizeBytes();
    if (isLocal(addr)) {
      const std::uint8_t* p = localPtr(addr, size);
      if (!p) { error = "kernel read outside local buffer"; return false; }
      std::uint64_t raw = 0;
      std::memcpy(&raw, p, size);
      out = normalizeLoad(raw, type);
      return true;
    }
    if (type->isFloat()) {
      double d;
      if (mem.loadF(addr, backend::mtypeFor(type), d) != vm::MemStatus::Ok) {
        error = "kernel read unmapped/misaligned process memory";
        return false;
      }
      out = ir::bitsOfFP(d);
      return true;
    }
    std::uint64_t v;
    if (mem.load(addr, backend::mtypeFor(type), v) != vm::MemStatus::Ok) {
      error = "kernel read unmapped/misaligned process memory";
      return false;
    }
    out = v;
    return true;
  }

  static RawValue normalizeLoad(std::uint64_t raw, Type* type) {
    switch (type->kind()) {
    case ir::TypeKind::I1: return raw & 1;
    case ir::TypeKind::I32: return ir::norm32(raw);
    case ir::TypeKind::F32: {
      float f;
      std::memcpy(&f, &raw, 4);
      return ir::bitsOfFP(static_cast<double>(f));
    }
    default: return raw;
    }
  }

  bool storeValue(std::uint64_t addr, Type* type, RawValue v) {
    const unsigned size = type->sizeBytes();
    if (!isLocal(addr)) {
      error = "kernel attempted to write process memory";
      return false;
    }
    std::uint8_t* p = localPtr(addr, size);
    if (!p) { error = "kernel write outside local buffer"; return false; }
    if (type == Type::f32()) {
      const float f = static_cast<float>(ir::fpOfBits(v));
      std::memcpy(p, &f, 4);
    } else if (type == Type::f64()) {
      std::memcpy(p, &v, 8);
    } else {
      std::memcpy(p, &v, size);
    }
    return true;
  }

  bool call(const Function& f, const std::vector<RawValue>& args,
            RawValue& ret, int depth);
};

bool Interp::call(const Function& f, const std::vector<RawValue>& args,
                  RawValue& ret, int depth) {
  if (depth > kMaxDepth) { error = "kernel recursion too deep"; return false; }
  if (f.isDeclaration()) { error = "kernel calls unresolved function"; return false; }

  // Dense SSA environment. Kernels are tiny (Table 8: a handful of IR
  // instructions), so a flat overwrite-on-redefine vector scanned newest
  // first beats a node-allocating map on both define and lookup — kernel
  // execution is the one phase Fig. 9 requires to be negligible. Size is
  // bounded by the function's static value count, loops included.
  std::vector<std::pair<const Value*, RawValue>> env;
  env.reserve(f.numArgs() + 32);
  for (unsigned i = 0; i < f.numArgs(); ++i) env.emplace_back(f.arg(i), args[i]);
  auto define = [&](const Value* v, RawValue val) {
    for (auto it = env.rbegin(); it != env.rend(); ++it)
      if (it->first == v) { it->second = val; return; }
    env.emplace_back(v, val);
  };

  auto valueOf = [&](const Value* v, RawValue& out) -> bool {
    switch (v->kind()) {
    case ir::ValueKind::ConstantInt:
      out = static_cast<std::uint64_t>(
          static_cast<const ir::ConstantInt*>(v)->value());
      return true;
    case ir::ValueKind::ConstantFP:
      out = ir::bitsOfFP(static_cast<const ir::ConstantFP*>(v)->value());
      return true;
    case ir::ValueKind::GlobalVariable:
      // Kernels never reference globals directly: Armor rewrites global
      // addresses into parameters because a kernel module's own globals
      // would not alias the process's.
      error = "kernel references a global";
      return false;
    default: {
      for (auto it = env.rbegin(); it != env.rend(); ++it)
        if (it->first == v) { out = it->second; return true; }
      error = "kernel uses undefined value";
      return false;
    }
    }
  };

  const BasicBlock* bb = f.entry();
  const BasicBlock* prevBB = nullptr;
  std::size_t idx = 0;
  while (true) {
    if (++steps > kMaxSteps) { error = "kernel step budget exceeded"; return false; }
    if (idx >= bb->size()) { error = "kernel fell off block end"; return false; }
    const Instruction* in = bb->inst(idx);

    // Pure ops evaluate exactly as the constant folder folds them.
    if (ir::isPure(in)) {
      RawValue ops[ir::kMaxPureOperands] = {}, r = 0;
      for (unsigned i = 0; i < in->numOperands(); ++i)
        if (!valueOf(in->operand(i), ops[i])) return false;
      if (!ir::evalPure(in, ops, r)) {
        error = (ir::isNarrow(in->type()) ? ir::norm32(ops[1]) : ops[1]) == 0
                    ? "kernel divide by zero"
                    : "kernel division overflow";
        return false;
      }
      define(in, r);
      ++idx;
      continue;
    }

    switch (in->opcode()) {
    case Opcode::Phi: {
      RawValue v = 0;
      bool found = false;
      for (unsigned i = 0; i < in->numPhiIncoming(); ++i) {
        if (in->phiBlock(i) == prevBB) {
          if (!valueOf(in->operand(i), v)) return false;
          found = true;
          break;
        }
      }
      if (!found) { error = "phi without matching predecessor"; return false; }
      define(in, v);
      ++idx;
      continue;
    }
    case Opcode::Alloca: {
      const std::uint64_t bytes =
          in->allocaElemType()->sizeBytes() * in->allocaCount();
      const std::uint64_t addr = nextLocal;
      nextLocal += (bytes + 15) & ~15ull;
      locals.emplace(addr, std::vector<std::uint8_t>(bytes, 0));
      define(in, addr);
      ++idx;
      continue;
    }
    case Opcode::Load: {
      RawValue addr;
      if (!valueOf(in->operand(0), addr)) return false;
      RawValue v;
      if (!loadValue(addr, in->type(), v)) return false;
      define(in, v);
      ++idx;
      continue;
    }
    case Opcode::Store: {
      RawValue v, addr;
      if (!valueOf(in->operand(0), v)) return false;
      if (!valueOf(in->operand(1), addr)) return false;
      if (!storeValue(addr, in->operand(0)->type(), v)) return false;
      ++idx;
      continue;
    }
    case Opcode::Call: {
      std::vector<RawValue> cargs(in->numOperands());
      for (unsigned i = 0; i < in->numOperands(); ++i)
        if (!valueOf(in->operand(i), cargs[i])) return false;
      RawValue r = 0;
      if (!call(*in->callee(), cargs, r, depth + 1)) return false;
      if (!in->type()->isVoid()) define(in, r);
      ++idx;
      continue;
    }
    case Opcode::Br:
      prevBB = bb;
      bb = in->succ(0);
      idx = 0;
      continue;
    case Opcode::CondBr: {
      RawValue c;
      if (!valueOf(in->operand(0), c)) return false;
      prevBB = bb;
      bb = c ? in->succ(0) : in->succ(1);
      idx = 0;
      continue;
    }
    case Opcode::Ret: {
      if (in->numOperands() == 1) {
        if (!valueOf(in->operand(0), ret)) return false;
      } else {
        ret = 0;
      }
      return true;
    }
    default:
      error = "unsupported opcode in kernel";
      return false;
    }
  }
}

} // namespace

KernelResult runRecoveryKernel(const ir::Function& kernel,
                               const std::vector<RawValue>& args,
                               const vm::Memory& mem) {
  KernelResult res;
  if (args.size() != kernel.numArgs()) {
    res.error = "kernel arity mismatch";
    return res;
  }
  Interp interp(mem);
  RawValue ret = 0;
  if (!interp.call(kernel, args, ret, 0)) {
    res.error = interp.error ? interp.error : "kernel failed";
    return res;
  }
  res.ok = true;
  res.value = ret;
  return res;
}

} // namespace care::core
