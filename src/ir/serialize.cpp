#include "ir/serialize.hpp"

#include <map>

namespace care::ir {
namespace {

constexpr std::uint32_t kMagic = 0x4d524943; // "CIRM"
constexpr std::uint32_t kVersion = 1;

// Operand encoding tags.
enum : std::uint8_t {
  kOpInst = 0,
  kOpArg = 1,
  kOpGlobal = 2,
  kOpConstInt = 3,
  kOpConstFP = 4,
};

struct FunctionNumbering {
  std::map<const Instruction*, std::uint32_t> instIdx;
  std::map<const BasicBlock*, std::uint32_t> blockIdx;
};

FunctionNumbering numberFunction(const Function& f) {
  FunctionNumbering n;
  std::uint32_t ii = 0, bi = 0;
  for (const BasicBlock* bb : f) {
    n.blockIdx[bb] = bi++;
    for (const Instruction* in : *bb) n.instIdx[in] = ii++;
  }
  return n;
}

void writeOperand(const Value* v, const FunctionNumbering& n,
                  const std::map<const GlobalVariable*, std::uint32_t>& gIdx,
                  ByteWriter& w) {
  switch (v->kind()) {
  case ValueKind::Instruction:
    w.u8(kOpInst);
    w.u32(n.instIdx.at(static_cast<const Instruction*>(v)));
    return;
  case ValueKind::Argument:
    w.u8(kOpArg);
    w.u32(static_cast<const Argument*>(v)->index());
    return;
  case ValueKind::GlobalVariable:
    w.u8(kOpGlobal);
    w.u32(gIdx.at(static_cast<const GlobalVariable*>(v)));
    return;
  case ValueKind::ConstantInt:
    w.u8(kOpConstInt);
    writeType(v->type(), w);
    w.i64(static_cast<const ConstantInt*>(v)->value());
    return;
  case ValueKind::ConstantFP:
    w.u8(kOpConstFP);
    writeType(v->type(), w);
    w.f64(static_cast<const ConstantFP*>(v)->value());
    return;
  default:
    CARE_UNREACHABLE("unserializable operand kind");
  }
}

} // namespace

void writeType(const Type* t, ByteWriter& w) {
  w.u8(static_cast<std::uint8_t>(t->kind()));
  if (t->isPointer()) writeType(t->pointee(), w);
}

Type* readType(ByteReader& r) {
  const auto kind = static_cast<TypeKind>(r.u8());
  switch (kind) {
  case TypeKind::Void: return Type::voidTy();
  case TypeKind::I1: return Type::i1();
  case TypeKind::I32: return Type::i32();
  case TypeKind::I64: return Type::i64();
  case TypeKind::F32: return Type::f32();
  case TypeKind::F64: return Type::f64();
  case TypeKind::Ptr: return Type::ptrTo(readType(r));
  }
  raise("bad type kind in stream");
}

void writeModule(const Module& m, ByteWriter& w) {
  w.u32(kMagic);
  w.u32(kVersion);
  w.str(m.name());

  // File table.
  w.u32(m.numFiles());
  for (std::uint32_t i = 1; i <= m.numFiles(); ++i) w.str(m.fileName(i));

  // Globals.
  std::map<const GlobalVariable*, std::uint32_t> gIdx;
  w.u32(static_cast<std::uint32_t>(m.numGlobals()));
  for (std::size_t i = 0; i < m.numGlobals(); ++i) {
    const GlobalVariable* g = m.global(i);
    gIdx[g] = static_cast<std::uint32_t>(i);
    w.str(g->name());
    writeType(g->elemType(), w);
    w.u64(g->count());
    w.u32(static_cast<std::uint32_t>(g->init().size()));
    for (double d : g->init()) w.f64(d);
  }

  // Function signatures (so call operands can refer by index).
  std::map<const Function*, std::uint32_t> fIdx;
  w.u32(static_cast<std::uint32_t>(m.numFunctions()));
  for (std::size_t i = 0; i < m.numFunctions(); ++i) {
    const Function* f = m.function(i);
    fIdx[f] = static_cast<std::uint32_t>(i);
    w.str(f->name());
    writeType(f->returnType(), w);
    w.u32(f->numArgs());
    for (unsigned a = 0; a < f->numArgs(); ++a) {
      writeType(f->arg(a)->type(), w);
      w.str(f->arg(a)->name());
    }
    w.u8(static_cast<std::uint8_t>((f->isSimpleCall() ? 1 : 0) |
                                   (f->isIntrinsic() ? 2 : 0)));
  }

  // Function bodies.
  for (std::size_t i = 0; i < m.numFunctions(); ++i) {
    const Function* f = m.function(i);
    w.u8(f->isDeclaration() ? 0 : 1);
    if (f->isDeclaration()) continue;
    const FunctionNumbering n = numberFunction(*f);
    w.u32(static_cast<std::uint32_t>(f->numBlocks()));
    for (const BasicBlock* bb : *f) {
      w.str(bb->name());
      w.u32(static_cast<std::uint32_t>(bb->size()));
      for (const Instruction* in : *bb) {
        w.u8(static_cast<std::uint8_t>(in->opcode()));
        writeType(in->type(), w);
        w.str(in->name());
        const DebugLoc& loc = in->debugLoc();
        w.u32(loc.file);
        w.u32(loc.line);
        w.u32(loc.col);
        switch (in->opcode()) {
        case Opcode::Alloca:
          writeType(in->allocaElemType(), w);
          w.u64(in->allocaCount());
          break;
        case Opcode::ICmp:
        case Opcode::FCmp:
          w.u8(static_cast<std::uint8_t>(in->pred()));
          break;
        case Opcode::Call:
          w.u32(fIdx.at(in->callee()));
          break;
        default:
          break;
        }
        w.u32(in->numOperands());
        for (unsigned oi = 0; oi < in->numOperands(); ++oi)
          writeOperand(in->operand(oi), n, gIdx, w);
        if (in->opcode() == Opcode::Phi) {
          for (unsigned pi = 0; pi < in->numPhiIncoming(); ++pi)
            w.u32(n.blockIdx.at(in->phiBlock(pi)));
        }
        w.u32(in->numSuccs());
        for (unsigned si = 0; si < in->numSuccs(); ++si)
          w.u32(n.blockIdx.at(in->succ(si)));
      }
    }
  }
}

std::unique_ptr<Module> readModule(ByteReader& r) {
  if (r.u32() != kMagic) raise("bad module magic");
  if (r.u32() != kVersion) raise("bad module version");
  auto m = std::make_unique<Module>(r.str());

  const std::uint32_t numFiles = r.u32();
  for (std::uint32_t i = 0; i < numFiles; ++i) m->internFile(r.str());

  const std::uint32_t numGlobals = r.u32();
  std::vector<GlobalVariable*> globals;
  for (std::uint32_t i = 0; i < numGlobals; ++i) {
    std::string name = r.str();
    Type* elem = readType(r);
    const std::uint64_t count = r.u64();
    GlobalVariable* g = m->addGlobal(elem, count, std::move(name));
    const std::uint32_t ninit = r.u32();
    std::vector<double> init(ninit);
    for (auto& d : init) d = r.f64();
    g->setInit(std::move(init));
    globals.push_back(g);
  }

  const std::uint32_t numFuncs = r.u32();
  std::vector<Function*> funcs;
  for (std::uint32_t i = 0; i < numFuncs; ++i) {
    std::string name = r.str();
    Type* ret = readType(r);
    const std::uint32_t nargs = r.u32();
    std::vector<Type*> params(nargs);
    std::vector<std::string> argNames(nargs);
    for (std::uint32_t a = 0; a < nargs; ++a) {
      params[a] = readType(r);
      argNames[a] = r.str();
    }
    Function* f = m->addFunction(std::move(name), ret, std::move(params));
    for (std::uint32_t a = 0; a < nargs; ++a)
      f->setArgName(a, std::move(argNames[a]));
    const std::uint8_t flags = r.u8();
    f->setSimpleCall(flags & 1);
    f->setIntrinsic(flags & 2);
    funcs.push_back(f);
  }

  struct PendingOperand {
    std::uint8_t tag;
    std::uint32_t index;     // inst / arg / global
    Type* constType;
    std::int64_t intVal;
    double fpVal;
  };

  for (Function* f : funcs) {
    const std::uint8_t hasBody = r.u8();
    if (!hasBody) continue;
    const std::uint32_t numBlocks = r.u32();
    std::vector<BasicBlock*> blocks;
    std::vector<Instruction*> insts;
    // Records to apply in the second pass.
    struct InstRec {
      Instruction* in;
      std::vector<PendingOperand> operands;
      std::vector<std::uint32_t> phiBlocks;
      std::vector<std::uint32_t> succs;
    };
    std::vector<InstRec> recs;

    for (std::uint32_t bi = 0; bi < numBlocks; ++bi) {
      BasicBlock* bb = f->addBlock(r.str());
      blocks.push_back(bb);
      const std::uint32_t numInsts = r.u32();
      for (std::uint32_t ii = 0; ii < numInsts; ++ii) {
        const auto op = static_cast<Opcode>(r.u8());
        Type* type = readType(r);
        std::string name = r.str();
        auto in = std::make_unique<Instruction>(op, type, std::move(name));
        DebugLoc loc;
        loc.file = r.u32();
        loc.line = r.u32();
        loc.col = r.u32();
        in->setDebugLoc(loc);
        switch (op) {
        case Opcode::Alloca: {
          Type* elem = readType(r);
          in->setAllocaInfo(elem, r.u64());
          break;
        }
        case Opcode::ICmp:
        case Opcode::FCmp:
          in->setPred(static_cast<CmpPred>(r.u8()));
          break;
        case Opcode::Call: {
          const std::uint32_t ci = r.u32();
          if (ci >= funcs.size()) raise("bad callee index");
          in->setCallee(funcs[ci]);
          break;
        }
        default:
          break;
        }
        InstRec rec;
        rec.in = in.get();
        const std::uint32_t numOps = r.u32();
        for (std::uint32_t oi = 0; oi < numOps; ++oi) {
          PendingOperand po{};
          po.tag = r.u8();
          switch (po.tag) {
          case kOpInst:
          case kOpArg:
          case kOpGlobal:
            po.index = r.u32();
            break;
          case kOpConstInt:
            po.constType = readType(r);
            po.intVal = r.i64();
            break;
          case kOpConstFP:
            po.constType = readType(r);
            po.fpVal = r.f64();
            break;
          default:
            raise("bad operand tag");
          }
          rec.operands.push_back(po);
        }
        if (op == Opcode::Phi) {
          for (std::uint32_t pi = 0; pi < numOps; ++pi)
            rec.phiBlocks.push_back(0); // filled below
        }
        if (op == Opcode::Phi)
          for (auto& pb : rec.phiBlocks) pb = r.u32();
        const std::uint32_t numSuccs = r.u32();
        for (std::uint32_t si = 0; si < numSuccs; ++si)
          rec.succs.push_back(r.u32());
        insts.push_back(bb->append(std::move(in)));
        recs.push_back(std::move(rec));
      }
    }

    // Second pass: connect operands, phi blocks and successors.
    for (InstRec& rec : recs) {
      for (std::size_t oi = 0; oi < rec.operands.size(); ++oi) {
        const PendingOperand& po = rec.operands[oi];
        Value* v = nullptr;
        switch (po.tag) {
        case kOpInst:
          if (po.index >= insts.size()) raise("bad inst operand index");
          v = insts[po.index];
          break;
        case kOpArg:
          if (po.index >= f->numArgs()) raise("bad arg operand index");
          v = f->arg(po.index);
          break;
        case kOpGlobal:
          if (po.index >= globals.size()) raise("bad global operand index");
          v = globals[po.index];
          break;
        case kOpConstInt:
          v = m->constInt(po.constType, po.intVal);
          break;
        case kOpConstFP:
          v = m->constFP(po.constType, po.fpVal);
          break;
        }
        if (rec.in->opcode() == Opcode::Phi) {
          const std::uint32_t pb = rec.phiBlocks[oi];
          if (pb >= blocks.size()) raise("bad phi block index");
          rec.in->addPhiIncoming(v, blocks[pb]);
        } else {
          rec.in->addOperand(v);
        }
      }
      if (!rec.succs.empty()) {
        std::vector<BasicBlock*> succs;
        for (std::uint32_t s : rec.succs) {
          if (s >= blocks.size()) raise("bad successor index");
          succs.push_back(blocks[s]);
        }
        rec.in->setSuccs(std::move(succs));
      }
    }
  }
  return m;
}

void writeModuleFile(const Module& m, const std::string& path) {
  ByteWriter w;
  writeModule(m, w);
  w.writeFile(path);
}

std::unique_ptr<Module> readModuleFile(const std::string& path) {
  ByteReader r = ByteReader::fromFile(path);
  return readModule(r);
}

} // namespace care::ir
