#include "care/recovery_table.hpp"

#include "ir/serialize.hpp"
#include "support/error.hpp"

namespace care::core {

namespace {

constexpr std::uint32_t kMagic = 0x32435243; // "CRC2"

} // namespace

std::uint64_t recoveryKey(const std::string& file, std::uint32_t line,
                          std::uint32_t col) {
  const std::string tuple =
      file + ":" + std::to_string(line) + ":" + std::to_string(col);
  return Md5::hash(tuple).low64();
}

void RecoveryTable::add(std::uint64_t key, RecoveryEntry entry) {
  CARE_ASSERT(!entries_.count(key), "duplicate recovery-table key");
  entries_.emplace(key, std::move(entry));
}

const RecoveryEntry* RecoveryTable::find(std::uint64_t key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void RecoveryTable::write(ByteWriter& w) const {
  w.u32(kMagic);
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& [key, e] : entries_) {
    w.u64(key);
    w.str(e.symbol);
    w.u32(static_cast<std::uint32_t>(e.params.size()));
    for (const ParamDesc& p : e.params) {
      w.str(p.name);
      ir::writeType(p.type, w);
      w.u8(p.isGlobal ? 1 : 0);
      w.u8(p.hasIvAlt ? 1 : 0);
      if (p.hasIvAlt) {
        w.str(p.ivAlt.peerName);
        w.i64(p.ivAlt.selfInit);
        w.i64(p.ivAlt.selfStep);
        w.i64(p.ivAlt.peerInit);
        w.i64(p.ivAlt.peerStep);
      }
    }
  }
}

RecoveryTable RecoveryTable::read(ByteReader& r) {
  if (r.u32() != kMagic) raise("bad recovery table magic");
  RecoveryTable t;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t key = r.u64();
    RecoveryEntry e;
    e.symbol = r.str();
    const std::uint32_t np = r.u32();
    for (std::uint32_t p = 0; p < np; ++p) {
      ParamDesc pd;
      pd.name = r.str();
      pd.type = ir::readType(r);
      pd.isGlobal = r.u8() != 0;
      pd.hasIvAlt = r.u8() != 0;
      if (pd.hasIvAlt) {
        pd.ivAlt.peerName = r.str();
        pd.ivAlt.selfInit = r.i64();
        pd.ivAlt.selfStep = r.i64();
        pd.ivAlt.peerInit = r.i64();
        pd.ivAlt.peerStep = r.i64();
      }
      e.params.push_back(std::move(pd));
    }
    t.entries_.emplace(key, std::move(e));
  }
  return t;
}

void RecoveryTable::writeFile(const std::string& path) const {
  ByteWriter w;
  write(w);
  w.writeFile(path);
}

RecoveryTable RecoveryTable::readFile(const std::string& path) {
  ByteReader r = ByteReader::fromFile(path);
  return read(r);
}

} // namespace care::core
