#include "inject/result_store.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "support/bytestream.hpp"
#include "support/md5.hpp"

namespace care::inject {

ResultStore::ResultStore(std::string dir, std::string key)
    : dir_(std::move(dir)), key_(std::move(key)) {
  if (dir_.empty() || key_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  enabled_ = !ec || std::filesystem::is_directory(dir_, ec);
}

std::string ResultStore::entryPath(int start, int count) const {
  return dir_ + "/" + key_.substr(0, 16) + "_" + std::to_string(start) + "_" +
         std::to_string(count) + ".crst";
}

std::optional<std::vector<InjectionRecord>> ResultStore::load(
    int start, int count) const {
  if (!enabled_) return std::nullopt;
  try {
    return shard::open(readFileBytes(entryPath(start, count)), key_, start,
                       count);
  } catch (const Error&) {
    return std::nullopt; // no readable entry: a miss
  }
}

bool ResultStore::save(int start, int count,
                       const std::vector<InjectionRecord>& records) const {
  if (!enabled_ || count < 0 ||
      records.size() != static_cast<std::size_t>(count))
    return false;
  return write(start, count, shard::seal(key_, start, records));
}

bool ResultStore::write(int start, int count,
                        const std::vector<std::uint8_t>& entry) const {
  if (!enabled_) return false;
  const std::string path = entryPath(start, count);
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  try {
    writeFileBytes(tmp, entry);
  } catch (const Error&) {
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

namespace shard {

std::vector<std::uint8_t> seal(const std::string& key, int start,
                               std::span<const InjectionRecord> records) {
  ByteWriter w;
  w.u32(ResultStore::kMagic);
  w.u32(ResultStore::kVersion);
  w.str(key);
  w.u32(static_cast<std::uint32_t>(start));
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const InjectionRecord& rec : records) writeRecordBytes(rec, w);
  Md5 h;
  h.update(w.data().data(), w.size());
  const Md5Digest digest = h.finish();
  w.bytes(digest.bytes.data(), 16);
  return w.data();
}

std::optional<std::vector<InjectionRecord>>
open(const std::vector<std::uint8_t>& entry, const std::string& key,
     int start, int count) {
  // Shortest possible entry: header words + empty key + md5 trailer.
  if (entry.size() < 4 + 4 + 4 + 4 + 4 + 16) return std::nullopt;
  const std::size_t bodyLen = entry.size() - 16;
  Md5 h;
  h.update(entry.data(), bodyLen);
  const Md5Digest digest = h.finish();
  if (std::memcmp(digest.bytes.data(), entry.data() + bodyLen, 16) != 0)
    return std::nullopt; // torn or bit-rotted entry
  try {
    ByteReader r(std::vector<std::uint8_t>(
        entry.begin(), entry.begin() + static_cast<long>(bodyLen)));
    if (r.u32() != ResultStore::kMagic || r.u32() != ResultStore::kVersion)
      return std::nullopt;
    if (r.str() != key) return std::nullopt; // digest-prefix collision
    if (r.u32() != static_cast<std::uint32_t>(start) ||
        r.u32() != static_cast<std::uint32_t>(count))
      return std::nullopt;
    std::vector<InjectionRecord> out;
    out.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) out.push_back(readRecordBytes(r));
    if (!r.atEnd()) return std::nullopt;
    return out;
  } catch (const Error&) {
    return std::nullopt; // truncated inside a record: miss, recompute
  }
}

} // namespace shard

} // namespace care::inject
