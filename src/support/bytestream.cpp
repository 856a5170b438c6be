#include "support/bytestream.hpp"

#include <cstdio>
#include <cstring>

namespace care {

void ByteWriter::f64(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  u64(u);
}

void ByteWriter::bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

void writeFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) raise("cannot open for writing: " + path);
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) raise("short write: " + path);
}

std::vector<std::uint8_t> readFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) raise("cannot open for reading: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size < 0 ? 0 : size));
  const std::size_t got =
      data.empty() ? 0 : std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (got != data.size()) raise("short read: " + path);
  return data;
}

const std::uint8_t* ByteReader::take(std::size_t n) {
  if (pos_ + n > buf_.size()) raise("ByteReader: truncated input");
  const std::uint8_t* p = buf_.data() + pos_;
  pos_ += n;
  return p;
}

double ByteReader::f64() {
  const std::uint64_t u = u64();
  double v;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t len = u32();
  const std::uint8_t* p = take(len);
  return std::string(reinterpret_cast<const char*>(p), len);
}

} // namespace care
