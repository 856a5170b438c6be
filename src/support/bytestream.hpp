// Binary serialization primitives.
//
// The paper serializes the Recovery Table with protobuf and ships recovery
// kernels as an ELF shared library; this repo replaces both with a small
// explicit wire format (little-endian fixed-width ints, length-prefixed
// strings) written/read by ByteWriter/ByteReader. See DESIGN.md §2.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace care {

/// The whole file at `path` as bytes. Throws care::Error if unreadable.
std::vector<std::uint8_t> readFileBytes(const std::string& path);

/// Write `bytes` as the whole file at `path`. Throws care::Error on
/// failure.
void writeFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes);

/// Append-only binary writer.
class ByteWriter {
public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { putLE(v, 2); }
  void u32(std::uint32_t v) { putLE(v, 4); }
  void u64(std::uint64_t v) { putLE(v, 8); }
  void i64(std::int64_t v) { putLE(static_cast<std::uint64_t>(v), 8); }
  void f64(double v);
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(const void* data, std::size_t len);

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

  /// Write the accumulated buffer to a file. Throws care::Error on failure.
  void writeFile(const std::string& path) const { writeFileBytes(path, buf_); }

private:
  void putLE(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  std::vector<std::uint8_t> buf_;
};

/// Sequential binary reader over an owned buffer. Throws care::Error on
/// truncated input; never reads out of bounds.
class ByteReader {
public:
  explicit ByteReader(std::vector<std::uint8_t> data)
      : buf_(std::move(data)) {}

  /// Load a whole file. Throws care::Error if unreadable.
  static ByteReader fromFile(const std::string& path) {
    return ByteReader(readFileBytes(path));
  }

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return static_cast<std::uint16_t>(getLE(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(getLE(4)); }
  std::uint64_t u64() { return getLE(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(getLE(8)); }
  double f64();
  std::string str();

  bool atEnd() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

private:
  const std::uint8_t* take(std::size_t n);
  std::uint64_t getLE(int n) {
    const std::uint8_t* p = take(static_cast<std::size_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i)
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
  }
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

} // namespace care
