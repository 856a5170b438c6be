#include "vm/ecc.hpp"

#include <array>

#include "support/error.hpp"

namespace care::vm {

const char* eccModeName(EccMode m) {
  switch (m) {
  case EccMode::Off: return "off";
  case EccMode::Secded: return "secded";
  case EccMode::SecdedCrc: return "secded,crc";
  }
  return "?";
}

EccMode parseEccMode(const std::string& s) {
  if (s == "off" || s == "none") return EccMode::Off;
  if (s == "secded") return EccMode::Secded;
  if (s == "secded,crc") return EccMode::SecdedCrc;
  raise("unknown ECC mode '" + s + "' (expected off, secded or secded,crc)");
}

namespace ecc {
namespace {

// Codeword position of each data bit: positions 1..71 with the powers of
// two (the check bits) skipped, so data bit i sits at the (i+1)-th
// non-power-of-two position.
constexpr std::array<std::uint8_t, 64> makeDataPos() {
  std::array<std::uint8_t, 64> pos{};
  int i = 0;
  for (int p = 1; p <= 71; ++p) {
    if ((p & (p - 1)) == 0) continue;
    pos[static_cast<std::size_t>(i++)] = static_cast<std::uint8_t>(p);
  }
  return pos;
}
constexpr std::array<std::uint8_t, 64> kDataPos = makeDataPos();

// kCheckMask[j]: the data bits whose codeword position has bit j set —
// i.e. the bits check bit 2^j covers. Check bits are then single parity
// computations over masked words.
constexpr std::array<std::uint64_t, 7> makeCheckMasks() {
  std::array<std::uint64_t, 7> m{};
  for (int i = 0; i < 64; ++i)
    for (int j = 0; j < 7; ++j)
      if (kDataPos[static_cast<std::size_t>(i)] & (1u << j))
        m[static_cast<std::size_t>(j)] |= 1ull << i;
  return m;
}
constexpr std::array<std::uint64_t, 7> kCheckMask = makeCheckMasks();

// Inverse map: syndrome value -> data bit index, or -1 for check-bit
// positions and invalid (>71) syndromes.
constexpr std::array<std::int8_t, 128> makePosToBit() {
  std::array<std::int8_t, 128> inv{};
  for (auto& v : inv) v = -1;
  for (int i = 0; i < 64; ++i)
    inv[kDataPos[static_cast<std::size_t>(i)]] = static_cast<std::int8_t>(i);
  return inv;
}
constexpr std::array<std::int8_t, 128> kPosToBit = makePosToBit();

inline unsigned parity64(std::uint64_t v) {
  return static_cast<unsigned>(__builtin_parityll(v));
}

inline std::uint8_t checkBits(std::uint64_t data) {
  std::uint8_t c = 0;
  for (int j = 0; j < 7; ++j)
    c |= static_cast<std::uint8_t>(parity64(data & kCheckMask[
             static_cast<std::size_t>(j)]) << j);
  return c;
}

// CRC64/ECMA-182 (reflected), one byte per table step.
constexpr std::array<std::uint64_t, 256> makeCrcTable() {
  constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ull;
  std::array<std::uint64_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int b = 0; b < 8; ++b)
      crc = (crc >> 1) ^ (crc & 1 ? kPoly : 0);
    t[i] = crc;
  }
  return t;
}
constexpr std::array<std::uint64_t, 256> kCrcTable = makeCrcTable();

} // namespace

std::uint8_t secdedEncode(std::uint64_t data) {
  std::uint8_t code = checkBits(data);
  // Overall parity of the 72-bit codeword (data + check bits + the parity
  // bit itself): choose the stored bit so the total is even.
  const unsigned p = parity64(data) ^
                     static_cast<unsigned>(__builtin_parity(code));
  code |= static_cast<std::uint8_t>(p << 7);
  return code;
}

Secded secdedDecode(std::uint64_t& data, std::uint8_t code) {
  const std::uint8_t synd =
      static_cast<std::uint8_t>(checkBits(data) ^ (code & 0x7f));
  const bool parityOk =
      (parity64(data) ^ static_cast<unsigned>(__builtin_parity(code))) == 0;
  if (synd == 0 && parityOk) return Secded::Ok;
  if (!parityOk) {
    // Odd total parity: a single-bit error somewhere in the codeword.
    if (synd == 0) return Secded::Corrected;            // the parity bit
    if ((synd & (synd - 1)) == 0) return Secded::Corrected; // a check bit
    const int bit = kPosToBit[synd];
    if (bit < 0) return Secded::Uncorrectable; // >=3 bits aliased oddly
    data ^= 1ull << bit;
    return Secded::Corrected;
  }
  // Even parity with a nonzero syndrome: a double-bit error.
  return Secded::Uncorrectable;
}

std::uint64_t crc64Word(std::uint64_t word) {
  std::uint64_t crc = ~0ull;
  for (int i = 0; i < 8; ++i)
    crc = kCrcTable[(crc ^ (word >> (8 * i))) & 0xff] ^ (crc >> 8);
  return ~crc;
}

} // namespace ecc
} // namespace care::vm
