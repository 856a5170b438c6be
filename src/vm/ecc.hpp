// SECDED (72,64) error-correcting code for VM memory words.
//
// A classic Hamming(71,64) code extended with an overall parity bit: 7
// check bits cover codeword positions 1..71 (check bits sit at the powers
// of two, the 64 data bits fill the rest), and the 8th bit stores the
// parity of the whole 72-bit codeword. The decoder corrects any single-bit
// error (data, check, or parity bit) and detects any double-bit error —
// the same guarantee DDR ECC DIMMs give per 64-bit beat.
//
// Memory records, for each word injectFault strikes under ECC, the code
// byte of its pre-fault value, and checks/corrects the word on access until
// it settles; see memory.hpp. The optional CRC64 scrub mode catches the
// aliasing gap of SECDED (a >=3-bit burst can decode as clean or
// miscorrect): the strike also records a CRC of the pre-fault word, and the
// word's check cross-validates against it.
#pragma once

#include <cstdint>
#include <string>

namespace care::vm {

/// ECC protection level of a memory strike (`--ecc=` / `CARE_ECC`): off |
/// secded | secded,crc.
enum class EccMode : std::uint8_t { Off = 0, Secded = 1, SecdedCrc = 2 };

const char* eccModeName(EccMode m);
/// Parse "off"/"none", "secded", "secded,crc". Throws care::Error on
/// anything else.
EccMode parseEccMode(const std::string& s);

namespace ecc {

enum class Secded : std::uint8_t { Ok, Corrected, Uncorrectable };

/// Compute the 8-bit code byte (7 Hamming check bits + overall parity) for
/// a 64-bit data word.
std::uint8_t secdedEncode(std::uint64_t data);

/// Check `data` against its stored code byte. On a single-bit data error
/// the flipped bit is corrected in place and Corrected is returned (check
/// or parity bit errors also return Corrected with `data` untouched).
/// Double-bit errors — and invalid syndromes from wider corruption — come
/// back Uncorrectable with `data` untouched.
Secded secdedDecode(std::uint64_t& data, std::uint8_t code);

/// CRC64 (ECMA-182, reflected) of one 64-bit word, for the scrub mode.
std::uint64_t crc64Word(std::uint64_t word);

} // namespace ecc
} // namespace care::vm
