// SECDED (72,64) ECC tests (DESIGN.md §4i): codec exhaustiveness (every
// single-bit data/check/parity error corrects, every adjacent double-bit
// error is flagged), the Memory-level struck-word protocol (the record
// taken at injectFault, correct-on-read, check-before-sub-word-store,
// full-word overwrite), the patrol scrub, CRC cross-validation of wide
// bursts, the snapshot/rollback round trip of struck words, and option
// parsing.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "backend/mir.hpp"
#include "support/error.hpp"
#include "vm/ecc.hpp"
#include "vm/memory.hpp"

namespace care::test {
namespace {

using vm::EccMode;
using vm::MemStatus;
using vm::Memory;
using vm::ecc::Secded;

const std::uint64_t kWords[] = {
    0x0ull,
    ~0x0ull,
    0x0123456789abcdefull,
    0xdeadbeefcafef00dull,
    0x8000000000000001ull,
    0x5555555555555555ull,
    0xaaaaaaaaaaaaaaaaull,
    0x3ff0000000000000ull, // double 1.0
};

TEST(Secded, CleanWordsDecodeOk) {
  for (const std::uint64_t w : kWords) {
    std::uint64_t d = w;
    EXPECT_EQ(vm::ecc::secdedDecode(d, vm::ecc::secdedEncode(w)), Secded::Ok);
    EXPECT_EQ(d, w);
  }
}

TEST(Secded, EverySingleDataBitErrorIsCorrected) {
  for (const std::uint64_t w : kWords) {
    const std::uint8_t code = vm::ecc::secdedEncode(w);
    for (unsigned bit = 0; bit < 64; ++bit) {
      std::uint64_t d = w ^ (1ull << bit);
      EXPECT_EQ(vm::ecc::secdedDecode(d, code), Secded::Corrected)
          << "bit " << bit;
      EXPECT_EQ(d, w) << "bit " << bit << " not restored";
    }
  }
}

TEST(Secded, EveryCheckAndParityBitErrorIsCorrectedWithDataUntouched) {
  for (const std::uint64_t w : kWords) {
    const std::uint8_t code = vm::ecc::secdedEncode(w);
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::uint64_t d = w;
      EXPECT_EQ(vm::ecc::secdedDecode(
                    d, static_cast<std::uint8_t>(code ^ (1u << bit))),
                Secded::Corrected)
          << "code bit " << bit;
      EXPECT_EQ(d, w) << "code bit " << bit << " touched the data";
    }
  }
}

TEST(Secded, EveryAdjacentDoubleBitErrorIsUncorrectable) {
  for (const std::uint64_t w : kWords) {
    const std::uint8_t code = vm::ecc::secdedEncode(w);
    for (unsigned bit = 0; bit + 1 < 64; ++bit) {
      std::uint64_t d = w ^ (3ull << bit);
      EXPECT_EQ(vm::ecc::secdedDecode(d, code), Secded::Uncorrectable)
          << "bits " << bit << "," << bit + 1;
      EXPECT_EQ(d, w ^ (3ull << bit)) << "uncorrectable word was modified";
    }
  }
}

TEST(Secded, SpreadDoubleBitErrorsAreUncorrectable) {
  const std::uint64_t w = 0x0123456789abcdefull;
  const std::uint8_t code = vm::ecc::secdedEncode(w);
  const unsigned pairs[][2] = {{0, 63}, {1, 32}, {7, 40}, {13, 14}, {30, 59}};
  for (const auto& p : pairs) {
    std::uint64_t d = w ^ (1ull << p[0]) ^ (1ull << p[1]);
    EXPECT_EQ(vm::ecc::secdedDecode(d, code), Secded::Uncorrectable)
        << "bits " << p[0] << "," << p[1];
  }
  // One data bit plus one check bit is also a double error.
  std::uint64_t d = w ^ (1ull << 5);
  EXPECT_EQ(vm::ecc::secdedDecode(d, static_cast<std::uint8_t>(code ^ 1u)),
            Secded::Uncorrectable);
}

TEST(Secded, Crc64DistinguishesWords) {
  EXPECT_NE(vm::ecc::crc64Word(0), vm::ecc::crc64Word(1));
  EXPECT_NE(vm::ecc::crc64Word(0x12345678ull), vm::ecc::crc64Word(0x12345679ull));
  EXPECT_EQ(vm::ecc::crc64Word(0xdeadbeefull), vm::ecc::crc64Word(0xdeadbeefull));
}

TEST(EccMode, ParsesAndRoundTrips) {
  EXPECT_EQ(vm::parseEccMode("off"), EccMode::Off);
  EXPECT_EQ(vm::parseEccMode("none"), EccMode::Off);
  EXPECT_EQ(vm::parseEccMode("secded"), EccMode::Secded);
  EXPECT_EQ(vm::parseEccMode("secded,crc"), EccMode::SecdedCrc);
  for (EccMode m : {EccMode::Off, EccMode::Secded, EccMode::SecdedCrc})
    EXPECT_EQ(vm::parseEccMode(vm::eccModeName(m)), m);
  EXPECT_THROW(vm::parseEccMode("chipkill"), Error);
  EXPECT_THROW(vm::parseEccMode(""), Error);
}

// --- Memory-level struck-word protocol --------------------------------------

constexpr std::uint64_t kBase = 0x10000;

Memory mappedMemory() {
  Memory m;
  m.map(kBase, Memory::kPageSize);
  return m;
}

TEST(EccMemory, SingleBitFaultIsCorrectedOnRead) {
  Memory m = mappedMemory();
  ASSERT_EQ(m.store(kBase, backend::MType::I64, 0x1122334455667788ull),
            MemStatus::Ok);
  ASSERT_TRUE(m.injectFault(kBase, {9}, EccMode::Secded));
  std::uint64_t out = 0;
  EXPECT_EQ(m.load(kBase, backend::MType::I64, out), MemStatus::Ok);
  EXPECT_EQ(out, 0x1122334455667788ull);
  EXPECT_EQ(m.eccCorrected(), 1u);
  EXPECT_EQ(m.eccUncorrectable(), 0u);
  // The correction is persistent: the next read is clean, no new count.
  EXPECT_EQ(m.load(kBase, backend::MType::I64, out), MemStatus::Ok);
  EXPECT_EQ(m.eccCorrected(), 1u);
}

TEST(EccMemory, DoubleBitFaultSurfacesAsEccUncorrectable) {
  Memory m = mappedMemory();
  ASSERT_EQ(m.store(kBase + 8, backend::MType::I64, 42), MemStatus::Ok);
  ASSERT_TRUE(m.injectFault(kBase + 8, {3, 4}, EccMode::Secded));
  std::uint64_t out = 0;
  EXPECT_EQ(m.load(kBase + 8, backend::MType::I64, out),
            MemStatus::EccUncorrectable);
  EXPECT_EQ(m.eccUncorrectable(), 1u);
  EXPECT_EQ(m.eccCorrected(), 0u);
}

TEST(EccMemory, SubWordLoadVerifiesTheContainingWord) {
  Memory m = mappedMemory();
  ASSERT_EQ(m.store(kBase, backend::MType::I64, 0x00ff00ff00ff00ffull),
            MemStatus::Ok);
  ASSERT_TRUE(m.injectFault(kBase, {40}, EccMode::Secded)); // corrupt byte 5...
  std::uint64_t out = 0;
  EXPECT_EQ(m.load(kBase, backend::MType::I8, out), MemStatus::Ok);
  EXPECT_EQ(out, 0xffu); // ...but even a byte-0 load heals the whole word
  EXPECT_EQ(m.eccCorrected(), 1u);
  EXPECT_EQ(m.load(kBase + 4, backend::MType::I32, out), MemStatus::Ok);
  EXPECT_EQ(out, 0x00ff00ffull);
  EXPECT_EQ(m.eccCorrected(), 1u);
}

TEST(EccMemory, SubWordStoreRefusesToLaunderAnUncorrectableWord) {
  // A sub-word store must verify first: blindly re-encoding around a
  // latent double-bit corruption would turn a detectable fault into SDC.
  Memory m = mappedMemory();
  ASSERT_EQ(m.store(kBase, backend::MType::I64, 7), MemStatus::Ok);
  ASSERT_TRUE(m.injectFault(kBase, {20, 21}, EccMode::Secded));
  EXPECT_EQ(m.store(kBase, backend::MType::I8, 1),
            MemStatus::EccUncorrectable);
  EXPECT_EQ(m.eccUncorrectable(), 1u);
}

TEST(EccMemory, FullWordStoreReencodesOverAnyFault) {
  // A full 64-bit store overwrites the whole word, so the word settles —
  // even a previously uncorrectable word becomes clean.
  Memory m = mappedMemory();
  ASSERT_EQ(m.store(kBase, backend::MType::I64, 7), MemStatus::Ok);
  ASSERT_TRUE(m.injectFault(kBase, {50, 51}, EccMode::Secded));
  EXPECT_EQ(m.store(kBase, backend::MType::I64, 99), MemStatus::Ok);
  std::uint64_t out = 0;
  EXPECT_EQ(m.load(kBase, backend::MType::I64, out), MemStatus::Ok);
  EXPECT_EQ(out, 99u);
  EXPECT_EQ(m.eccCorrected(), 0u);
  EXPECT_EQ(m.eccUncorrectable(), 0u);
}

TEST(EccMemory, ScrubPatrolsEveryStruckWord) {
  Memory m = mappedMemory();
  ASSERT_EQ(m.store(kBase, backend::MType::I64, 1), MemStatus::Ok);
  ASSERT_EQ(m.store(kBase + 64, backend::MType::I64, 2), MemStatus::Ok);
  ASSERT_TRUE(m.injectFault(kBase, {5}, EccMode::Secded)); // correctable
  ASSERT_TRUE(
      m.injectFault(kBase + 64, {8, 9}, EccMode::Secded)); // uncorrectable
  const auto [corrected, uncorrectable] = m.scrubEcc();
  EXPECT_EQ(corrected, 1u);
  EXPECT_EQ(uncorrectable, 1u);
  EXPECT_EQ(m.eccCorrected(), 1u);
  EXPECT_EQ(m.eccUncorrectable(), 1u);
  // The correctable word really was repaired in place.
  std::uint64_t out = 0;
  EXPECT_EQ(m.load(kBase, backend::MType::I64, out), MemStatus::Ok);
  EXPECT_EQ(out, 1u);
  // A second patrol finds nothing new to correct.
  const auto [c2, u2] = m.scrubEcc();
  EXPECT_EQ(c2, 0u);
  EXPECT_EQ(u2, 1u) << "uncorrectable words stay flagged on every patrol";
}

TEST(EccMemory, CrcModeCatchesWideBurstsSecdedWouldMisjudge) {
  // A >=3-bit burst can alias to a clean or single-bit syndrome; the
  // secded,crc mode cross-validates against the recorded pre-fault CRC and
  // refuses to return data that only looks corrected.
  for (const std::vector<unsigned>& burst :
       {std::vector<unsigned>{0, 1, 2}, std::vector<unsigned>{4, 17, 33, 52}}) {
    Memory m = mappedMemory();
    ASSERT_EQ(m.store(kBase, backend::MType::I64, 0xfeedfacefeedfaceull),
              MemStatus::Ok);
    ASSERT_TRUE(m.injectFault(kBase, burst, EccMode::SecdedCrc));
    std::uint64_t out = 0;
    EXPECT_EQ(m.load(kBase, backend::MType::I64, out),
              MemStatus::EccUncorrectable);
    EXPECT_GE(m.eccUncorrectable(), 1u);
  }
}

TEST(EccMemory, WordStruckTwiceKeepsItsPreFaultRecord) {
  // A second strike before the word settles keeps the record of the
  // pre-fault value. Striking bit 0 twice puts that value back, so it
  // checks clean under secded,crc instead of failing the CRC.
  Memory m = mappedMemory();
  ASSERT_EQ(m.store(kBase, backend::MType::I64, 0x0123456789abcdefull),
            MemStatus::Ok);
  ASSERT_TRUE(m.injectFault(kBase, {0}, EccMode::SecdedCrc));
  ASSERT_TRUE(m.injectFault(kBase, {0}, EccMode::SecdedCrc));
  std::uint64_t out = 0;
  EXPECT_EQ(m.load(kBase, backend::MType::I64, out), MemStatus::Ok);
  EXPECT_EQ(out, 0x0123456789abcdefull);
  EXPECT_EQ(m.eccCorrected(), 0u);
  EXPECT_EQ(m.eccUncorrectable(), 0u);
  // Two single-bit strikes on one word are a double error against the
  // pre-fault code.
  ASSERT_TRUE(m.injectFault(kBase + 8, {3}, EccMode::Secded));
  ASSERT_TRUE(m.injectFault(kBase + 8, {4}, EccMode::Secded));
  EXPECT_EQ(m.load(kBase + 8, backend::MType::I64, out),
            MemStatus::EccUncorrectable);
}

TEST(EccMemory, StruckWordSurvivesSnapshotForkLikeARollback) {
  // Executor::restoreCheckpoint rebuilds Memory via MemorySnapshot::fork
  // and carries the counters; the struck word must ride along so a
  // pre-checkpoint fault stays detectable after the rewind.
  Memory m = mappedMemory();
  ASSERT_EQ(m.store(kBase, backend::MType::I64, 11), MemStatus::Ok);
  ASSERT_TRUE(m.injectFault(kBase, {30}, EccMode::Secded));
  vm::MemorySnapshot snap = vm::MemorySnapshot::capture(m);
  Memory f = snap.fork();
  std::uint64_t out = 0;
  EXPECT_EQ(f.load(kBase, backend::MType::I64, out), MemStatus::Ok);
  EXPECT_EQ(out, 11u);
  EXPECT_EQ(f.eccCorrected(), 1u);
}

TEST(EccMemory, InjectFaultRequiresAMappedPage) {
  Memory m = mappedMemory();
  EXPECT_FALSE(m.injectFault(0xdead0000, {0}, EccMode::Secded));
}

/// Does either TLB view of `m` hold `pageNo`?
bool inTlb(const Memory& m, std::uint64_t pageNo) {
  const auto [r, w] = m.jitTlbView();
  for (const void* view : {r, w}) {
    const auto& tlb = *static_cast<const Memory::Tlb*>(view);
    if (tlb[pageNo & (Memory::kTlbEntries - 1)].pageNo == pageNo) return true;
  }
  return false;
}

TEST(EccMemory, WatchedWordsStayOutOfTheTlbAndRecordTheirFirstAccess) {
  using backend::MType;
  Memory m;
  m.map(0x10000, 2 * Memory::kPageSize);
  const std::uint64_t page = 0x10000 / Memory::kPageSize;
  const std::uint64_t w[4] = {0x10000, 0x10008, 0x10010, 0x10018};
  std::vector<Memory::WordAccess> seen;
  m.setAccessTrace(&seen);
  ASSERT_NE(m.readPage(page), nullptr);
  ASSERT_NE(m.writePage(page), nullptr);
  // An armed trace with no word watched records nothing.
  std::uint64_t v = 0;
  ASSERT_EQ(m.load(w[0], MType::I64, v), MemStatus::Ok);
  ASSERT_EQ(m.store(w[2], MType::I64, 7), MemStatus::Ok);
  EXPECT_TRUE(seen.empty());
  m.watch({w[0], w[1], w[2], w[3]});
  // Watching evicts the page, and while a word on it is watched neither
  // view takes it back: not through the fast-path lookups, and not
  // through the typed accessors that then serve its accesses.
  EXPECT_FALSE(inTlb(m, page));
  EXPECT_EQ(m.readPage(page), nullptr);
  EXPECT_EQ(m.writePage(page), nullptr);
  EXPECT_NE(m.readPage(page + 1), nullptr); // no watched word there
  ASSERT_EQ(m.load(w[0] + 4, MType::I32, v), MemStatus::Ok);
  ASSERT_EQ(m.store(w[1] + 1, MType::I8, 7), MemStatus::Ok);
  ASSERT_EQ(m.store(w[2], MType::I64, 7), MemStatus::Ok);
  EXPECT_FALSE(inTlb(m, page));
  const std::uint8_t bytes[3] = {1, 2, 3};
  ASSERT_TRUE(m.writeBytes(w[3] + 6, bytes, 3)); // and the unwatched 0x10020
  ASSERT_EQ(seen.size(), 4u);
  const Memory::Access kinds[4] = {
      Memory::Access::Check,     // a load
      Memory::Access::Check,     // a sub-word store
      Memory::Access::Overwrite, // a full-word store
      Memory::Access::Overwrite, // writeBytes
  };
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[i].word, w[i]) << i;
    EXPECT_EQ(seen[i].kind, kinds[i]) << i;
  }
  // The first access ended each watch: nothing more records, and the page
  // is served again.
  ASSERT_EQ(m.load(w[0], MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_NE(m.readPage(page), nullptr);
  EXPECT_NE(m.writePage(page), nullptr);
  // Watching again evicts it again; disarming the trace ends every watch.
  m.watch({w[0]});
  EXPECT_FALSE(inTlb(m, page));
  EXPECT_EQ(m.readPage(page), nullptr);
  m.setAccessTrace(nullptr);
  EXPECT_NE(m.readPage(page), nullptr);
}

TEST(EccMemory, OffModeStrikesNoWord) {
  Memory m;
  m.map(kBase, Memory::kPageSize);
  ASSERT_EQ(m.store(kBase, backend::MType::I64, 5), MemStatus::Ok);
  ASSERT_TRUE(m.injectFault(kBase, {2}, EccMode::Off));
  std::uint64_t out = 0;
  EXPECT_EQ(m.load(kBase, backend::MType::I64, out), MemStatus::Ok);
  EXPECT_EQ(out, 5u ^ 4u) << "without ECC the flip must land silently";
  EXPECT_EQ(m.eccCorrected(), 0u);
  EXPECT_EQ(m.eccUncorrectable(), 0u);
}

} // namespace
} // namespace care::test
