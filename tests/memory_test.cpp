// Memory subsystem tests: map-range overflow guard, software-TLB
// invalidation across restore/move/CoW interleavings, copy-on-write page
// sharing (counted via Memory::pageAllocCount), pages holding a word struck
// under ECC kept out of the TLB, and the typed accessors exercised against
// both plain and CoW-forked address spaces.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <utility>

#include "support/error.hpp"
#include "vm/memory.hpp"

namespace care::test {
namespace {

using backend::MType;
using vm::Memory;
using vm::MemorySnapshot;
using vm::MemStatus;

constexpr std::uint64_t kPage = Memory::kPageSize;

// --- map() overflow guard ---------------------------------------------------

TEST(MemoryMap, RangeWrappingAddressSpaceThrows) {
  Memory mem;
  // addr + size wraps the 64-bit space: must refuse, not map a wrong range.
  EXPECT_THROW(mem.map(~0ull - 100, 4096), care::Error);
  EXPECT_THROW(mem.map(0x1000, ~0ull), care::Error);
  EXPECT_THROW(mem.map(~0ull, 2), care::Error);
  EXPECT_EQ(mem.mappedBytes(), 0u);
}

TEST(MemoryMap, RangeEndingAtTopOfAddressSpaceIsFine) {
  Memory mem;
  // Last page of the address space: end == 2^64 - 0? end = addr + size must
  // not wrap, so the highest mappable end is 2^64 - 1.
  mem.map(~0ull - (kPage - 1), kPage - 1);
  EXPECT_TRUE(mem.isMapped(~0ull - 8));
  std::uint64_t v = 0;
  EXPECT_EQ(mem.load(~0ull - 7, MType::I64, v), MemStatus::Ok);
}

TEST(MemoryMap, ZeroSizeMapsNothing) {
  Memory mem;
  mem.map(0x5000, 0);
  EXPECT_FALSE(mem.isMapped(0x5000));
}

// --- TLB invalidation -------------------------------------------------------

// Restoring a snapshot (`mem = snap.fork()`, as restoreCheckpoint does)
// must drop cached translations: a load served from the TLB before the
// restore must not be served from the old page after it.
TEST(MemoryTlb, SnapshotRestoreInvalidatesReadTlb) {
  Memory a;
  a.map(0x1000, kPage);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x11), MemStatus::Ok);

  const MemorySnapshot snap = MemorySnapshot::capture(a);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x22), MemStatus::Ok); // CoW break

  // Warm a's read TLB on the post-break page.
  std::uint64_t v = 0;
  ASSERT_EQ(a.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x22u);

  a = snap.fork();
  ASSERT_EQ(a.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x11u) << "stale read-TLB entry survived the restore";
}

// The write TLB only ever caches exclusively-owned pages; a cached write
// translation must not let a store scribble on pages that became shared.
TEST(MemoryTlb, SnapshotCaptureAfterWarmWriteTlbStillCopiesOnWrite) {
  Memory a;
  a.map(0x1000, kPage);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x11), MemStatus::Ok);

  const MemorySnapshot snap = MemorySnapshot::capture(a);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x22), MemStatus::Ok);

  Memory forked = snap.fork();
  std::uint64_t v = 0;
  ASSERT_EQ(forked.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x11u) << "snapshot saw a store made after capture()";
}

// Moves transfer the page table; neither side may keep translations into
// pages it no longer (exclusively) owns.
TEST(MemoryTlb, MoveConstructInvalidatesBothSides) {
  Memory a;
  a.map(0x1000, kPage);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x11), MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(a.load(0x1000, MType::I64, v), MemStatus::Ok); // warm both TLBs

  Memory b(std::move(a));
  ASSERT_EQ(b.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x11u);

  // Moved-from object is an empty address space; cached entries must not
  // resurrect the old pages.
  EXPECT_EQ(a.load(0x1000, MType::I64, v), MemStatus::Unmapped);
  EXPECT_EQ(a.store(0x1000, MType::I64, 0x33), MemStatus::Unmapped);
  ASSERT_EQ(b.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x11u);
}

TEST(MemoryTlb, MoveAssignInvalidatesTargetTlb) {
  Memory a;
  a.map(0x1000, kPage);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0xAA), MemStatus::Ok);

  Memory b;
  b.map(0x1000, kPage);
  ASSERT_EQ(b.store(0x1000, MType::I64, 0xBB), MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(b.load(0x1000, MType::I64, v), MemStatus::Ok); // warm b's TLB

  b = std::move(a);
  ASSERT_EQ(b.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0xAAu) << "move-assignment left the target's old TLB live";
}

// The interleaving the fast interpreter depends on: map() of a fresh page
// after a load miss cached "unmapped is impossible" state nowhere — a TLB
// entry for page P must not shadow a later map() that replaces P's backing.
TEST(MemoryTlb, MapInvalidatesExistingTranslations) {
  Memory a;
  a.map(0x1000, kPage);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x11), MemStatus::Ok);
  const MemorySnapshot snap = MemorySnapshot::capture(a);
  // page now shared; a's write TLB was flushed by capture()

  // map() of an overlapping range keeps existing pages but must flush, so
  // the next store re-checks sharing and breaks CoW.
  a.map(0x1000, kPage);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x22), MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(snap.fork().load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x11u);
}

// --- struck pages stay out of the TLB ----------------------------------------

// Is `pageNo` cached in the (read, write) TLB views? Reads the raw entry
// arrays the JIT addresses, so a lookup cannot refill what it inspects.
std::pair<bool, bool> cached(const Memory& mem, std::uint64_t pageNo) {
  const auto [readTlb, writeTlb] = mem.jitTlbView();
  const std::size_t slot = pageNo & (Memory::kTlbEntries - 1);
  return {(*static_cast<const Memory::Tlb*>(readTlb))[slot].pageNo == pageNo,
          (*static_cast<const Memory::Tlb*>(writeTlb))[slot].pageNo == pageNo};
}

// The software TLB is the only gate between the fast loop's inline paths
// and the checked typed accessors: a page holding a word struck under ECC
// must never be handed out by readPage()/writePage(), while Memory's own
// accessors still reach it. Once its struck word settles, the page caches
// again.
TEST(MemoryEccTlb, InjectFaultEvictsStruckPageFromBothViews) {
  Memory mem;
  mem.map(0x1000, 2 * kPage);
  const std::uint64_t pn = 0x1000 / kPage;
  ASSERT_EQ(mem.store(0x1008, MType::I64, 0x1234), MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(mem.load(0x1008, MType::I64, v), MemStatus::Ok);
  ASSERT_EQ(cached(mem, pn), std::make_pair(true, true));

  ASSERT_TRUE(mem.injectFault(0x1008, {5}, vm::EccMode::Secded));
  EXPECT_EQ(cached(mem, pn), std::make_pair(false, false));
  EXPECT_EQ(mem.readPage(pn), nullptr);
  EXPECT_EQ(mem.writePage(pn), nullptr);
  EXPECT_TRUE(mem.isMapped(0x1008));

  // A store to a neighbouring word that was not struck reaches the page
  // through the typed accessor and keeps it out of both views.
  ASSERT_EQ(mem.store(0x1010, MType::I64, 7), MemStatus::Ok);
  EXPECT_EQ(cached(mem, pn), std::make_pair(false, false));
  EXPECT_EQ(mem.readPage(pn), nullptr);
  EXPECT_EQ(mem.writePage(pn), nullptr);

  // The neighbouring page holds no struck word and caches as usual.
  EXPECT_NE(mem.readPage(pn + 1), nullptr);
  EXPECT_NE(mem.writePage(pn + 1), nullptr);

  // The correcting load settles the word and lets the page back in.
  ASSERT_EQ(mem.load(0x1008, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x1234u);
  EXPECT_EQ(mem.eccCorrected(), 1u);
  EXPECT_NE(mem.readPage(pn), nullptr);
  EXPECT_NE(mem.writePage(pn), nullptr);
  EXPECT_EQ(cached(mem, pn), std::make_pair(true, true));

  // So does a full-word overwrite of a struck word, uncorrectable or not.
  ASSERT_TRUE(mem.injectFault(0x1008, {5, 6}, vm::EccMode::Secded));
  EXPECT_EQ(mem.readPage(pn), nullptr);
  ASSERT_EQ(mem.store(0x1008, MType::I64, 9), MemStatus::Ok);
  EXPECT_NE(mem.readPage(pn), nullptr);
  EXPECT_NE(mem.writePage(pn), nullptr);
  EXPECT_EQ(cached(mem, pn), std::make_pair(true, true));
  EXPECT_EQ(mem.eccUncorrectable(), 0u);
}

// A snapshot taken before the strike holds no struck word, so an address
// space forked from it caches the page again.
TEST(MemoryEccTlb, ForkOfPreStrikeSnapshotCachesPageAgain) {
  Memory mem;
  mem.map(0x1000, kPage);
  const std::uint64_t pn = 0x1000 / kPage;
  const MemorySnapshot before = MemorySnapshot::capture(mem);
  ASSERT_TRUE(mem.injectFault(0x1000, {0}, vm::EccMode::Secded));
  ASSERT_EQ(mem.readPage(pn), nullptr);

  Memory f = before.fork();
  EXPECT_NE(f.readPage(pn), nullptr);
  EXPECT_NE(f.writePage(pn), nullptr);
  EXPECT_EQ(cached(f, pn), std::make_pair(true, true));
}

// A strike under EccMode::Off records nothing: the flip lands silently and
// the page stays in both views.
TEST(MemoryEccTlb, StrikeWithEccOffLeavesPageCached) {
  Memory mem;
  mem.map(0x1000, kPage);
  const std::uint64_t pn = 0x1000 / kPage;
  ASSERT_EQ(mem.store(0x1000, MType::I64, 1), MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(mem.load(0x1000, MType::I64, v), MemStatus::Ok);
  ASSERT_EQ(cached(mem, pn), std::make_pair(true, true));

  ASSERT_TRUE(mem.injectFault(0x1000, {1}, vm::EccMode::Off));
  EXPECT_EQ(cached(mem, pn), std::make_pair(true, true));
  EXPECT_NE(mem.readPage(pn), nullptr);
  EXPECT_NE(mem.writePage(pn), nullptr);
  ASSERT_EQ(mem.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 3u);
}

// --- copy-on-write sharing (page-allocation accounting) ---------------------

TEST(MemoryCow, SnapshotForkAllocatesNoPagesUntilStore) {
  Memory a;
  a.map(0, 8 * kPage);
  const std::uint64_t before = Memory::pageAllocCount();
  const MemorySnapshot snap = MemorySnapshot::capture(a);
  Memory b = snap.fork();
  EXPECT_EQ(Memory::pageAllocCount(), before)
      << "capture()/fork() deep-copied pages";

  // First store to a shared page copies exactly that one page.
  ASSERT_EQ(b.store(3 * kPage + 8, MType::I64, 7), MemStatus::Ok);
  EXPECT_EQ(Memory::pageAllocCount(), before + 1);
  // Second store to the same (now exclusive) page copies nothing.
  ASSERT_EQ(b.store(3 * kPage + 16, MType::I64, 8), MemStatus::Ok);
  EXPECT_EQ(Memory::pageAllocCount(), before + 1);
}

TEST(MemoryCow, SnapshotForkSharesAllPages) {
  Memory a;
  a.map(0, 16 * kPage);
  ASSERT_EQ(a.store(0, MType::I64, 42), MemStatus::Ok);
  const MemorySnapshot snap = MemorySnapshot::capture(a);

  const std::uint64_t before = Memory::pageAllocCount();
  Memory f1 = snap.fork();
  Memory f2 = snap.fork();
  EXPECT_EQ(Memory::pageAllocCount(), before) << "fork() deep-copied pages";

  // Forks are isolated from each other and from the source.
  ASSERT_EQ(f1.store(0, MType::I64, 100), MemStatus::Ok);
  ASSERT_EQ(f2.store(0, MType::I64, 200), MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(a.load(0, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 42u);
  ASSERT_EQ(f1.load(0, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 100u);
  ASSERT_EQ(f2.load(0, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 200u);
  EXPECT_EQ(Memory::pageAllocCount(), before + 2); // one CoW break per fork
}

TEST(MemoryCow, SnapshotComparePagesByIdentityThenContent) {
  Memory a;
  a.map(0, 4 * kPage);
  ASSERT_EQ(a.store(kPage, MType::I64, 42), MemStatus::Ok);
  const MemorySnapshot snap = MemorySnapshot::capture(a);

  // Every page still shared: equal without a single content comparison.
  Memory f = snap.fork();
  EXPECT_EQ(snap.compare(f), std::optional<std::size_t>(0));

  // A store of the value already there copies the page: equal, but by
  // content, and only that page is compared.
  ASSERT_EQ(f.store(kPage, MType::I64, 42), MemStatus::Ok);
  EXPECT_EQ(snap.compare(f), std::optional<std::size_t>(1));

  // One byte off in a copied page.
  ASSERT_EQ(f.store(kPage + 4095, MType::I8, 1), MemStatus::Ok);
  EXPECT_EQ(snap.compare(f), std::nullopt);
  ASSERT_EQ(f.store(kPage + 4095, MType::I8, 0), MemStatus::Ok);
  EXPECT_EQ(snap.compare(f), std::optional<std::size_t>(1));

  // A zero page mapped on one side only, either side.
  f.map(8 * kPage, 8);
  EXPECT_EQ(snap.compare(f), std::nullopt);
  a.map(8 * kPage, 8);
  const MemorySnapshot wider = MemorySnapshot::capture(a);
  EXPECT_EQ(wider.compare(snap.fork()), std::nullopt);
}

// The words struck under ECC are part of the compared state: equal bytes
// with a different struck set are a difference, either side.
TEST(MemoryCow, SnapshotCompareCountsStruckWords) {
  Memory a;
  a.map(0, kPage);
  const MemorySnapshot clean = MemorySnapshot::capture(a);

  // Two strikes on the same bit put the bytes back, but the word stays
  // struck until it settles.
  Memory f = clean.fork();
  ASSERT_TRUE(f.injectFault(8, {3}, vm::EccMode::Secded));
  ASSERT_TRUE(f.injectFault(8, {3}, vm::EccMode::Secded));
  EXPECT_EQ(clean.compare(f), std::nullopt);
  EXPECT_EQ(MemorySnapshot::capture(f).compare(clean.fork()), std::nullopt);

  // A load settles it, and the address spaces are equal again.
  std::uint64_t v = 1;
  ASSERT_EQ(f.load(8, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(f.eccCorrected(), 0u);
  EXPECT_EQ(clean.compare(f), std::optional<std::size_t>(1));
}

// --- typed accessors, plain and CoW-forked ----------------------------------

// The accessor semantics (extension rules, alignment faults, page-spanning
// raw access) must hold identically on an address space whose pages are
// CoW-shared with a snapshot — the campaign per-trial configuration.
class MemoryAccessors : public ::testing::TestWithParam<bool> {
protected:
  // Returns a Memory with [0x1000, 0x3000) mapped; when the param is true,
  // every page is CoW-shared with `snap_`.
  Memory make() {
    Memory m;
    m.map(0x1000, 2 * kPage);
    if (GetParam()) {
      snap_ = MemorySnapshot::capture(m);
      return snap_.fork();
    }
    return m;
  }
  MemorySnapshot snap_;
};

TEST_P(MemoryAccessors, I8LoadZeroExtends) {
  Memory m = make();
  ASSERT_EQ(m.store(0x1001, MType::I8, static_cast<std::uint64_t>(-2)),
            MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(m.load(0x1001, MType::I8, v), MemStatus::Ok);
  EXPECT_EQ(v, 0xfeu);
}

TEST_P(MemoryAccessors, I32LoadSignExtends) {
  Memory m = make();
  ASSERT_EQ(m.store(0x1004, MType::I32, static_cast<std::uint64_t>(-7)),
            MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(m.load(0x1004, MType::I32, v), MemStatus::Ok);
  EXPECT_EQ(static_cast<std::int64_t>(v), -7);
}

TEST_P(MemoryAccessors, I64RoundTripsRaw) {
  Memory m = make();
  const std::uint64_t pattern = 0x8000'0000'dead'beefull;
  ASSERT_EQ(m.store(0x1008, MType::I64, pattern), MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(m.load(0x1008, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, pattern);
}

TEST_P(MemoryAccessors, MisalignmentFaultsAtEveryWidth) {
  Memory m = make();
  std::uint64_t v;
  double fv;
  EXPECT_EQ(m.load(0x1002, MType::I32, v), MemStatus::Misaligned);
  EXPECT_EQ(m.load(0x1004, MType::I64, v), MemStatus::Misaligned);
  EXPECT_EQ(m.loadF(0x1002, MType::F32, fv), MemStatus::Misaligned);
  EXPECT_EQ(m.loadF(0x100c, MType::F64, fv), MemStatus::Misaligned);
  EXPECT_EQ(m.store(0x1002, MType::I32, 0), MemStatus::Misaligned);
  EXPECT_EQ(m.store(0x1004, MType::I64, 0), MemStatus::Misaligned);
  EXPECT_EQ(m.storeF(0x1002, MType::F32, 0.0), MemStatus::Misaligned);
  EXPECT_EQ(m.storeF(0x100c, MType::F64, 0.0), MemStatus::Misaligned);
}

TEST_P(MemoryAccessors, BytesSpanPageBoundary) {
  Memory m = make();
  std::uint8_t data[64];
  for (int i = 0; i < 64; ++i) data[i] = static_cast<std::uint8_t>(i * 3);
  const std::uint64_t addr = 0x2000 - 32; // straddles the two mapped pages
  ASSERT_TRUE(m.writeBytes(addr, data, 64));
  std::uint8_t back[64] = {};
  ASSERT_TRUE(m.readBytes(addr, back, 64));
  EXPECT_EQ(std::memcmp(data, back, 64), 0);
  // Running past the mapped range fails without partial-write confusion.
  EXPECT_FALSE(m.readBytes(0x3000 - 8, back, 16));
}

INSTANTIATE_TEST_SUITE_P(PlainAndCowForked, MemoryAccessors,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CowForked" : "Plain";
                         });

} // namespace
} // namespace care::test
