// Sparse paged memory for the VM.
//
// A 64-bit address space backed by 4 KiB pages allocated on demand by the
// loader. Accessing an unmapped page raises the SegFault trap — the VM
// analogue of the hardware page-fault -> SIGSEGV path that CARE's entire
// recovery strategy keys off. Misaligned accesses raise Bus (SIGBUS).
//
// Two performance mechanisms back the VM fast path:
//
//  * a software TLB: two small direct-mapped translation caches (separate
//    read and write views) in front of the page table, explicitly flushed
//    on map()/moves and on copy-on-write breaks. A page holding a word
//    struck under ECC, or a word the access recorder watches, never enters
//    either view, so a miss is the one gate to the checked, recording
//    typed accessors;
//  * copy-on-write pages: pages are shared_ptr-backed, so
//    MemorySnapshot::capture() / fork() share page storage and a store
//    copies only the page it touches. The write TLB only ever caches pages
//    that are exclusively owned, which is what makes the hit path a plain
//    pointer compare.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "backend/mir.hpp"
#include "vm/ecc.hpp"

namespace care::vm {

enum class MemStatus : std::uint8_t {
  Ok,
  Unmapped,
  Misaligned,
  /// An ECC-protected word failed its SECDED check beyond repair (double
  /// bit, or a CRC-scrub mismatch in secded,crc mode).
  EccUncorrectable,
};

class MemorySnapshot;

class Memory {
public:
  static constexpr std::uint64_t kPageSize = 4096;
  static constexpr std::uint64_t kPageShift = 12;
  /// Direct-mapped TLB entries per view (read/write). Power of two.
  static constexpr std::size_t kTlbEntries = 64;

  /// Map all pages covering [addr, addr+size), zero-filled. Throws
  /// care::Error if the page-rounded range wraps the 64-bit address space.
  void map(std::uint64_t addr, std::uint64_t size);
  bool isMapped(std::uint64_t addr) const;

  /// Typed accesses with natural-alignment checks. Integer loads return the
  /// value sign-extended (I32) or zero-extended (I8) into `out`.
  MemStatus load(std::uint64_t addr, backend::MType type,
                 std::uint64_t& out) const;
  MemStatus loadF(std::uint64_t addr, backend::MType type, double& out) const;
  MemStatus store(std::uint64_t addr, backend::MType type, std::uint64_t v);
  MemStatus storeF(std::uint64_t addr, backend::MType type, double v);

  /// Raw access for loader initialization and the fault injector; addr range
  /// must be mapped.
  bool readBytes(std::uint64_t addr, void* out, std::uint64_t len) const;
  bool writeBytes(std::uint64_t addr, const void* data, std::uint64_t len);

  std::uint64_t mappedBytes() const { return pages_.size() * kPageSize; }

  /// Sorted page numbers of every mapped page (fault-site sampling and
  /// memory digests).
  std::vector<std::uint64_t> pageNumbers() const;

  /// --- ECC layer (DESIGN.md §4i) -------------------------------------
  ///
  /// SECDED(72,64) over the words struck under ECC. Only injectFault() can
  /// make a word disagree with its code, so every word it did not strike
  /// is clean, and the ECC state is just the struck words: for each, the
  /// code byte of its pre-fault value and, under secded,crc, that value's
  /// CRC. Typed loads check (and correct) the containing 64-bit word
  /// before reading; sub-word stores check first so a latent corrupted
  /// neighbour byte is never laundered. A word that checks out, or that a
  /// full-word store or writeBytes() overwrites, settles: its record goes.
  /// An uncorrectable word stays struck and surfaces as
  /// MemStatus::EccUncorrectable on every check.
  std::uint64_t eccCorrected() const { return eccCorrected_; }
  std::uint64_t eccUncorrectable() const { return eccUncorrectable_; }
  /// Re-seat the counters (Executor::restoreCheckpoint re-applies them
  /// across the snapshot fork so rollbacks don't reset ECC accounting).
  void setEccCounters(std::uint64_t corrected, std::uint64_t uncorrectable) {
    eccCorrected_ = corrected;
    eccUncorrectable_ = uncorrectable;
  }

  /// The value a check of the word at `wordAddr` (8-aligned) would leave
  /// there, or nullopt when the check would fail (uncorrectable, or a CRC
  /// mismatch). A word that is not struck checks as its value. Pure: it
  /// touches no counter, record or byte.
  std::optional<std::uint64_t> eccCheckedValue(std::uint64_t wordAddr) const;

  /// --- Access recorder (the watch pass, DESIGN.md §4i) ----------------
  ///
  /// How an access meets a word's ECC record: a typed load or a sub-word
  /// store checks the word, a full-word store or writeBytes() overwrites
  /// it (memory.cpp applies exactly these rules to struck words).
  enum class Access : std::uint8_t { Check, Overwrite };
  struct WordAccess {
    std::uint64_t word; // aligned 64-bit word address
    Access kind;
  };
  /// Arm `sink` (nullptr disarms). Only watched words record: arming or
  /// disarming ends every watch, and an armed sink with no word watched
  /// stays empty. The caller owns the sink and drains it between
  /// runBounded() legs.
  void setAccessTrace(std::vector<WordAccess>* sink) {
    traceSink_ = sink;
    watched_.clear();
  }
  /// Watch `words` (8-aligned) on an armed trace: a watched word's first
  /// typed access appends the word and its kind (accesses are naturally
  /// aligned, so they touch one word), writeBytes() one Overwrite per
  /// word, and that first access ends its watch. A page holding a watched
  /// word stays out of both TLB views, like a page holding a struck word,
  /// so on every backend each of its accesses takes a typed accessor and
  /// the watch misses none.
  void watch(const std::vector<std::uint64_t>& words);

  /// Flip `bits` (positions 0..63) in the aligned 64-bit word containing
  /// `addr` — this is the soft fault. Under an ECC `mode` the word is
  /// struck: its pre-fault code byte (and, under secded,crc, CRC) is
  /// recorded, so the flip becomes a detectable mismatch, and its page
  /// leaves both TLB views until the word settles. A word already struck
  /// keeps its pre-fault record. Returns false if unmapped.
  bool injectFault(std::uint64_t addr, const std::vector<unsigned>& bits,
                   EccMode mode);

  /// Check every struck word in address order, correcting what SECDED can
  /// fix — the background-scrub analogue, run by the injector at end of
  /// trial so faults in never-again-read words still meet the detector.
  /// Returns {corrected, uncorrectable} deltas (also added to the
  /// counters).
  std::pair<std::uint64_t, std::uint64_t> scrubEcc();

  /// Fast-path page translation for the decoded-dispatch interpreter and
  /// the JIT's miss helpers. Returns the page's backing store, or nullptr
  /// if `pageNo` is unmapped or holds a struck word: the caller then takes
  /// the typed accessor, which raises the exact trap or checks the word.
  /// writePage() breaks copy-on-write sharing before returning.
  const std::uint8_t* readPage(std::uint64_t pageNo) const {
    const TlbEntry& e = readTlb_[pageNo & (kTlbEntries - 1)];
    if (e.pageNo == pageNo) return e.data;
    return readMiss(pageNo, false);
  }
  std::uint8_t* writePage(std::uint64_t pageNo) {
    const TlbEntry& e = writeTlb_[pageNo & (kTlbEntries - 1)];
    if (e.pageNo == pageNo) return e.data;
    return writeMiss(pageNo, false);
  }

  /// Process-wide count of page allocations (fresh maps + CoW copies).
  /// Lets tests assert that snapshots share instead of deep-copying.
  static std::uint64_t pageAllocCount();

  /// One direct-mapped TLB slot. Public only for the JIT, whose inline
  /// translation sequence addresses the arrays by fixed layout (asserted
  /// in jit.cpp): compare .pageNo, load .data at +8.
  struct TlbEntry {
    std::uint64_t pageNo = ~0ull;
    std::uint8_t* data = nullptr;
  };
  using Tlb = std::array<TlbEntry, kTlbEntries>;

  /// The raw (read, write) TLB entry arrays for emitted code. They are
  /// members of this Memory, so their addresses are stable across moves
  /// and restoreCheckpoint()'s `mem_ = snapshot.fork()` reseating.
  std::pair<void*, void*> jitTlbView() const {
    return {static_cast<void*>(&readTlb_), static_cast<void*>(&writeTlb_)};
  }

  Memory() = default;
  // Moves transfer the page table and explicitly reset both objects'
  // TLBs: the moved-from object must not retain pointers into pages it no
  // longer owns, and the target's old entries are meaningless.
  Memory(Memory&& other) noexcept;
  Memory& operator=(Memory&& other) noexcept;
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

private:
  friend class MemorySnapshot;

  using Page = std::array<std::uint8_t, kPageSize>;
  /// The page table, sorted by page number. A flat array, so a snapshot
  /// or fork copies one allocation instead of rebuilding a hash
  /// table; lookups binary-search it, on TLB misses only.
  using PageMap = std::vector<std::pair<std::uint64_t, std::shared_ptr<Page>>>;
  /// A word struck under ECC: the code byte of its pre-fault value and,
  /// under secded,crc, the pending pre-fault CRC.
  struct StruckWord {
    std::uint8_t code = 0;
    std::optional<std::uint64_t> crc;
    bool operator==(const StruckWord&) const = default;
  };
  /// Struck words by aligned word address.
  using StruckWords = std::map<std::uint64_t, StruckWord>;

  /// The page-table search after a TLB miss. It fills the view only for
  /// a page that is not gated; a gated page it returns only when
  /// `gatedToo`, which Memory's own accessors pass.
  const std::uint8_t* readMiss(std::uint64_t pageNo, bool gatedToo) const;
  std::uint8_t* writeMiss(std::uint64_t pageNo, bool gatedToo);
  /// Memory's own page lookup: any mapped page, copy-on-write broken for
  /// writes.
  const std::uint8_t* mappedPage(std::uint64_t pageNo) const {
    const TlbEntry& e = readTlb_[pageNo & (kTlbEntries - 1)];
    return e.pageNo == pageNo ? e.data : readMiss(pageNo, true);
  }
  std::uint8_t* mappedPageForWrite(std::uint64_t pageNo) {
    const TlbEntry& e = writeTlb_[pageNo & (kTlbEntries - 1)];
    return e.pageNo == pageNo ? e.data : writeMiss(pageNo, true);
  }
  /// A page neither TLB view may hold: it has a struck or a watched word.
  bool gated(std::uint64_t pageNo) const {
    if (struck_.empty() && watched_.empty()) return false;
    const std::uint64_t lo = pageNo * kPageSize;
    const auto s = struck_.lower_bound(lo);
    if (s != struck_.end() && s->first / kPageSize == pageNo) return true;
    const auto w = watched_.lower_bound(lo);
    return w != watched_.end() && *w / kPageSize == pageNo;
  }
  /// Drop `pageNo` from both TLB views.
  void evict(std::uint64_t pageNo) const;
  /// Append {word, kind} to the armed sink if the word is watched, ending
  /// its watch.
  void record(std::uint64_t word, Access kind) const;
  void flushTlb() const;
  void flushWriteTlb() const;

  /// True when a typed access must consult the struck words. Only
  /// injectFault() strikes, so clean runs pay one branch.
  bool eccActive() const { return !struck_.empty(); }
  /// Check/correct the word at `wordAddr` (8-aligned). Ok, and nothing
  /// decoded, when it is not struck.
  MemStatus eccCheckWord(std::uint64_t wordAddr);
  /// SECDED's (and, under secded,crc, the CRC's) verdict on struck word
  /// `sw` now holding `word`; `fixed` receives the decoded value. A CRC
  /// mismatch is Uncorrectable.
  static ecc::Secded eccVerdict(const StruckWord& sw, std::uint64_t word,
                                std::uint64_t& fixed);

  PageMap pages_;
  mutable Tlb readTlb_{};
  mutable Tlb writeTlb_{};
  std::uint64_t eccCorrected_ = 0;
  std::uint64_t eccUncorrectable_ = 0;
  StruckWords struck_;
  /// Armed by setAccessTrace(), filled by watch(); mutable so const loads
  /// can record. Not moved with the address space: a trace belongs to one
  /// executor's run.
  mutable std::vector<WordAccess>* traceSink_ = nullptr;
  mutable std::set<std::uint64_t> watched_;
};

/// An immutable, shareable image of an address space. capture() shares the
/// source's pages (flushing its write TLB so its later stores break the
/// sharing); fork() builds a CoW Memory from the snapshot and is safe to
/// call concurrently from many threads — the campaign engine captures the
/// post-initMemory image once and forks it per trial.
class MemorySnapshot {
public:
  MemorySnapshot() = default;

  static MemorySnapshot capture(Memory& m);
  Memory fork() const;

  bool empty() const { return pages_.empty(); }
  std::uint64_t mappedBytes() const {
    return pages_.size() * Memory::kPageSize;
  }
  /// Sorted page numbers (fault-site sampling over the golden image).
  std::vector<std::uint64_t> pageNumbers() const;

  /// Page-identity diff against a live address space: a page `m` still
  /// shares copy-on-write with this snapshot is equal without a look, and
  /// only the others are memcmp'd. Returns how many pages had to be
  /// compared by content, or nullopt when the contents differ (a byte, a
  /// page mapped on one side only, or the set of struck words).
  /// `exceptWord` (8-aligned) leaves one word out: its bytes and its
  /// struck record.
  std::optional<std::size_t>
  compare(const Memory& m,
          std::optional<std::uint64_t> exceptWord = std::nullopt) const;
  /// The aligned 64-bit word at `wordAddr`, or nullopt when unmapped.
  std::optional<std::uint64_t> readWord(std::uint64_t wordAddr) const;

private:
  Memory::PageMap pages_;
  // The struck words ride along so a rollback restores the exact detection
  // state captured at the checkpoint (the counters stay on the live
  // Memory; Executor::restoreCheckpoint carries them across fork()).
  Memory::StruckWords struck_;
};

} // namespace care::vm
