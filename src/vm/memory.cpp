#include "vm/memory.hpp"

#include <algorithm>
#include <cstring>

#include "support/error.hpp"

namespace care::vm {

using backend::MType;
using backend::mtypeSize;

namespace {
// Fresh page allocations (initial maps + CoW breaks), process-wide. Tests
// read deltas of this to prove that snapshots and checkpoints share pages
// instead of deep-copying.
std::atomic<std::uint64_t> gPageAllocs{0};

/// First entry of a sorted page table at or after `pageNo`.
template <class PageMap>
auto lowerBound(PageMap& pages, std::uint64_t pageNo) {
  return std::lower_bound(
      pages.begin(), pages.end(), pageNo,
      [](const auto& entry, std::uint64_t p) { return entry.first < p; });
}

/// The storage slot of `pageNo`, or null when it is unmapped.
template <class PageMap>
auto* findPage(PageMap& pages, std::uint64_t pageNo) {
  auto it = lowerBound(pages, pageNo);
  return it != pages.end() && it->first == pageNo ? &it->second : nullptr;
}
} // namespace

std::uint64_t Memory::pageAllocCount() {
  return gPageAllocs.load(std::memory_order_relaxed);
}

void Memory::map(std::uint64_t addr, std::uint64_t size) {
  if (size > ~0ull - addr)
    raise("Memory::map: address range wraps the 64-bit space");
  const std::uint64_t end = addr + size;
  const std::uint64_t first = addr / kPageSize;
  // ceil(end / kPageSize), computed in page numbers so the rounding itself
  // cannot wrap even when `end` is within a page of 2^64.
  const std::uint64_t last = end / kPageSize + (end % kPageSize != 0 ? 1 : 0);
  for (std::uint64_t p = first; p < last; ++p) {
    auto it = lowerBound(pages_, p);
    if (it != pages_.end() && it->first == p) continue;
    auto page = std::make_shared<Page>();
    page->fill(0);
    gPageAllocs.fetch_add(1, std::memory_order_relaxed);
    pages_.emplace(it, p, std::move(page));
  }
  flushTlb();
}

bool Memory::isMapped(std::uint64_t addr) const {
  return mappedPage(addr / kPageSize) != nullptr;
}

const std::uint8_t* Memory::readMiss(std::uint64_t pageNo,
                                     bool gatedToo) const {
  const bool hidden = gated(pageNo);
  if (hidden && !gatedToo) return nullptr;
  const auto* slot = findPage(pages_, pageNo);
  if (!slot) return nullptr;
  if (!hidden) {
    TlbEntry& e = readTlb_[pageNo & (kTlbEntries - 1)];
    e.pageNo = pageNo;
    e.data = (*slot)->data();
  }
  return (*slot)->data();
}

std::uint8_t* Memory::writeMiss(std::uint64_t pageNo, bool gatedToo) {
  const bool hidden = gated(pageNo);
  if (hidden && !gatedToo) return nullptr;
  std::shared_ptr<Page>* found = findPage(pages_, pageNo);
  if (!found) return nullptr;
  std::shared_ptr<Page>& slot = *found;
  if (slot.use_count() > 1) {
    // Copy-on-write break: this page is shared with a snapshot or fork.
    slot = std::make_shared<Page>(*slot);
    gPageAllocs.fetch_add(1, std::memory_order_relaxed);
    // A read-TLB entry may still point at the old shared storage.
    TlbEntry& r = readTlb_[pageNo & (kTlbEntries - 1)];
    if (r.pageNo == pageNo) r.data = slot->data();
  }
  if (!hidden) {
    TlbEntry& e = writeTlb_[pageNo & (kTlbEntries - 1)];
    e.pageNo = pageNo;
    e.data = slot->data();
  }
  return slot->data();
}

void Memory::flushTlb() const {
  readTlb_.fill(TlbEntry{});
  writeTlb_.fill(TlbEntry{});
}

void Memory::flushWriteTlb() const { writeTlb_.fill(TlbEntry{}); }

void Memory::evict(std::uint64_t pageNo) const {
  for (Tlb* tlb : {&readTlb_, &writeTlb_})
    if ((*tlb)[pageNo & (kTlbEntries - 1)].pageNo == pageNo)
      (*tlb)[pageNo & (kTlbEntries - 1)] = TlbEntry{};
}

void Memory::watch(const std::vector<std::uint64_t>& words) {
  for (std::uint64_t w : words)
    if (watched_.insert(w).second) evict(w / kPageSize);
}

void Memory::record(std::uint64_t word, Access kind) const {
  if (watched_.erase(word) > 0) traceSink_->push_back({word, kind});
}

Memory::Memory(Memory&& other) noexcept { *this = std::move(other); }

Memory& Memory::operator=(Memory&& other) noexcept {
  if (this != &other) {
    pages_ = std::exchange(other.pages_, {});
    struck_ = std::exchange(other.struck_, {});
    eccCorrected_ = std::exchange(other.eccCorrected_, 0);
    eccUncorrectable_ = std::exchange(other.eccUncorrectable_, 0);
    other.flushTlb();
    flushTlb();
  }
  return *this;
}

MemStatus Memory::load(std::uint64_t addr, MType type,
                       std::uint64_t& out) const {
  const unsigned size = mtypeSize(type);
  if (addr % size != 0) return MemStatus::Misaligned;
  if (eccActive()) {
    // Check (and correct in place) the containing word before reading.
    // eccCheckWord only mutates ECC bookkeeping and corrected page bytes —
    // logically a mutable cache repair, hence the const_cast.
    const MemStatus es =
        const_cast<Memory*>(this)->eccCheckWord(addr & ~7ull);
    if (es != MemStatus::Ok) return es;
  }
  const std::uint8_t* page = mappedPage(addr / kPageSize);
  if (!page) return MemStatus::Unmapped;
  if (traceSink_) record(addr & ~7ull, Access::Check);
  const std::uint64_t off = addr % kPageSize; // size-aligned: no page split
  std::uint64_t raw = 0;
  std::memcpy(&raw, page + off, size);
  switch (type) {
  case MType::I8: out = raw & 0xff; break;
  case MType::I32:
    out = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(raw)));
    break;
  default: out = raw; break;
  }
  return MemStatus::Ok;
}

MemStatus Memory::loadF(std::uint64_t addr, MType type, double& out) const {
  const unsigned size = mtypeSize(type);
  if (addr % size != 0) return MemStatus::Misaligned;
  if (eccActive()) {
    const MemStatus es =
        const_cast<Memory*>(this)->eccCheckWord(addr & ~7ull);
    if (es != MemStatus::Ok) return es;
  }
  const std::uint8_t* page = mappedPage(addr / kPageSize);
  if (!page) return MemStatus::Unmapped;
  if (traceSink_) record(addr & ~7ull, Access::Check);
  const std::uint64_t off = addr % kPageSize;
  if (type == MType::F32) {
    float f;
    std::memcpy(&f, page + off, 4);
    out = static_cast<double>(f);
  } else {
    std::memcpy(&out, page + off, 8);
  }
  return MemStatus::Ok;
}

MemStatus Memory::store(std::uint64_t addr, MType type, std::uint64_t v) {
  const unsigned size = mtypeSize(type);
  if (addr % size != 0) return MemStatus::Misaligned;
  // A sub-word store must check the word first: settling it unchecked
  // would launder a latent error in the bytes it does not overwrite.
  if (eccActive() && size < 8) {
    const MemStatus es = eccCheckWord(addr & ~7ull);
    if (es != MemStatus::Ok) return es;
  }
  std::uint8_t* page = mappedPageForWrite(addr / kPageSize);
  if (!page) return MemStatus::Unmapped;
  if (traceSink_)
    record(addr & ~7ull, size < 8 ? Access::Check : Access::Overwrite);
  std::memcpy(page + addr % kPageSize, &v, size);
  if (eccActive() && size == 8) struck_.erase(addr); // overwritten: settled
  return MemStatus::Ok;
}

MemStatus Memory::storeF(std::uint64_t addr, MType type, double v) {
  const unsigned size = mtypeSize(type);
  if (addr % size != 0) return MemStatus::Misaligned;
  if (eccActive() && size < 8) {
    const MemStatus es = eccCheckWord(addr & ~7ull);
    if (es != MemStatus::Ok) return es;
  }
  std::uint8_t* page = mappedPageForWrite(addr / kPageSize);
  if (!page) return MemStatus::Unmapped;
  if (traceSink_)
    record(addr & ~7ull, size < 8 ? Access::Check : Access::Overwrite);
  if (type == MType::F32) {
    const float f = static_cast<float>(v);
    std::memcpy(page + addr % kPageSize, &f, 4);
  } else {
    std::memcpy(page + addr % kPageSize, &v, 8);
  }
  if (eccActive() && size == 8) struck_.erase(addr); // overwritten: settled
  return MemStatus::Ok;
}

bool Memory::readBytes(std::uint64_t addr, void* out,
                       std::uint64_t len) const {
  auto* dst = static_cast<std::uint8_t*>(out);
  while (len > 0) {
    const std::uint8_t* page = mappedPage(addr / kPageSize);
    if (!page) return false;
    const std::uint64_t off = addr % kPageSize;
    const std::uint64_t chunk = std::min(len, kPageSize - off);
    std::memcpy(dst, page + off, chunk);
    dst += chunk;
    addr += chunk;
    len -= chunk;
  }
  return true;
}

bool Memory::writeBytes(std::uint64_t addr, const void* data,
                        std::uint64_t len) {
  const std::uint64_t start = addr;
  const auto* src = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    std::uint8_t* page = mappedPageForWrite(addr / kPageSize);
    if (!page) return false;
    const std::uint64_t off = addr % kPageSize;
    const std::uint64_t chunk = std::min(len, kPageSize - off);
    std::memcpy(page + off, src, chunk);
    src += chunk;
    addr += chunk;
    len -= chunk;
  }
  // Raw writes (loader init, register-model repair writeback) settle every
  // word they touch: the written bytes become the protected truth, as a
  // full overwrite through the typed path would.
  if (eccActive())
    struck_.erase(struck_.lower_bound(start & ~7ull),
                  struck_.lower_bound(addr));
  if (traceSink_)
    for (std::uint64_t w = start & ~7ull; w < addr; w += 8)
      record(w, Access::Overwrite);
  return true;
}

std::vector<std::uint64_t> Memory::pageNumbers() const {
  std::vector<std::uint64_t> out;
  out.reserve(pages_.size());
  for (const auto& [pageNo, page] : pages_) out.push_back(pageNo);
  return out;
}

bool Memory::injectFault(std::uint64_t addr, const std::vector<unsigned>& bits,
                         EccMode mode) {
  const std::uint64_t wordAddr = addr & ~7ull;
  const std::uint64_t pageNo = wordAddr / kPageSize;
  std::uint8_t* page = mappedPageForWrite(pageNo);
  if (!page) return false;
  const std::uint64_t off = wordAddr % kPageSize;
  std::uint64_t word = 0;
  std::memcpy(&word, page + off, 8);
  if (mode != EccMode::Off) {
    StruckWord pre{ecc::secdedEncode(word), std::nullopt};
    if (mode == EccMode::SecdedCrc) pre.crc = ecc::crc64Word(word);
    struck_.try_emplace(wordAddr, pre); // a struck word keeps its record
    // Evict: from here on every access to the page takes a typed accessor.
    evict(pageNo);
  }
  for (unsigned b : bits) word ^= 1ull << (b & 63);
  std::memcpy(page + off, &word, 8);
  return true;
}

ecc::Secded Memory::eccVerdict(const StruckWord& sw, std::uint64_t word,
                               std::uint64_t& fixed) {
  fixed = word;
  const ecc::Secded r = ecc::secdedDecode(fixed, sw.code);
  // Under secded,crc the pre-fault CRC arbitrates: SECDED can alias a wide
  // burst to "clean" or to a bogus single-bit fix.
  if (sw.crc && ecc::crc64Word(fixed) != *sw.crc)
    return ecc::Secded::Uncorrectable;
  return r;
}

MemStatus Memory::eccCheckWord(std::uint64_t wordAddr) {
  const auto it = struck_.find(wordAddr);
  if (it == struck_.end()) return MemStatus::Ok;
  const std::uint64_t pageNo = wordAddr / kPageSize;
  const std::uint64_t off = wordAddr % kPageSize;
  std::uint64_t word = 0;
  std::memcpy(&word, mappedPage(pageNo) + off, 8); // pages never unmap
  std::uint64_t fixed = 0;
  const ecc::Secded r = eccVerdict(it->second, word, fixed);
  if (r == ecc::Secded::Uncorrectable) {
    ++eccUncorrectable_;
    return MemStatus::EccUncorrectable;
  }
  if (r == ecc::Secded::Corrected) {
    ++eccCorrected_;
    if (fixed != word) std::memcpy(mappedPageForWrite(pageNo) + off, &fixed, 8);
  }
  struck_.erase(it);
  return MemStatus::Ok;
}

std::optional<std::uint64_t>
Memory::eccCheckedValue(std::uint64_t wordAddr) const {
  const std::uint8_t* page = mappedPage(wordAddr / kPageSize);
  if (!page) return std::nullopt;
  std::uint64_t word = 0;
  std::memcpy(&word, page + wordAddr % kPageSize, 8);
  const auto it = struck_.find(wordAddr);
  if (it == struck_.end()) return word;
  std::uint64_t fixed = 0;
  if (eccVerdict(it->second, word, fixed) == ecc::Secded::Uncorrectable)
    return std::nullopt;
  return fixed;
}

std::pair<std::uint64_t, std::uint64_t> Memory::scrubEcc() {
  const std::uint64_t c0 = eccCorrected_, u0 = eccUncorrectable_;
  // Step past each word before checking it: a check that settles the word
  // erases its entry.
  for (auto it = struck_.begin(); it != struck_.end();)
    (void)eccCheckWord((it++)->first);
  return {eccCorrected_ - c0, eccUncorrectable_ - u0};
}

MemorySnapshot MemorySnapshot::capture(Memory& m) {
  m.flushWriteTlb();
  MemorySnapshot s;
  s.pages_ = m.pages_;
  s.struck_ = m.struck_;
  return s;
}

Memory MemorySnapshot::fork() const {
  // Only copies the page table and struck words and bumps atomic
  // refcounts — safe to call concurrently from campaign worker threads.
  // The ECC counters do not travel with the snapshot;
  // Executor::restoreCheckpoint carries them.
  Memory out;
  out.pages_ = pages_;
  out.struck_ = struck_;
  return out;
}

std::optional<std::size_t>
MemorySnapshot::compare(const Memory& m,
                        std::optional<std::uint64_t> exceptWord) const {
  if (m.pages_.size() != pages_.size()) return std::nullopt;
  if (!exceptWord) {
    if (m.struck_ != struck_) return std::nullopt;
  } else {
    auto without = [&](const Memory::StruckWords& s) {
      Memory::StruckWords out = s;
      out.erase(*exceptWord);
      return out;
    };
    if (without(m.struck_) != without(struck_)) return std::nullopt;
  }
  const std::uint64_t skipPage =
      exceptWord ? *exceptWord / Memory::kPageSize : ~0ull;
  const std::uint64_t skipOff = exceptWord ? *exceptWord % Memory::kPageSize : 0;
  std::size_t compared = 0;
  for (std::size_t i = 0; i < pages_.size(); ++i) {
    const auto& [pageNo, page] = pages_[i];
    const auto& [livePageNo, livePage] = m.pages_[i];
    if (livePageNo != pageNo) return std::nullopt;
    if (livePage == page) continue;
    ++compared;
    const std::uint8_t* a = livePage->data();
    const std::uint8_t* b = page->data();
    const bool same =
        pageNo != skipPage
            ? std::memcmp(a, b, Memory::kPageSize) == 0
            : std::memcmp(a, b, skipOff) == 0 &&
                  std::memcmp(a + skipOff + 8, b + skipOff + 8,
                              Memory::kPageSize - skipOff - 8) == 0;
    if (!same) return std::nullopt;
  }
  return compared;
}

std::optional<std::uint64_t>
MemorySnapshot::readWord(std::uint64_t wordAddr) const {
  const auto* slot = findPage(pages_, wordAddr / Memory::kPageSize);
  if (!slot) return std::nullopt;
  std::uint64_t word = 0;
  std::memcpy(&word, (*slot)->data() + wordAddr % Memory::kPageSize, 8);
  return word;
}

std::vector<std::uint64_t> MemorySnapshot::pageNumbers() const {
  std::vector<std::uint64_t> out;
  out.reserve(pages_.size());
  for (const auto& [pageNo, page] : pages_) out.push_back(pageNo);
  return out;
}

} // namespace care::vm
