// Robustness tests for the shard result store: a damaged entry must be a
// miss (recompute), never a crash or a poisoned campaign.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "inject/result_store.hpp"
#include "inject/service.hpp"
#include "support/bytestream.hpp"
#include "support/md5.hpp"

namespace care::test {
namespace {

namespace fs = std::filesystem;
using inject::InjectionRecord;
using inject::ResultStore;

const char* kDir = "care_test_artifacts/result_store";
const char* kKey = "0123456789abcdef0123456789abcdef";

std::vector<InjectionRecord> sampleRecords(int count, int startNth) {
  std::vector<InjectionRecord> recs(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    InjectionRecord& r = recs[static_cast<std::size_t>(i)];
    r.point.loc.module = 0;
    r.point.loc.func = 1;
    r.point.loc.instr = 2 + i;
    r.point.nth = static_cast<std::uint64_t>(startNth + i);
    r.point.bits = {static_cast<unsigned>(i % 64)};
    r.plain.outcome = inject::Outcome::Benign;
    r.plain.instrsExecuted = 1000 + static_cast<std::uint64_t>(i);
    r.plain.replaySavedInstrs = 17;
    r.plain.injected = true;
    r.haveCare = (i % 2) == 0;
    if (r.haveCare) {
      r.withCare.outcome = inject::Outcome::Benign;
      r.withCare.careRecovered = true;
      r.withCare.recoveryUsTotal = 12.5;
      r.withCare.careFailReason = "";
    }
  }
  return recs;
}

class ResultStoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    fs::remove_all(kDir);
  }
};

TEST_F(ResultStoreTest, DisabledWhenDirOrKeyEmpty) {
  EXPECT_FALSE(ResultStore("", kKey).enabled());
  EXPECT_FALSE(ResultStore(kDir, "").enabled());
  EXPECT_FALSE(ResultStore("", "").enabled());
  EXPECT_TRUE(ResultStore(kDir, kKey).enabled());
}

TEST_F(ResultStoreTest, SaveLoadRoundTripsEveryField) {
  ResultStore store(kDir, kKey);
  const auto recs = sampleRecords(5, 100);
  ASSERT_TRUE(store.save(32, 5, recs));
  const auto back = store.load(32, 5);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    ByteWriter a, b;
    inject::writeRecordBytes(recs[i], a);
    inject::writeRecordBytes((*back)[i], b);
    EXPECT_EQ(a.data(), b.data()) << "record " << i;
  }
}

TEST_F(ResultStoreTest, EntryBytesArePinned) {
  // The on-disk entry format: a store warmed by an earlier build must stay
  // warm, so these bytes may change only with ResultStore::kVersion or
  // kExperimentCacheVersion.
  ResultStore store(kDir, kKey);
  ASSERT_TRUE(store.save(32, 5, sampleRecords(5, 100)));
  std::ifstream in(store.entryPath(32, 5), std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  Md5 h;
  h.update(bytes.data(), bytes.size());
  EXPECT_EQ(h.finish().hex(), "07f8a455367a971f67c749ac91187edf");
}

TEST_F(ResultStoreTest, MissingEntryIsAMiss) {
  ResultStore store(kDir, kKey);
  EXPECT_FALSE(store.load(0, 16).has_value());
}

TEST_F(ResultStoreTest, TruncatedEntryIsAMiss) {
  ResultStore store(kDir, kKey);
  ASSERT_TRUE(store.save(0, 4, sampleRecords(4, 0)));
  const std::string path = store.entryPath(0, 4);
  const auto size = fs::file_size(path);
  // Chop at several depths: inside the trailer, inside a record, inside
  // the header. All must be clean misses.
  for (const std::uintmax_t keep :
       {size - 1, size - 17, size / 2, std::uintmax_t(7)}) {
    ASSERT_TRUE(store.save(0, 4, sampleRecords(4, 0)));
    fs::resize_file(path, keep);
    EXPECT_FALSE(store.load(0, 4).has_value()) << "kept " << keep;
  }
}

TEST_F(ResultStoreTest, CorruptedByteIsAMiss) {
  ResultStore store(kDir, kKey);
  ASSERT_TRUE(store.save(0, 4, sampleRecords(4, 0)));
  const std::string path = store.entryPath(0, 4);
  const auto size = static_cast<long>(fs::file_size(path));
  // Flip one byte at several offsets (header, payload, trailer).
  for (const long off : {4L, size / 2, size - 3}) {
    ASSERT_TRUE(store.save(0, 4, sampleRecords(4, 0)));
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(off);
    char c = 0;
    f.get(c);
    f.seekp(off);
    f.put(static_cast<char>(c ^ 0x5a));
    f.close();
    EXPECT_FALSE(store.load(0, 4).has_value()) << "offset " << off;
  }
}

TEST_F(ResultStoreTest, VersionMismatchIsAMiss) {
  ResultStore store(kDir, kKey);
  ASSERT_TRUE(store.save(0, 4, sampleRecords(4, 0)));
  // Rewrite the entry with a bumped version word and a *valid* md5 trailer:
  // the version check itself must reject it.
  const std::string path = store.entryPath(0, 4);
  ByteWriter w;
  w.u32(ResultStore::kMagic);
  w.u32(ResultStore::kVersion + 1);
  w.str(kKey);
  w.u32(0);
  w.u32(4);
  for (const InjectionRecord& r : sampleRecords(4, 0))
    inject::writeRecordBytes(r, w);
  Md5 h;
  h.update(w.data().data(), w.size());
  const Md5Digest d = h.finish();
  w.bytes(d.bytes.data(), 16);
  w.writeFile(path);
  EXPECT_FALSE(store.load(0, 4).has_value());
}

TEST_F(ResultStoreTest, WrongKeyEntryIsAMiss) {
  // Two stores whose keys share the 16-char filename prefix collide on
  // entryPath; the full-key echo inside the entry must disambiguate.
  const std::string keyA = std::string(kKey);
  std::string keyB = keyA;
  keyB[20] = keyB[20] == 'f' ? 'e' : 'f'; // differs past the prefix
  ResultStore a(kDir, keyA), b(kDir, keyB);
  ASSERT_EQ(a.entryPath(0, 4), b.entryPath(0, 4));
  ASSERT_TRUE(a.save(0, 4, sampleRecords(4, 0)));
  EXPECT_TRUE(a.load(0, 4).has_value());
  EXPECT_FALSE(b.load(0, 4).has_value());
}

TEST_F(ResultStoreTest, TrailingGarbageIsAMiss) {
  ResultStore store(kDir, kKey);
  ASSERT_TRUE(store.save(0, 4, sampleRecords(4, 0)));
  const std::string path = store.entryPath(0, 4);
  std::ofstream f(path, std::ios::app | std::ios::binary);
  f.write("junk", 4);
  f.close();
  EXPECT_FALSE(store.load(0, 4).has_value());
}

TEST_F(ResultStoreTest, DamagedEntryIsRecomputedAndRewritten) {
  // End-to-end through runShardedTrials: corrupt one entry of a warmed
  // store; the campaign must recompute that shard (identical records) and
  // leave a good entry behind.
  inject::ServiceConfig svc;
  svc.processes = 0;
  svc.threads = 1;
  svc.storeDir = kDir;
  svc.storeKey = kKey;
  svc.shardSize = 4;
  const inject::TrialFn fn = [](int i, Rng&) {
    InjectionRecord rec;
    rec.point.nth = static_cast<std::uint64_t>(i);
    rec.point.bits = {static_cast<unsigned>(i % 64)};
    rec.plain.outcome = inject::Outcome::Benign;
    rec.plain.instrsExecuted = 10 + static_cast<std::uint64_t>(i);
    return rec;
  };
  inject::CampaignTelemetry tel;
  const auto first = inject::runShardedTrials(12, 7, svc, fn, &tel);
  EXPECT_EQ(tel.storeMisses, 3);
  ResultStore store(kDir, kKey);
  const std::string victim = store.entryPath(4, 4);
  fs::resize_file(victim, fs::file_size(victim) / 2);
  inject::CampaignTelemetry tel2;
  const auto second = inject::runShardedTrials(12, 7, svc, fn, &tel2);
  EXPECT_EQ(tel2.storeHits, 2);
  EXPECT_EQ(tel2.storeMisses, 1);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(inject::serializeDeterministicRecord(first[i]),
              inject::serializeDeterministicRecord(second[i]));
  }
  // The rewritten entry is valid again.
  EXPECT_TRUE(store.load(4, 4).has_value());
}

} // namespace
} // namespace care::test
