// Unit tests for src/support: MD5, byte streams, RNG, bit utilities, and
// the one reader of the CARE_* environment (over a fake environment).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "inject/run_env.hpp"
#include "support/bitutil.hpp"
#include "support/bytestream.hpp"
#include "support/md5.hpp"
#include "support/rng.hpp"

namespace care::test {
namespace {

// --- MD5 (RFC 1321 test vectors) -------------------------------------------

struct Md5Vector {
  const char* input;
  const char* hex;
};

class Md5Rfc : public ::testing::TestWithParam<Md5Vector> {};

TEST_P(Md5Rfc, MatchesReferenceDigest) {
  EXPECT_EQ(Md5::hash(GetParam().input).hex(), GetParam().hex);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5Rfc,
    ::testing::Values(
        Md5Vector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Md5Vector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Md5Vector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Md5Vector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Md5Vector{"abcdefghijklmnopqrstuvwxyz",
                  "c3fcd3d76192e4007dfb496cca67e13b"},
        Md5Vector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01234"
                  "56789",
                  "d174ab98d277d9f5a5611c2c9f419d9f"},
        Md5Vector{"1234567890123456789012345678901234567890123456789012345678"
                  "9012345678901234567890",
                  "57edf4a22be3c955ac49da2e2107b67a"}));

TEST(Md5, IncrementalEqualsOneShot) {
  const std::string s = "The quick brown fox jumps over the lazy dog";
  Md5 h;
  for (char c : s) h.update(&c, 1);
  EXPECT_EQ(h.finish().hex(), Md5::hash(s).hex());
}

TEST(Md5, Low64IsStable) {
  const Md5Digest d = Md5::hash("stencil.c:41:9");
  EXPECT_EQ(d.low64(), Md5::hash("stencil.c:41:9").low64());
  EXPECT_NE(d.low64(), Md5::hash("stencil.c:41:10").low64());
}

TEST(Md5, BlockBoundaryLengths) {
  // 55/56/57/63/64/65 bytes straddle the padding boundary.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 128u}) {
    std::string s(len, 'x');
    Md5 h;
    h.update(s.substr(0, len / 2));
    h.update(s.substr(len / 2));
    EXPECT_EQ(h.finish().hex(), Md5::hash(s).hex()) << "len=" << len;
  }
}

// --- byte streams -----------------------------------------------------------

TEST(ByteStream, RoundTripsAllTypes) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  w.str("");
  ByteReader r{std::vector<std::uint8_t>(w.data())};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.atEnd());
}

TEST(ByteStream, TruncatedInputThrows) {
  ByteWriter w;
  w.u32(7);
  ByteReader r{std::vector<std::uint8_t>(w.data())};
  r.u16();
  r.u16();
  EXPECT_THROW(r.u8(), Error);
}

TEST(ByteStream, TruncatedStringThrows) {
  ByteWriter w;
  w.u32(1000); // claims a 1000-byte string with no payload
  ByteReader r{std::vector<std::uint8_t>(w.data())};
  EXPECT_THROW(r.str(), Error);
}

TEST(ByteStream, FileRoundTrip) {
  ByteWriter w;
  w.str("persisted");
  w.u64(99);
  const std::string path = "/tmp/care_bytestream_test.bin";
  w.writeFile(path);
  ByteReader r = ByteReader::fromFile(path);
  EXPECT_EQ(r.str(), "persisted");
  EXPECT_EQ(r.u64(), 99u);
}

TEST(ByteStream, MissingFileThrows) {
  EXPECT_THROW(ByteReader::fromFile("/nonexistent/care/file.bin"), Error);
}

// --- RNG ---------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

class RngBelow : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBelow, StaysInRangeAndCoversIt) {
  const std::uint64_t bound = GetParam();
  Rng rng(777);
  std::uint64_t maxSeen = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(bound);
    ASSERT_LT(v, bound);
    maxSeen = std::max(maxSeen, v);
  }
  if (bound > 4) {
    EXPECT_GT(maxSeen, bound / 2); // not stuck at the bottom
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBelow,
                         ::testing::Values(1, 2, 3, 10, 64, 1000,
                                           1ull << 40));

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(5);
  Rng b = a.fork();
  EXPECT_NE(a.next(), b.next());
}

// --- per-trial streams (campaign engine) -------------------------------------

TEST(Rng, StreamIsDeterministicFromSeedAndIndex) {
  // The campaign engine derives trial t's stream from (seed, t) alone, so
  // equal pairs must replay identically regardless of who runs them.
  Rng a = Rng::stream(2026, 7);
  Rng b = Rng::stream(2026, 7);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, StreamDependsOnBothSeedAndIndex) {
  Rng base = Rng::stream(2026, 7);
  Rng otherIndex = Rng::stream(2026, 8);
  Rng otherSeed = Rng::stream(2027, 7);
  const std::uint64_t v = base.next();
  EXPECT_NE(v, otherIndex.next());
  EXPECT_NE(v, otherSeed.next());
}

TEST(Rng, StreamsPairwiseNonColliding) {
  // 64 per-trial streams, 1k draws each: no value ever repeats, within or
  // across streams — the forked streams neither alias nor overlap.
  std::set<std::uint64_t> seen;
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    Rng r = Rng::stream(42, trial);
    for (int i = 0; i < 1000; ++i) seen.insert(r.next());
  }
  EXPECT_EQ(seen.size(), 64u * 1000u);
}

// --- bit utilities ------------------------------------------------------------

TEST(BitUtil, FlipBitIsInvolution) {
  for (unsigned bit = 0; bit < 64; ++bit) {
    const std::uint64_t v = 0x0123456789abcdefull;
    EXPECT_NE(flipBit(v, bit), v);
    EXPECT_EQ(flipBit(flipBit(v, bit), bit), v);
  }
}

TEST(BitUtil, FlipBitF64ChangesValueOrSign) {
  const double v = 1234.5678;
  for (unsigned bit : {0u, 31u, 52u, 62u, 63u}) {
    const double f = flipBitF64(v, bit);
    EXPECT_NE(f, v);
    EXPECT_EQ(flipBitF64(f, bit), v);
  }
}

TEST(BitUtil, FlipBitBufferWrapsWithinLength) {
  std::uint8_t buf[4] = {0, 0, 0, 0};
  flipBitBuffer(buf, 4, 33); // bit 33 -> byte 4 % 4 = 0, bit 1
  EXPECT_EQ(buf[0], 2);
  flipBitBuffer(buf, 4, 33);
  EXPECT_EQ(buf[0], 0);
}

// --- the one environment reader (inject/run_env.hpp) ------------------------

using FakeEnv = std::map<std::string, std::string>;

inject::RunEnv readFake(const FakeEnv& vars) {
  return inject::readRunEnv([&](const char* name) -> const char* {
    const auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second.c_str();
  });
}

/// One variable: what a config built from the environment shows for it
/// when the variable is unset, empty and set to `good`, and values it must
/// reject.
struct EnvVar {
  const char* name;
  /// The setting after applying the environment to default configs.
  std::function<std::string(const inject::RunEnv&,
                            const inject::ExperimentConfig&,
                            const inject::CampaignConfig&)>
      seen;
  std::string unset; // the library default
  std::string empty; // the documented meaning of an empty value
  const char* good;
  std::string set; // what `good` sets
  std::vector<const char*> bad;
};

const std::vector<const char*> kBadCounts = {
    "eight", "5k", "-3", "+4", " 7", "7 ", "0x10", "1e3",
    "99999999999999999999"};

std::string spacing(std::uint64_t v) {
  return v == inject::CampaignConfig::kCkptAuto ? "auto" : std::to_string(v);
}

std::string detectName(const sentinel::DetectOptions& d) {
  return std::string(d.cfc ? "cfc" : "") + (d.addr ? "+addr" : "");
}

class RunEnvReader : public ::testing::TestWithParam<EnvVar> {};

TEST_P(RunEnvReader, UnsetEmptyGoodAndBadValues) {
  const EnvVar& v = GetParam();
  auto seen = [&](const FakeEnv& vars) {
    const inject::RunEnv env = readFake(vars);
    inject::ExperimentConfig ec;
    inject::CampaignConfig cc;
    env.apply(ec);
    env.apply(cc);
    return v.seen(env, ec, cc);
  };
  EXPECT_EQ(seen({}), v.unset);
  EXPECT_EQ(seen({{v.name, ""}}), v.empty);
  EXPECT_EQ(seen({{v.name, v.good}}), v.set);
  for (const char* bad : v.bad) {
    try {
      (void)readFake({{v.name, bad}});
      ADD_FAILURE() << v.name << "=" << bad << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(v.name), std::string::npos)
          << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Env, RunEnvReader,
    ::testing::Values(
        EnvVar{"CARE_DETECT",
               [](auto&, auto& ec, auto&) {
                 return detectName(ec.armor.detect);
               },
               "", "", "addr,cfc", "cfc+addr", {"bogus", "cfc,x"}},
        EnvVar{"CARE_DETECT_SAMPLE",
               [](auto&, auto& ec, auto&) {
                 return pareto::sampleName(ec.armor.detectSample);
               },
               "1", "1", "16@3", "16@3", {"0", "x", "16@", "@3"}},
        EnvVar{"CARE_RECOVER",
               [](auto&, auto& ec, auto& cc) {
                 return std::string(
                            core::recoveryStrategyName(ec.campaign.recover)) +
                        "/" + core::recoveryStrategyName(cc.recover);
               },
               "repair/repair", "repair/repair", "rollback",
               "rollback/rollback", {"bogus", "Repair"}},
        EnvVar{"CARE_FAULT",
               [](auto&, auto& ec, auto& cc) {
                 return std::string(
                            inject::faultModelName(ec.campaign.fault)) +
                        "/" + inject::faultModelName(cc.fault);
               },
               "reg/reg", "reg/reg", "mem1", "mem1/mem1", {"mem3", "REG"}},
        EnvVar{"CARE_ECC",
               [](auto&, auto& ec, auto& cc) {
                 return std::string(vm::eccModeName(ec.campaign.ecc)) +
                        "/" + vm::eccModeName(cc.ecc);
               },
               "off/off", "off/off", "secded", "secded/secded",
               {"parity", "secded,"}},
        EnvVar{"CARE_PRUNE",
               [](auto&, auto& ec, auto& cc) {
                 return std::to_string(ec.campaign.prune.enabled) + "/" +
                        std::to_string(cc.prune.enabled);
               },
               "0/0", "0/0", "on", "1/1", {"maybe", "2"}},
        EnvVar{"CARE_PRUNE_AUDIT",
               [](auto&, auto& ec, auto& cc) {
                 return std::to_string(ec.campaign.prune.auditK) + "/" +
                        std::to_string(cc.prune.auditK);
               },
               "0/0", "0/0", "12", "12/12", kBadCounts},
        EnvVar{"CARE_CKPT_INTERVAL",
               [](auto&, auto& ec, auto& cc) {
                 return spacing(ec.campaign.checkpointEveryInstrs) + "/" +
                        spacing(ec.campaign.rollbackEveryInstrs) + "/" +
                        spacing(cc.checkpointEveryInstrs) + "/" +
                        spacing(cc.rollbackEveryInstrs);
               },
               "auto/auto/auto/auto", "auto/auto/auto/auto", "12",
               "12/12/12/12", kBadCounts},
        EnvVar{"CARE_PROCS",
               [](auto&, auto& ec, auto&) {
                 return std::to_string(ec.processes);
               },
               "0", "0", "12", "12", kBadCounts},
        EnvVar{"CARE_THREADS",
               [](auto&, auto& ec, auto&) {
                 return std::to_string(ec.threads);
               },
               "0", "0", "12", "12", kBadCounts},
        EnvVar{"CARE_RESULT_STORE",
               [](auto&, auto& ec, auto&) {
                 return ec.resultStore.value_or(ec.cacheDir + "/store");
               },
               "care_artifacts/store", "", "s", "s", {}},
        EnvVar{"CARE_INTERP",
               [](auto& env, auto&, auto&) {
                 return std::string(vm::interpName(
                     env.interp.value_or(vm::InterpKind::Fast)));
               },
               "fast", "fast", "jit", "jit", {"bogus", "JIT"}},
        EnvVar{"CARE_TELEMETRY",
               [](auto& env, auto&, auto&) {
                 return env.telemetry.value_or("");
               },
               "", "", "t.jsonl", "t.jsonl", {}},
        EnvVar{"CARE_TRACE",
               [](auto& env, auto&, auto&) { return env.trace.value_or(""); },
               "", "", "t.json", "t.json", {}}),
    [](const ::testing::TestParamInfo<EnvVar>& info) {
      return std::string(info.param.name);
    });

TEST(RunEnv, EmptyDetectDisarmsAndFlagsApplyOnTop) {
  // An empty CARE_DETECT disarms detectors a config armed itself; every
  // other variable leaves such a config alone when empty.
  inject::ExperimentConfig cfg;
  cfg.armor.detect = {true, true};
  cfg.campaign.fault = inject::FaultModel::Burst;
  readFake({{"CARE_DETECT", ""}, {"CARE_FAULT", ""}}).apply(cfg);
  EXPECT_FALSE(cfg.armor.detect.any());
  EXPECT_EQ(cfg.campaign.fault, inject::FaultModel::Burst);
}

} // namespace
} // namespace care::test
