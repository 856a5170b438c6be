// The test binaries' main: reads the CARE_* environment once (the CI legs
// set it), installs its process-wide settings — interpreter backend,
// tracing, telemetry sink — and exposes the values through test::runEnv().
// Tests that follow the legs apply them to their configs; every other
// test sees the library defaults.
#include <cstdio>

#include <gtest/gtest.h>

#include "testutil.hpp"

namespace care::test {

namespace {
inject::RunEnv gEnv;
} // namespace

const inject::RunEnv& runEnv() { return gEnv; }

} // namespace care::test

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  try {
    care::test::gEnv = care::inject::readRunEnv();
    care::test::gEnv.install();
  } catch (const care::Error& e) {
    std::fprintf(stderr, "test harness: %s\n", e.what());
    return 2;
  }
  return RUN_ALL_TESTS();
}
