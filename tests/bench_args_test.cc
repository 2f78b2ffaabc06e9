/**
 * @file
 * Strict argv and environment parsing of the benches that build their
 * own systems (bench::parseOwnRunArgs: the multiprocessor and
 * image-scale ablations) and of the layout-search budget knobs
 * (bench::positiveFromEnv): bad input exits 1 with a usage line
 * instead of running a zero-transaction or silently misread workload.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "bench/common.hh"

namespace spikesim::bench {
namespace {

OwnRunArgs
parse(std::vector<const char*> args)
{
    args.insert(args.begin(), "prog");
    return parseOwnRunArgs(static_cast<int>(args.size()),
                           const_cast<char**>(args.data()), 600, 400);
}

TEST(BenchArgs, OwnRunArgsKeepDefaultsAndBuildThePool)
{
    const OwnRunArgs none = parse({"--threads", "0"});
    EXPECT_EQ(none.profile_txns, 600u);
    EXPECT_EQ(none.trace_txns, 400u);
    EXPECT_EQ(none.pool, nullptr); // the serial oracle path
    const OwnRunArgs two = parse({"7", "--threads", "2", "9"});
    EXPECT_EQ(two.profile_txns, 7u);
    EXPECT_EQ(two.trace_txns, 9u);
    ASSERT_NE(two.pool, nullptr);
    EXPECT_EQ(two.pool->numThreads(), 2);
}

TEST(BenchArgsDeathTest, OwnRunArgsRejectBadInput)
{
    // `--threads 0` used to be read as two zero transaction counts.
    EXPECT_EXIT(parse({"0", "0"}), testing::ExitedWithCode(1),
                "profile_txns must be > 0.*usage: prog");
    EXPECT_EXIT(parse({"abc"}), testing::ExitedWithCode(1),
                "is not a number.*usage: prog");
    EXPECT_EXIT(parse({"--threads"}), testing::ExitedWithCode(1),
                "usage: prog");
    EXPECT_EXIT(parse({"--bogus", "1"}), testing::ExitedWithCode(1),
                "usage: prog");
    EXPECT_EXIT(parse({"1", "2", "3"}), testing::ExitedWithCode(1),
                "too many arguments.*usage: prog");
}

TEST(BenchArgsDeathTest, PositiveFromEnvIsStrict)
{
    constexpr const char* kVar = "SPIKESIM_BENCH_ARGS_TEST";
    ::unsetenv(kVar);
    EXPECT_EQ(positiveFromEnv(kVar, 5), 5);
    ::setenv(kVar, "12", 1);
    EXPECT_EQ(positiveFromEnv(kVar, 5), 12);
    for (const char* bad : {"12abc", "0", "-3", "99999999999"}) {
        ::setenv(kVar, bad, 1);
        EXPECT_EXIT(positiveFromEnv(kVar, 5), testing::ExitedWithCode(1),
                    "usage: ")
            << bad;
    }
    ::unsetenv(kVar);
}

} // namespace
} // namespace spikesim::bench
