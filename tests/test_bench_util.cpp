/**
 * @file
 * Tests for the bench harness flag parser: known flags parse, unknown
 * `--` flags are rejected loudly (exit 2) instead of silently ignored.
 */

#include <gtest/gtest.h>

#include <vector>

#include "bench_util.hpp"

using dhl::bench::Options;
using dhl::bench::parseArgs;

namespace {

Options
parse(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "bench");
    return parseArgs(static_cast<int>(argv.size()),
                     const_cast<char **>(argv.data()));
}

} // namespace

TEST(BenchUtilTest, ParsesKnownFlags)
{
    const Options o =
        parse({"--csv", "--jobs", "4", "--seed=9", "--experiment", "e20"});
    EXPECT_TRUE(o.csv);
    EXPECT_EQ(o.jobs, 4u);
    EXPECT_EQ(o.seed, 9u);
    EXPECT_EQ(o.experiment, "e20");
}

TEST(BenchUtilTest, DefaultsWhenUnflagged)
{
    const Options o = parse({});
    EXPECT_FALSE(o.csv);
    EXPECT_EQ(o.jobs, 0u);
    EXPECT_EQ(o.seed, 0u);
    EXPECT_TRUE(o.experiment.empty());
}

TEST(BenchUtilDeathTest, RejectsUnknownFlag)
{
    EXPECT_EXIT(parse({"--no-such-flag"}),
                ::testing::ExitedWithCode(2),
                "unknown flag '--no-such-flag'");
    EXPECT_EXIT(parse({"--csv", "--jbos", "4"}),
                ::testing::ExitedWithCode(2), "unknown flag '--jbos'");
    EXPECT_EXIT(parse({"--des-shards=2"}),
                ::testing::ExitedWithCode(2),
                "unknown flag '--des-shards=2'");
}

TEST(BenchUtilDeathTest, RejectsGarbageCounts)
{
    EXPECT_EXIT(parse({"--jobs", "four"}),
                ::testing::ExitedWithCode(2), "expects an integer");
}
