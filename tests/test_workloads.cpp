/**
 * @file
 * Unit tests for the workload generators.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/units.hpp"
#include "workloads/generator.hpp"

using namespace dhl::workloads;
using dhl::Rng;
namespace u = dhl::units;

TEST(PeriodicBackupTest, ExactCadenceWithoutJitter)
{
    Rng rng(4);
    PeriodicBackupGenerator gen(u::hours(6), u::petabytes(2));
    const auto reqs = gen.generate(u::days(1), rng);
    ASSERT_EQ(reqs.size(), 4u);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_DOUBLE_EQ(reqs[i].at, i * u::hours(6));
        EXPECT_DOUBLE_EQ(reqs[i].bytes, u::petabytes(2));
        EXPECT_EQ(reqs[i].tag, "backup");
    }
    EXPECT_DOUBLE_EQ(totalBytes(reqs), u::petabytes(8));
}

TEST(PeriodicBackupTest, JitterStaysWithinBounds)
{
    Rng rng(5);
    PeriodicBackupGenerator gen(100.0, 1e12, 0.25);
    const auto reqs = gen.generate(10000.0, rng);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const double base = static_cast<double>(i) * 100.0;
        EXPECT_GE(reqs[i].at, base);
        EXPECT_LT(reqs[i].at, base + 25.0);
    }
}

TEST(BurstSourceTest, LhcStyleBursts)
{
    Rng rng(6);
    BurstSourceGenerator gen(u::terabytes(150), 4.0, u::minutes(20));
    EXPECT_DOUBLE_EQ(gen.burstBytes(), u::terabytes(600));
    const auto reqs = gen.generate(u::hours(2), rng);
    ASSERT_EQ(reqs.size(), 6u);
    EXPECT_DOUBLE_EQ(reqs[0].at, 4.0); // ready when the fill completes
    EXPECT_DOUBLE_EQ(reqs[1].at, u::minutes(20) + 4.0);
    for (const auto &r : reqs)
        EXPECT_DOUBLE_EQ(r.bytes, u::terabytes(600));
}

TEST(ZipfDatasetTest, PopularSetsAccessedMore)
{
    Rng rng(7);
    ZipfDatasetGenerator gen(
        {{"hot", u::petabytes(29)}, {"warm", u::petabytes(13)},
         {"cool", u::petabytes(3)}},
        60.0, 1.2);
    const auto reqs = gen.generate(u::days(30), rng);
    ASSERT_GT(reqs.size(), 1000u);
    std::size_t hot = 0, cool = 0;
    for (const auto &r : reqs) {
        if (r.tag == "hot")
            ++hot;
        else if (r.tag == "cool")
            ++cool;
    }
    EXPECT_GT(hot, 2 * cool);
}

TEST(GeneratorValidation, RejectsNonsense)
{
    Rng rng(8);
    EXPECT_THROW(PeriodicBackupGenerator(0.0, 1e9), dhl::FatalError);
    EXPECT_THROW(PeriodicBackupGenerator(10.0, 1e9, 1.0),
                 dhl::FatalError);
    EXPECT_THROW(BurstSourceGenerator(0.0, 1.0, 10.0), dhl::FatalError);
    EXPECT_THROW(BurstSourceGenerator(1e9, 10.0, 5.0), dhl::FatalError);
    EXPECT_THROW(ZipfDatasetGenerator({}, 1.0), dhl::FatalError);
    PeriodicBackupGenerator ok(1.0, 1e9);
    EXPECT_THROW(ok.generate(0.0, rng), dhl::FatalError);
}
