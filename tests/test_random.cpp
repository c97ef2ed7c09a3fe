/**
 * @file
 * Unit tests for the deterministic RNG and distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/logging.hpp"
#include "common/random.hpp"

using dhl::Rng;
using dhl::ZipfTable;

namespace {

/**
 * countBelow(n, p) from @p start against the loop it replaces,
 * `uniform() < p` over n draws, run on a second copy: the counts and
 * the stream positions afterwards must be equal.
 */
void
expectCountBelowMatches(const Rng &start, std::size_t n, double p)
{
    Rng fast = start;
    Rng slow = start;
    std::uint64_t want = 0;
    for (std::size_t i = 0; i < n; ++i)
        want += slow.uniform() < p ? 1 : 0;
    EXPECT_EQ(fast.countBelow(n, p), want)
        << "n=" << n << " p=" << std::hexfloat << p;

    const dhl::RngState a = fast.saveState();
    const dhl::RngState b = slow.saveState();
    for (int w = 0; w < 4; ++w)
        EXPECT_EQ(a.state[w], b.state[w]) << "p=" << std::hexfloat << p;
    EXPECT_EQ(a.has_spare, b.has_spare);
}

} // namespace

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42), c(43);
    bool all_equal = true;
    bool any_diff_seed = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        if (va != b.next())
            all_equal = false;
        if (va != c.next())
            any_diff_seed = true;
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_seed);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(1);
    double mean = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        mean += u;
    }
    mean /= 10000.0;
    EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(Rng, UniformRange)
{
    Rng r(2);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.uniform(5.0, 9.0);
        ASSERT_GE(v, 5.0);
        ASSERT_LT(v, 9.0);
    }
    EXPECT_THROW(r.uniform(9.0, 5.0), dhl::FatalError);
}

TEST(Rng, UniformIntInclusive)
{
    Rng r(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = r.uniformInt(1, 6);
        ASSERT_GE(v, 1);
        ASSERT_LE(v, 6);
        saw_lo |= (v == 1);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(r.uniformInt(6, 1), dhl::FatalError);
}

TEST(Rng, ExponentialMean)
{
    Rng r(4);
    const double mean = 3.0;
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = r.exponential(mean);
        ASSERT_GT(v, 0.0);
        acc += v;
    }
    EXPECT_NEAR(acc / n, mean, 0.1);
    EXPECT_THROW(r.exponential(0.0), dhl::FatalError);
    EXPECT_THROW(r.exponential(-1.0), dhl::FatalError);
}

TEST(Rng, NormalMoments)
{
    Rng r(5);
    const int n = 20000;
    double acc = 0.0, acc2 = 0.0;
    for (int i = 0; i < n; ++i) {
        const double v = r.normal(10.0, 2.0);
        acc += v;
        acc2 += v * v;
    }
    const double mean = acc / n;
    const double var = acc2 / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, LognormalPositive)
{
    Rng r(6);
    for (int i = 0; i < 1000; ++i)
        ASSERT_GT(r.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, CountBelowOutOfRangeAndNaN)
{
    const Rng r(21);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // Nothing is below p <= 0 or NaN, everything is below p >= 1; the
    // draws are consumed either way.
    for (double p : {0.0, -0.0, -0.5, -inf, nan, -nan, 1.0, 1.5, inf}) {
        expectCountBelowMatches(r, 0, p);
        expectCountBelowMatches(r, 257, p);
    }
    Rng a = r;
    EXPECT_EQ(a.countBelow(100, nan), 0u);
    EXPECT_EQ(a.countBelow(100, 1.0), 100u);
    EXPECT_EQ(a.countBelow(100, -0.5), 0u);
}

TEST(Rng, CountBelowIsExactAtDrawBoundaries)
{
    // p equal to a draw's exact value k * 2^-53, and one ulp either
    // side: the only places an integer threshold can be off by one.
    Rng r(22);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = 1 + static_cast<std::size_t>(trial % 9);
        const std::size_t j = static_cast<std::size_t>(trial) % n;
        Rng peek = r;
        for (std::size_t i = 0; i < j; ++i)
            peek.next();
        const double exact =
            std::ldexp(static_cast<double>(peek.next() >> 11), -53);
        for (double p : {exact, std::nextafter(exact, 0.0),
                         std::nextafter(exact, 1.0)})
            expectCountBelowMatches(r, n, p);
        r.next();
    }
    // The extreme representable thresholds.
    const double tiny = std::numeric_limits<double>::denorm_min();
    for (double p : {tiny, 0x1.0p-53, std::nextafter(0x1.0p-53, 0.0),
                     std::nextafter(0x1.0p-53, 1.0), 0.5,
                     std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0),
                     std::nextafter(1.0, 0.0)})
        expectCountBelowMatches(r, 64, p);
}

TEST(Rng, CountBelowMatchesUniformCompareForRandomThresholds)
{
    Rng r(23);
    Rng pick(24);
    for (int trial = 0; trial < 10000; ++trial) {
        // Thresholds across the unit interval and down to tiny scales.
        double p = pick.uniform();
        if (trial % 4 == 1)
            p = std::ldexp(p, -static_cast<int>(pick.uniformInt(1, 60)));
        expectCountBelowMatches(r, 64, p);
        r.next();
    }
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng r(7);
    ZipfTable table(100, 1.0);
    EXPECT_EQ(table.size(), 100u);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[table.sample(r)];
    // Rank 0 should dominate rank 10 by roughly 11x under s=1.
    EXPECT_GT(counts[0], counts[10] * 5);
    EXPECT_GT(counts[0], counts[50] * 10);
}

TEST(Zipf, ZeroExponentIsUniform)
{
    Rng r(8);
    ZipfTable table(10, 0.0);
    std::vector<int> counts(10, 0);
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++counts[table.sample(r)];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
}

TEST(Zipf, RejectsBadParameters)
{
    EXPECT_THROW(ZipfTable(0, 1.0), dhl::FatalError);
    EXPECT_THROW(ZipfTable(10, -0.5), dhl::FatalError);
}
