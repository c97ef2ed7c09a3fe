/**
 * @file
 * Unit tests for the deterministic RNG and distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/random_lanes.hpp"

using dhl::Rng;
using dhl::ZipfTable;

namespace {

/** Every word of two stream positions, spare included. */
void
expectSameState(const Rng &a, const Rng &b)
{
    const dhl::RngState x = a.saveState();
    const dhl::RngState y = b.saveState();
    for (int w = 0; w < 4; ++w)
        EXPECT_EQ(x.state[w], y.state[w]) << "word " << w;
    EXPECT_EQ(x.has_spare, y.has_spare);
    EXPECT_EQ(x.spare, y.spare);
}

/**
 * countBelow(n, p, hits) over @p blocks blocks from @p start against the
 * loop it replaces, `hits[b] += uniform() < p` over n draws per block,
 * run on a second copy: the counts and the stream positions afterwards
 * must be equal.
 */
void
expectCountBelowMatches(const Rng &start, std::size_t n, double p,
                        std::size_t blocks = 1)
{
    Rng fast = start;
    Rng slow = start;
    std::vector<std::uint64_t> want(blocks, 0);
    for (std::size_t b = 0; b < blocks; ++b) {
        for (std::size_t i = 0; i < n; ++i)
            want[b] += slow.uniform() < p ? 1 : 0;
    }
    // Stale values must be overwritten, not added to.
    std::vector<std::uint64_t> got(blocks, 7);
    fast.countBelow(n, p, got);
    EXPECT_EQ(got, want) << "n=" << n << " blocks=" << blocks
                         << " p=" << std::hexfloat << p;
    expectSameState(fast, slow);
}

/** The published xoshiro256 jump() (2^128 draws) and long_jump()
 *  (2^192 draws) polynomials. */
constexpr dhl::detail::Gf2Poly kJump = {
    0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa,
    0x39abdc4529b1661c};
constexpr dhl::detail::Gf2Poly kLongJump = {
    0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241,
    0x39109bb02acbe635};

/** x^(2^k) mod P, by k squarings of x. */
dhl::detail::Gf2Poly
xPowTwoTo(int k)
{
    dhl::detail::Gf2Poly r{2, 0, 0, 0};
    for (int i = 0; i < k; ++i)
        r = dhl::detail::squareMod(r);
    return r;
}

/** The published jump loop: sum the states T^i s over the set bits of
 *  @p words, stepping with Rng::next(). */
void
referenceJump(Rng &rng, const dhl::detail::Gf2Poly &words)
{
    dhl::RngState acc = rng.saveState();
    std::uint64_t sum[4] = {0, 0, 0, 0};
    for (std::uint64_t word : words) {
        for (int b = 0; b < 64; ++b) {
            if (word & (std::uint64_t{1} << b)) {
                const dhl::RngState now = rng.saveState();
                for (int w = 0; w < 4; ++w)
                    sum[w] ^= now.state[w];
            }
            rng.next();
        }
    }
    for (int w = 0; w < 4; ++w)
        acc.state[w] = sum[w];
    rng.restoreState(acc);
}

/**
 * countBelowLanes<Vec> run directly: per-block counts, the draws it
 * covers and the stream position after them must match next().
 */
template <typename Vec>
void
expectLanesMatchSerial()
{
    constexpr std::size_t kLanes = sizeof(Vec) / sizeof(std::uint64_t);
    Rng pick(41);
    for (std::size_t n : {1u, 2u, 3u, 7u, 240u, 1000u}) {
        for (std::size_t blocks : {1u, 2u, 3u, 5u, 13u}) {
            const std::size_t total = n * blocks;
            const std::uint64_t bound = pick.next() >> 11;
            Rng serial(pick.next());
            const dhl::RngState start = serial.saveState();
            std::uint64_t s[4] = {start.state[0], start.state[1],
                                  start.state[2], start.state[3]};

            std::vector<std::uint64_t> got(blocks, 0);
            const std::size_t done = dhl::detail::countBelowLanes<Vec>(
                s, bound, n, total, got.data());
            EXPECT_EQ(done, total - total % kLanes);

            std::vector<std::uint64_t> want(blocks, 0);
            for (std::size_t i = 0; i < done; ++i)
                want[i / n] += (serial.next() >> 11) < bound ? 1 : 0;
            EXPECT_EQ(got, want)
                << kLanes << " lanes, n=" << n << " blocks=" << blocks;
            const dhl::RngState end = serial.saveState();
            for (int w = 0; w < 4; ++w)
                EXPECT_EQ(s[w], end.state[w]) << kLanes << " lanes, n=" << n;
        }
    }
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
    std::uint64_t hits[2] = {9, 9};
    a.countBelow(100, nan, hits);
    EXPECT_EQ(hits[0], 0u);
    EXPECT_EQ(hits[1], 0u);
    a.countBelow(100, 1.0, hits);
    EXPECT_EQ(hits[0], 100u);
    EXPECT_EQ(hits[1], 100u);
    a.countBelow(100, -0.5, hits);
    EXPECT_EQ(hits[0], 0u);
    EXPECT_EQ(hits[1], 0u);

    // A draw count past SIZE_MAX is refused before any draw.
    Rng b = r;
    EXPECT_THROW(b.countBelow(SIZE_MAX, 0.5, hits), dhl::FatalError);
    expectSameState(b, r);
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

TEST(Rng, CountBelowBlocksMatchUniformLoop)
{
    // Block counts that are and are not multiples of the lane count,
    // and block lengths shorter and longer than a lane's range.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::uint64_t seed : {31u, 32u, 33u}) {
        const Rng r(seed);
        for (std::size_t n : {0u, 1u, 3u, 5u, 240u, 16384u}) {
            for (std::size_t blocks : {0u, 1u, 3u, 5u, 50u, 100u}) {
                for (double p : {nan, -0.5, 0.0, 0x1.0p-53, 0.37,
                                 1.0 - 0x1.0p-53, 1.0})
                    expectCountBelowMatches(r, n, p, blocks);
            }
        }
    }
}

TEST(Rng, CountBelowMatchesAtTheLaneCutoff)
{
    // Runs one draw short of the lane cutoff, at it and one past it,
    // as one block and as blocks that straddle lane boundaries.
    const std::size_t cut = dhl::detail::kLaneMinDraws;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const Rng r(34);
    for (std::size_t total : {cut - 1, cut, cut + 1}) {
        for (double p : {nan, 0.0, 0x1.0p-53, 0.37, 1.0}) {
            expectCountBelowMatches(r, total, p);
            expectCountBelowMatches(r, 1, p, total);
        }
    }
    for (double p : {0.0, 0.37, 1.0}) {
        expectCountBelowMatches(r, 7, p, (cut - 1) / 7); // below
        expectCountBelowMatches(r, 64, p, cut / 64);     // at
        expectCountBelowMatches(r, 3, p, cut / 3 + 1);   // just above
    }
}

TEST(Rng, LaneTemplateMatchesSerialCountAtThisIsa)
{
    // The lane template compiled here, at the tests' own ISA, checks
    // the 4- and 8-lane splits on any host, whichever instances it
    // can run.
    expectLanesMatchSerial<dhl::detail::U64x4>();
    expectLanesMatchSerial<dhl::detail::U64x8>();
}

TEST(Rng, EverySupportedCountInstanceMatchesSerial)
{
    // Each instance this host runs counts a prefix of the run, a whole
    // number of lane ranges, that equals the serial count, and leaves
    // the stream where the serial draws do; the scalar one counts
    // nothing and leaves the stream alone.
    const auto &instances = dhl::detail::supportedCountLanes();
    ASSERT_FALSE(instances.empty());
    EXPECT_EQ(instances.back().isa, dhl::lanes::LaneIsa::Scalar);
    Rng pick(43);
    for (const dhl::detail::CountLanes &lanes : instances) {
        const std::size_t width = dhl::lanes::laneWidth(lanes.isa);
        for (std::size_t n : {1u, 7u, 1000u}) {
            for (std::size_t blocks : {1u, 5u, 13u}) {
                const std::size_t total = n * blocks;
                const std::uint64_t bound = pick.next() >> 11;
                Rng serial(pick.next());
                const dhl::RngState start = serial.saveState();
                std::uint64_t s[4] = {start.state[0], start.state[1],
                                      start.state[2], start.state[3]};
                std::vector<std::uint64_t> got(blocks, 0);
                const std::size_t done =
                    lanes.count(s, bound, n, total, got.data());
                EXPECT_EQ(done, width == 1 ? 0 : total - total % width)
                    << dhl::lanes::isaName(lanes.isa);

                std::vector<std::uint64_t> want(blocks, 0);
                for (std::size_t i = 0; i < done; ++i)
                    want[i / n] += (serial.next() >> 11) < bound ? 1 : 0;
                EXPECT_EQ(got, want) << dhl::lanes::isaName(lanes.isa)
                                     << " n=" << n << " blocks=" << blocks;
                const dhl::RngState end = serial.saveState();
                for (int w = 0; w < 4; ++w)
                    EXPECT_EQ(s[w], end.state[w])
                        << dhl::lanes::isaName(lanes.isa);
            }
        }
    }
}

TEST(Rng, DiscardEqualsRepeatedNext)
{
    Rng base(51);
    base.normal(); // leaves a Box-Muller spare, which discard keeps
    for (std::uint64_t n :
         {0u, 1u, 63u, 64u, 65u, 16384u, 409600u, 1638400u}) {
        Rng jumped = base;
        Rng stepped = base;
        jumped.discard(n);
        for (std::uint64_t i = 0; i < n; ++i)
            stepped.next();
        expectSameState(jumped, stepped);
        EXPECT_EQ(jumped.next(), stepped.next()) << "n=" << n;
    }
}

TEST(Rng, JumpPolynomialsMatchPublishedJumps)
{
    EXPECT_EQ(xPowTwoTo(128), kJump);
    EXPECT_EQ(xPowTwoTo(192), kLongJump);

    // Applying them moves a stream where the published loop does.
    for (const auto &words : {kJump, kLongJump}) {
        Rng published(61);
        Rng mine(61);
        referenceJump(published, words);
        dhl::RngState st = mine.saveState();
        dhl::detail::applyJump(st.state, words);
        mine.restoreState(st);
        expectSameState(mine, published);
    }

    // x^(2^64) composes from two discards of 2^63 draws.
    Rng halves(62);
    Rng whole(62);
    halves.discard(std::uint64_t{1} << 63);
    halves.discard(std::uint64_t{1} << 63);
    dhl::RngState st = whole.saveState();
    dhl::detail::applyJump(st.state, xPowTwoTo(64));
    whole.restoreState(st);
    expectSameState(halves, whole);
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
