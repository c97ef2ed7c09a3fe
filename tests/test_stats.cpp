/**
 * @file
 * Unit tests for the statistics framework.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"

using namespace dhl::stats;

TEST(Scalar, SetAddAndOperators)
{
    Scalar s("s", "a scalar");
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    s.set(3.5);
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.add(1.5);
    EXPECT_DOUBLE_EQ(s.value(), 5.0);
    s = 2.0;
    s += 0.5;
    EXPECT_DOUBLE_EQ(s.value(), 2.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Counter, IncrementAndReset)
{
    Counter c("c", "a counter");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c.increment();
    c.increment(5);
    EXPECT_EQ(c.value(), 7u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Accumulator, WelfordMatchesClosedForm)
{
    Accumulator a("a", "samples");
    const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    for (double x : xs)
        a.sample(x);
    EXPECT_EQ(a.count(), 8u);
    EXPECT_DOUBLE_EQ(a.sum(), 40.0);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    // Population variance of this classic set is 4; sample variance
    // = 32/7.
    EXPECT_NEAR(a.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Accumulator, EmptyAndSingle)
{
    Accumulator a("a", "samples");
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
    a.sample(42.0);
    EXPECT_DOUBLE_EQ(a.mean(), 42.0);
    EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(FormulaTest, LazyEvaluation)
{
    double num = 10.0;
    double den = 4.0;
    Formula f("ratio", "num/den", [&] { return num / den; });
    EXPECT_DOUBLE_EQ(f.value(), 2.5);
    num = 20.0;
    EXPECT_DOUBLE_EQ(f.value(), 5.0);
}

TEST(StatGroupTest, HierarchyAndDump)
{
    StatGroup root("system");
    auto &s = root.addScalar("energy", "total energy");
    auto &c = root.addCounter("events", "event count");
    auto &child = root.addGroup("track");
    auto &cs = child.addScalar("launches", "launches");
    s.set(15.0);
    c.increment(3);
    cs.set(2.0);

    EXPECT_EQ(root.numStats(), 2u);
    EXPECT_EQ(root.numGroups(), 1u);
    EXPECT_NE(root.find("energy"), nullptr);
    EXPECT_EQ(root.find("missing"), nullptr);

    std::ostringstream os;
    root.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("system.energy"), std::string::npos);
    EXPECT_NE(out.find("system.events"), std::string::npos);
    EXPECT_NE(out.find("system.track.launches"), std::string::npos);
    EXPECT_NE(out.find("# total energy"), std::string::npos);
}

TEST(StatGroupTest, ResetAllRecurses)
{
    StatGroup root("r");
    auto &s = root.addScalar("s", "d");
    auto &g = root.addGroup("g");
    auto &c = g.addCounter("c", "d");
    s.set(1.0);
    c.increment();
    root.resetAll();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    EXPECT_EQ(c.value(), 0u);
}

TEST(PercentileTest, InterpolatesBetweenClosestRanks)
{
    // p maps to rank p/100 * (n-1) with linear interpolation.
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0}; // unsorted
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(PercentileTest, RejectsEmptyAndOutOfRange)
{
    EXPECT_THROW(percentile({}, 50.0), dhl::FatalError);
    EXPECT_THROW(percentile({1.0}, -1.0), dhl::FatalError);
    EXPECT_THROW(percentile({1.0}, 100.5), dhl::FatalError);
}

TEST(PercentileTest, SingleSampleAnswersEveryQuantile)
{
    // n = 1: rank p/100 * (n-1) is 0 for every p, so the lone sample
    // is every quantile (contract pinned in stats.hpp; the
    // QuantileSketch exact path must agree).
    for (double p : {0.0, 0.1, 25.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(percentile({7.0}, p), 7.0);
}

TEST(PercentileTest, DuplicateValuesFormPlateaus)
{
    // A run of equal values is a plateau: any p whose fractional rank
    // lands inside the run returns that value exactly, with no
    // blending against neighbouring distinct values.
    const std::vector<double> v = {1.0, 2.0, 2.0, 2.0, 3.0}; // n = 5
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);  // rank 1
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.0);  // rank 2
    EXPECT_DOUBLE_EQ(percentile(v, 75.0), 2.0);  // rank 3
    EXPECT_DOUBLE_EQ(percentile(v, 60.0), 2.0);  // rank 2.4, inside run
    // Interpolation only engages at the plateau edges.
    EXPECT_DOUBLE_EQ(percentile(v, 12.5), 1.5);  // rank 0.5
    EXPECT_DOUBLE_EQ(percentile(v, 87.5), 2.5);  // rank 3.5
    // An all-equal sample is one big plateau.
    EXPECT_DOUBLE_EQ(percentile({4.0, 4.0, 4.0}, 33.3), 4.0);
}

TEST(PercentileTest, SloPercentilesSelectTheSortedBitsBitForBit)
{
    // latencyPercentiles() selects only the ranks it interpolates
    // between; each value must be the bits percentile() returns on its
    // own.
    dhl::Rng rng(5);
    for (std::size_t n : {1u, 2u, 7u, 1000u, 4099u}) {
        SloAccumulator acc;
        std::vector<double> samples;
        for (std::size_t i = 0; i < n; ++i) {
            // Ties and spread: a coarse grid plus a lognormal tail.
            const double x = i % 3 == 0
                                 ? static_cast<double>(rng.uniformInt(0, 9))
                                 : rng.lognormal(0.0, 2.0);
            acc.complete(x, 1.0);
            samples.push_back(x);
        }
        const std::vector<double> got =
            acc.latencyPercentiles({0.0, 50.0, 99.0, 99.9, 100.0});
        const double ps[] = {0.0, 50.0, 99.0, 99.9, 100.0};
        ASSERT_EQ(got.size(), 5u);
        for (std::size_t k = 0; k < 5; ++k) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                      std::bit_cast<std::uint64_t>(percentile(samples, ps[k])))
                << "n=" << n << " p=" << ps[k];
        }
        EXPECT_EQ(acc.latencies(), samples); // the samples stay unsorted
    }
    // Nothing completed: every percentile reads 0.
    EXPECT_EQ(SloAccumulator().latencyPercentiles({50.0, 99.0}),
              (std::vector<double>{0.0, 0.0}));
    EXPECT_THROW(sortedPercentile({}, 50.0), dhl::FatalError);
    EXPECT_THROW(sortedPercentile({1.0}, 100.5), dhl::FatalError);
}

TEST(PercentileTest, SloSelectionMatchesTheSortInAnyOrderOfPs)
{
    // Random samples full of duplicates, every n from 1 to 40 and a few
    // larger, against sortedPercentile() of a full sort: the same bits
    // at every p, for p lists in any order, with repeats, 0 and 100.
    std::mt19937_64 gen(17);
    std::vector<std::size_t> sizes;
    for (std::size_t n = 1; n <= 40; ++n)
        sizes.push_back(n);
    for (const std::size_t n : {127u, 1000u, 4097u})
        sizes.push_back(n);
    for (const std::size_t n : sizes) {
        for (int trial = 0; trial < 4; ++trial) {
            SloAccumulator acc;
            std::vector<double> samples;
            const std::uint64_t distinct = 1 + gen() % (n + 1);
            for (std::size_t i = 0; i < n; ++i) {
                const double x =
                    trial % 2 == 0
                        ? static_cast<double>(gen() % distinct)
                        : std::ldexp(static_cast<double>(gen() % distinct),
                                     -static_cast<int>(gen() % 8));
                acc.complete(x, 1.0);
                samples.push_back(x);
            }
            std::vector<double> sorted = samples;
            std::sort(sorted.begin(), sorted.end());
            const auto check = [&](std::initializer_list<double> ps) {
                const std::vector<double> got = acc.latencyPercentiles(ps);
                ASSERT_EQ(got.size(), ps.size());
                std::size_t k = 0;
                for (const double p : ps) {
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k++]),
                              std::bit_cast<std::uint64_t>(
                                  sortedPercentile(sorted, p)))
                        << "n=" << n << " trial=" << trial << " p=" << p;
                }
            };
            check({50.0, 99.0, 99.9});
            check({99.9, 50.0, 99.0});
            check({100.0, 0.0});
            check({0.0, 0.0, 100.0, 100.0});
            check({37.5, 12.5, 87.5, 62.5, 25.0, 50.0, 75.0});
            check({99.0, 99.0, 1.0, 100.0, 0.0, 50.0});
            EXPECT_EQ(acc.latencies(), samples);
        }
    }
    SloAccumulator one;
    one.complete(2.0, 1.0);
    EXPECT_THROW(one.latencyPercentiles({50.0, 100.5}), dhl::FatalError);
    EXPECT_THROW(one.latencyPercentiles({-1.0}), dhl::FatalError);
}

TEST(QuantileSketchTest, ExactWhileSmallThenSwitchesToBins)
{
    QuantileSketch sk(0.0, 10.0, 100, /*exact_capacity=*/8);
    const std::vector<double> vals = {4.0, 1.0, 3.0, 2.0};
    for (double v : vals)
        sk.sample(v);
    ASSERT_TRUE(sk.exact());
    // The exact path delegates to stats::percentile: same rank
    // convention, bit for bit.
    for (double p : {0.0, 25.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(sk.quantile(p), percentile(vals, p));

    for (int i = 0; i < 8; ++i)
        sk.sample(5.0);
    EXPECT_FALSE(sk.exact());
    EXPECT_EQ(sk.count(), 12u);
    // Extremes stay exact even after the handoff.
    EXPECT_DOUBLE_EQ(sk.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(sk.quantile(100.0), 5.0);
}

TEST(QuantileSketchTest, SingleSampleMatchesPercentileContract)
{
    QuantileSketch sk(0.0, 10.0);
    sk.sample(7.0);
    for (double p : {0.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(sk.quantile(p), 7.0);
}

TEST(QuantileSketchTest, BinnedEstimateWithinOneBinWidthOfExact)
{
    // Property test: 10k lognormal samples through a 2048-bin sketch
    // must track the exact percentiles within one bin width.
    const std::size_t bins = 2048;
    const double lo = 0.0, hi = 16.0;
    const double width = (hi - lo) / static_cast<double>(bins);

    QuantileSketch sk(lo, hi, bins);
    std::vector<double> all;
    dhl::Rng rng(2024);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.lognormal(0.0, 0.5);
        sk.sample(v);
        all.push_back(v);
    }
    ASSERT_FALSE(sk.exact());
    for (double p : {1.0, 5.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
        const double exact_q = percentile(all, p);
        ASSERT_LT(exact_q, hi); // bound only holds inside the range
        EXPECT_NEAR(sk.quantile(p), exact_q, width)
            << "p = " << p;
    }
    EXPECT_DOUBLE_EQ(sk.quantile(0.0), sk.min());
    EXPECT_DOUBLE_EQ(sk.quantile(100.0), sk.max());
}

TEST(QuantileSketchTest, OutOfRangeSamplesClampIntoEndBins)
{
    QuantileSketch sk(0.0, 10.0, 10, /*exact_capacity=*/2);
    sk.sample(-5.0);
    sk.sample(0.5);
    sk.sample(9.5);
    sk.sample(25.0);
    EXPECT_FALSE(sk.exact());
    // Extremes are tracked exactly even though the samples were
    // clamped into the end bins...
    EXPECT_DOUBLE_EQ(sk.min(), -5.0);
    EXPECT_DOUBLE_EQ(sk.max(), 25.0);
    EXPECT_DOUBLE_EQ(sk.quantile(0.0), -5.0);
    EXPECT_DOUBLE_EQ(sk.quantile(100.0), 25.0);
    // ...and every interior estimate is clamped into [min, max].
    for (double p : {10.0, 50.0, 90.0}) {
        const double q = sk.quantile(p);
        EXPECT_GE(q, sk.min());
        EXPECT_LE(q, sk.max());
    }
}

TEST(QuantileSketchTest, InsertionOrderDoesNotMatter)
{
    // The sketch state is a function of the sample multiset only —
    // the property that makes parallel planner runs byte-identical.
    QuantileSketch fwd(0.0, 8.0, 64, 4);
    QuantileSketch rev(0.0, 8.0, 64, 4);
    std::vector<double> vals;
    dhl::Rng rng(7);
    for (int i = 0; i < 100; ++i)
        vals.push_back(rng.uniform(0.0, 8.0));
    for (double v : vals)
        fwd.sample(v);
    for (auto it = vals.rbegin(); it != vals.rend(); ++it)
        rev.sample(*it);
    for (double p : {0.0, 12.5, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(fwd.quantile(p), rev.quantile(p));
}

namespace {

std::uint64_t
bitsOf(double x)
{
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/** Equal state, and extremes equal bit for bit (the sign of zero). */
void
expectSameSketch(const QuantileSketch &a, const QuantileSketch &b)
{
    EXPECT_TRUE(a == b);
    ASSERT_EQ(a.count(), b.count());
    if (a.count() > 0) {
        EXPECT_EQ(bitsOf(a.min()), bitsOf(b.min()));
        EXPECT_EQ(bitsOf(a.max()), bitsOf(b.max()));
    }
}

/** Values on and around the edges of the range [2, 10) in 64 bins:
 *  lo, hi, bin edges and one ulp either side, zeros, and out of range. */
std::vector<double>
sketchEdgeValues()
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double lo = 2.0;
    const double hi = 10.0;
    const double width = (hi - lo) / 64.0;
    std::vector<double> out = {0.0, -0.0, -kInf, kInf, -1e300, 1e300, -3.0,
                               25.0};
    for (int k = 0; k <= 64; ++k) {
        const double edge = lo + width * k;
        out.push_back(edge);
        out.push_back(std::nextafter(edge, -kInf));
        out.push_back(std::nextafter(edge, kInf));
    }
    out.push_back(hi);
    return out;
}

/** Feed @p v to a per-sample sketch and, cut into batches of the given
 *  sizes (the rest as one last batch), to a batch sketch. */
void
expectBatchesMatch(const std::vector<double> &v,
                   std::initializer_list<std::size_t> cuts,
                   std::size_t exact_capacity, double lo, double hi,
                   std::size_t bins)
{
    QuantileSketch one(lo, hi, bins, exact_capacity);
    QuantileSketch batch(lo, hi, bins, exact_capacity);
    for (const double x : v)
        one.sample(x);
    std::size_t at = 0;
    for (const std::size_t cut : cuts) {
        const std::size_t take = std::min(cut, v.size() - at);
        batch.sampleBatch(v.data() + at, take);
        at += take;
    }
    batch.sampleBatch(v.data() + at, v.size() - at);
    expectSameSketch(one, batch);
}

} // namespace

TEST(QuantileSketchTest, SampleBatchMatchesSample)
{
    std::mt19937_64 rng(23);
    const std::vector<double> edges = sketchEdgeValues();
    std::uniform_real_distribution<double> around(-1.0, 13.0);
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<double> v = edges;
        const std::size_t extra = rng() % 300;
        for (std::size_t i = 0; i < extra; ++i)
            v.push_back(around(rng));
        std::shuffle(v.begin(), v.end(), rng);
        SCOPED_TRACE("trial " + std::to_string(trial));
        // Batches that straddle the exact buffer's capacity, and ones
        // that end inside or on a lane block.
        for (const std::size_t cap : {0u, 1u, 5u, 16u, 256u})
            expectBatchesMatch(v, {0, 3, 1, 9, 17, 8, 64}, cap, 2.0, 10.0,
                               64);
        expectBatchesMatch(v, {}, 0, 2.0, 10.0, 64);
        expectBatchesMatch(v, {1}, 7, 2.0, 10.0, 1);
    }
}

TEST(QuantileSketchTest, SampleBatchKeepsTheSignOfZeroExtremes)
{
    // std::min/std::max keep the first of two equal extremes, so the
    // sign of a zero minimum or maximum is that of the first zero.
    for (const double first : {0.0, -0.0}) {
        std::vector<double> up = {5.0, first, 1.0, 3.0, 2.0, 7.0, 1.5, 4.0};
        std::vector<double> down = {-5.0, first, -1.0, -3.0, -2.0, -7.0};
        for (int i = 0; i < 40; ++i) {
            up.push_back(i % 3 == 0 ? -first : 1.0 + i);
            down.push_back(i % 3 == 0 ? -first : -1.0 - i);
        }
        expectBatchesMatch(up, {}, 0, 0.0, 8.0, 16);
        expectBatchesMatch(up, {2}, 1, 0.0, 8.0, 16);
        expectBatchesMatch(down, {}, 0, -8.0, 1.0, 16);
        expectBatchesMatch(down, {3}, 1, -8.0, 1.0, 16);
    }
}

TEST(QuantileSketchTest, SampleBatchNaNFatalsLikeSample)
{
    // The NaN's message, and the state it leaves (every sample before
    // it recorded), whether it falls in the exact phase or on lanes.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const std::size_t at : {0u, 2u, 5u, 20u, 21u, 40u, 47u}) {
        std::vector<double> v;
        for (int i = 0; i < 48; ++i)
            v.push_back(0.25 * i);
        v[at] = nan;
        QuantileSketch one(0.0, 10.0, 32, 4);
        QuantileSketch batch(0.0, 10.0, 32, 4);
        std::string one_msg;
        std::string batch_msg;
        try {
            for (const double x : v)
                one.sample(x);
        } catch (const dhl::FatalError &e) {
            one_msg = e.what();
        }
        try {
            batch.sampleBatch(v.data(), v.size());
        } catch (const dhl::FatalError &e) {
            batch_msg = e.what();
        }
        EXPECT_FALSE(one_msg.empty());
        EXPECT_EQ(batch_msg, one_msg) << "NaN at " << at;
        EXPECT_EQ(batch.count(), at);
        expectSameSketch(one, batch);
    }
}

TEST(QuantileSketchTest, EverySketchLaneInstanceMatchesScalarBinning)
{
    // Each instance this host runs against sample()'s binning and
    // std::min/std::max, on raw counts, including a block with a NaN
    // (where it must stop) and a bin count past the int32 lanes.
    using dhl::stats::detail::SketchLanes;
    const double lo = 2.0;
    const double hi = 10.0;
    const std::size_t bins = 64;
    const double width = (hi - lo) / static_cast<double>(bins);
    std::vector<double> v = sketchEdgeValues();
    std::mt19937_64 rng(29);
    std::shuffle(v.begin(), v.end(), rng);
    const auto &instances = dhl::stats::detail::supportedSketchLanes();
    ASSERT_FALSE(instances.empty());
    EXPECT_EQ(instances.back().isa, dhl::lanes::LaneIsa::Scalar);
    for (const SketchLanes &lanes : instances) {
        SCOPED_TRACE(dhl::lanes::isaName(lanes.isa));
        const std::size_t w = dhl::lanes::laneWidth(lanes.isa);
        for (const std::size_t nan_at : {v.size(), std::size_t{13}}) {
            std::vector<double> in = v;
            if (nan_at < in.size())
                in[nan_at] = std::numeric_limits<double>::quiet_NaN();
            std::vector<std::uint64_t> got(bins, 0);
            double got_min = 4.0;
            double got_max = 4.0;
            const std::size_t done =
                lanes.bin(in.data(), in.size(), lo, hi, width, got.data(),
                          bins, got_min, got_max);
            const std::size_t whole = std::min(in.size(), nan_at) / w * w;
            EXPECT_EQ(done, w == 1 ? 0 : whole);

            std::vector<std::uint64_t> want(bins, 0);
            double want_min = 4.0;
            double want_max = 4.0;
            for (std::size_t i = 0; i < done; ++i) {
                const double x = in[i];
                want_min = std::min(want_min, x);
                want_max = std::max(want_max, x);
                std::size_t idx = 0;
                if (x >= hi) {
                    idx = bins - 1;
                } else if (x > lo) {
                    idx = static_cast<std::size_t>((x - lo) / width);
                    idx = std::min(idx, bins - 1);
                }
                ++want[idx];
            }
            EXPECT_EQ(got, want);
            EXPECT_EQ(bitsOf(got_min), bitsOf(want_min));
            EXPECT_EQ(bitsOf(got_max), bitsOf(want_max));
        }
        double m = 0.0;
        double x = 0.0;
        EXPECT_EQ(lanes.bin(v.data(), v.size(), lo, hi, width, nullptr,
                            (std::size_t{1} << 31) + 1, m, x),
                  0u);
    }
}

TEST(QuantileSketchTest, RejectsBadInput)
{
    EXPECT_THROW(QuantileSketch(5.0, 5.0), dhl::FatalError);
    EXPECT_THROW(QuantileSketch(9.0, 5.0), dhl::FatalError);
    EXPECT_THROW(QuantileSketch(0.0, 1.0, 0), dhl::FatalError);
    QuantileSketch sk(0.0, 1.0);
    EXPECT_THROW(sk.quantile(50.0), dhl::FatalError); // empty
    EXPECT_THROW(sk.min(), dhl::FatalError);
    sk.sample(0.5);
    EXPECT_THROW(sk.quantile(-1.0), dhl::FatalError);
    EXPECT_THROW(sk.quantile(101.0), dhl::FatalError);
    EXPECT_THROW(sk.sample(std::nan("")), dhl::FatalError);
}

TEST(StatGroupTest, AccumulatorAndFormulaRegistration)
{
    StatGroup root("r");
    auto &a = root.addAccumulator("acc", "d");
    auto &f = root.addFormula("f", "d", [] { return 7.0; });
    a.sample(1.0);
    EXPECT_DOUBLE_EQ(f.value(), 7.0);
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("acc.mean"), std::string::npos);
    EXPECT_NE(os.str().find("r.f "), std::string::npos);
}

TEST(JainFairnessTest, KnownValues)
{
    // Equal shares are perfectly fair.
    EXPECT_DOUBLE_EQ(jainFairnessIndex({5.0, 5.0, 5.0, 5.0}), 1.0);
    // One user hogging everything: index = 1/n.
    EXPECT_DOUBLE_EQ(jainFairnessIndex({9.0, 0.0, 0.0}), 1.0 / 3.0);
    // Hand-computed: (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
    EXPECT_DOUBLE_EQ(jainFairnessIndex({1.0, 2.0, 3.0}), 36.0 / 42.0);
    // Single user is trivially fair.
    EXPECT_DOUBLE_EQ(jainFairnessIndex({42.0}), 1.0);
    // All-zero allocations: fair by convention.
    EXPECT_DOUBLE_EQ(jainFairnessIndex({0.0, 0.0}), 1.0);
}

TEST(JainFairnessTest, WeightedNormalises)
{
    // Shares proportional to weight are perfectly fair.
    EXPECT_DOUBLE_EQ(
        jainFairnessIndex({3.0, 1.0}, {3.0, 1.0}), 1.0);
    // Weighted degenerates to plain under equal weights.
    EXPECT_DOUBLE_EQ(jainFairnessIndex({1.0, 2.0, 3.0}, {1.0, 1.0, 1.0}),
                     jainFairnessIndex({1.0, 2.0, 3.0}));
    // Hand-computed: normalised shares {1, 4} -> 25/(2*17).
    EXPECT_DOUBLE_EQ(jainFairnessIndex({2.0, 4.0}, {2.0, 1.0}),
                     25.0 / 34.0);
}

TEST(JainFairnessTest, RejectsBadInput)
{
    EXPECT_THROW(jainFairnessIndex({}), dhl::FatalError);
    EXPECT_THROW(jainFairnessIndex({-1.0, 1.0}), dhl::FatalError);
    EXPECT_THROW(jainFairnessIndex({1.0, 1.0}, {1.0}), dhl::FatalError);
    EXPECT_THROW(jainFairnessIndex({1.0, 1.0}, {1.0, 0.0}),
                 dhl::FatalError);
    EXPECT_THROW(jainFairnessIndex({1.0}, {-2.0}), dhl::FatalError);
}
