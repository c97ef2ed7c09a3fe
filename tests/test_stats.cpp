/**
 * @file
 * Unit tests for the statistics framework.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
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

TEST(PercentileTest, SloPercentilesShareOneSortBitForBit)
{
    // latencyPercentiles() sorts once and reads every p from that copy;
    // each value must be the bits percentile() returns on its own.
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
