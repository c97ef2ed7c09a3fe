/**
 * @file
 * Implementation of the statistics framework.
 */

#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <type_traits>

#include "common/logging.hpp"
#include "common/units.hpp"

namespace dhl {
namespace stats {

namespace {

void
dumpLine(std::ostream &os, const std::string &prefix,
         const std::string &name, const std::string &value,
         const std::string &desc)
{
    std::string full = prefix.empty() ? name : prefix + "." + name;
    os << std::left << std::setw(44) << full << " " << std::setw(16) << value
       << " # " << desc << "\n";
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    std::sort(values.begin(), values.end());
    return sortedPercentile(values, p);
}

namespace {

/** Where percentile @p p of @p n sorted samples sits: the ranks lo and
 *  hi to interpolate between, and the weight of hi. */
struct PercentileRank
{
    std::size_t lo;
    std::size_t hi;
    double frac;
};

PercentileRank
percentileRank(std::size_t n, double p)
{
    fatal_if(n == 0, "percentile of an empty sample");
    fatal_if(p < 0.0 || p > 100.0, "percentile must be in [0, 100]");
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(rank);
    return {lo, std::min(lo + 1, n - 1), rank - static_cast<double>(lo)};
}

double
interpolate(double lo, double hi, double frac)
{
    return lo + frac * (hi - lo);
}

} // namespace

double
sortedPercentile(const std::vector<double> &sorted, double p)
{
    const PercentileRank r = percentileRank(sorted.size(), p);
    return interpolate(sorted[r.lo], sorted[r.hi], r.frac);
}

//===========================================================================
// QuantileSketch
//===========================================================================

namespace {

using lanes::LaneIsa;

/** The bins whose last index (bins - 1) fits an int32 lane. */
constexpr std::size_t kLaneMaxBins = std::size_t{1} << 31;

#if defined(__x86_64__)
using I32x4 = std::int32_t __attribute__((vector_size(16)));
using I32x8 = std::int32_t __attribute__((vector_size(32)));

/**
 * detail::SketchLanes::bin on the lanes of @p I.  Each lane computes
 * sample()'s bin index with its operations: (v - lo) / width,
 * truncated, 0 at or below lo and the last bin at or above hi.  Capping
 * the quotient at the last bin before truncating gives the same integer
 * as capping after, and keeps it in range of the int32 conversion
 * (cvttpd2dq), the only packed double-to-integer one AVX2 has.  The
 * counts are added one by one.  Each lane folds its own samples into a
 * running min and max with std::min/std::max's compares; the lanes'
 * results are folded the same way.  Every extreme but zero has one bit
 * pattern; a zero extreme is found again by a scalar pass, since the
 * sign of zero std::min keeps is that of the first zero it met.
 */
template <LaneIsa I>
[[gnu::always_inline]] inline std::size_t
binLanes(const double *v, std::size_t n, double lo, double hi, double width,
         std::uint64_t *count, std::size_t bins, double &min, double &max)
{
    using Vec = lanes::LaneVec<I>;
    constexpr std::size_t W = lanes::kLaneWidth<I>;
    using Index = std::conditional_t<W == 8, I32x8, I32x4>;
    if (bins > kLaneMaxBins)
        return 0;

    const Vec zero{};
    const Vec lo_v = zero + lo;
    const Vec hi_v = zero + hi;
    const Vec width_v = zero + width;
    const Vec last = zero + static_cast<double>(bins - 1);
    Vec min_v = zero + min;
    Vec max_v = zero + max;
    std::size_t k = 0;
    for (; k + W <= n; k += W) {
        Vec x;
        std::memcpy(&x, v + k, sizeof x);
        if (lanes::anyCompare<I, _CMP_UNORD_Q>(x, x))
            break; // sample() fatal()s on it
        min_v = x < min_v ? x : min_v;
        max_v = max_v < x ? x : max_v;
        Vec q = (x - lo_v) / width_v;
        q = q < last ? q : last;
        q = lo_v < x ? q : zero;
        q = x >= hi_v ? last : q;
        const Index idx = __builtin_convertvector(q, Index);
        for (std::size_t j = 0; j < W; ++j)
            ++count[idx[j]];
    }

    double lanes_min[W];
    double lanes_max[W];
    std::memcpy(lanes_min, &min_v, sizeof lanes_min);
    std::memcpy(lanes_max, &max_v, sizeof lanes_max);
    const double min_in = min;
    const double max_in = max;
    for (std::size_t j = 0; j < W; ++j) {
        min = std::min(min, lanes_min[j]);
        max = std::max(max, lanes_max[j]);
    }
    if (min == 0.0) {
        min = min_in;
        for (std::size_t i = 0; i < k; ++i)
            min = std::min(min, v[i]);
    }
    if (max == 0.0) {
        max = max_in;
        for (std::size_t i = 0; i < k; ++i)
            max = std::max(max, v[i]);
    }
    return k;
}

[[gnu::target("avx512f")]] std::size_t
binAvx512(const double *v, std::size_t n, double lo, double hi,
          double width, std::uint64_t *count, std::size_t bins, double &min,
          double &max)
{
    return binLanes<LaneIsa::Avx512>(v, n, lo, hi, width, count, bins, min,
                                     max);
}

[[gnu::target("avx2")]] std::size_t
binAvx2(const double *v, std::size_t n, double lo, double hi, double width,
        std::uint64_t *count, std::size_t bins, double &min, double &max)
{
    return binLanes<LaneIsa::Avx2>(v, n, lo, hi, width, count, bins, min,
                                   max);
}
#endif

/** A host without AVX2 bins nothing on lanes: sampleBatch() samples
 *  every value through sample(). */
std::size_t
binScalar(const double *, std::size_t, double, double, double,
          std::uint64_t *, std::size_t, double &, double &)
{
    return 0;
}

} // namespace

namespace detail {

const std::vector<SketchLanes> &
supportedSketchLanes()
{
    static const std::vector<SketchLanes> instances =
        lanes::supportedInstances<SketchLanes>({
#if defined(__x86_64__)
            {LaneIsa::Avx512, binAvx512},
            {LaneIsa::Avx2, binAvx2},
#endif
            {LaneIsa::Scalar, binScalar},
        });
    return instances;
}

} // namespace detail

QuantileSketch::QuantileSketch(double lo, double hi, std::size_t n_bins,
                               std::size_t exact_capacity)
    : lo_(lo), hi_(hi),
      width_((hi - lo) / static_cast<double>(n_bins)),
      bins_(n_bins, 0),
      exact_cap_(exact_capacity)
{
    fatal_if(n_bins == 0, "QuantileSketch needs at least one bin");
    fatal_if(!(hi > lo), "QuantileSketch range must satisfy hi > lo");
    exact_.reserve(std::min<std::size_t>(exact_cap_, 1024));
}

void
QuantileSketch::sample(double v)
{
    fatal_if(std::isnan(v), "QuantileSketch::sample(NaN)");
    if (n_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++n_;
    // Clamp out-of-range samples into the end bins; min_/max_ keep the
    // true extremes so quantile(0)/quantile(100) stay exact.
    std::size_t idx = 0;
    if (v >= hi_) {
        idx = bins_.size() - 1;
    } else if (v > lo_) {
        idx = static_cast<std::size_t>((v - lo_) / width_);
        if (idx >= bins_.size())
            idx = bins_.size() - 1; // guard against FP edge rounding
    }
    ++bins_[idx];
    if (n_ <= exact_cap_) {
        exact_.push_back(v);
    } else if (!exact_.empty()) {
        exact_.clear();
        exact_.shrink_to_fit(); // the buffer never helps again
    }
}

void
QuantileSketch::sampleBatch(const double *v, std::size_t n)
{
    static const detail::SketchLanes &instance =
        detail::supportedSketchLanes().front();
    // The first sample, the exact phase and its switch to the bins go
    // through sample(); exact_ stays empty after them.
    std::size_t i = 0;
    for (; i < n && n_ <= exact_cap_; ++i)
        sample(v[i]);
    const std::size_t binned =
        instance.bin(v + i, n - i, lo_, hi_, width_, bins_.data(),
                     bins_.size(), min_, max_);
    n_ += binned;
    for (i += binned; i < n; ++i)
        sample(v[i]);
}

double
QuantileSketch::min() const
{
    fatal_if(n_ == 0, "QuantileSketch::min of an empty sketch");
    return min_;
}

double
QuantileSketch::max() const
{
    fatal_if(n_ == 0, "QuantileSketch::max of an empty sketch");
    return max_;
}

double
QuantileSketch::quantile(double p) const
{
    fatal_if(n_ == 0, "quantile of an empty sketch");
    fatal_if(p < 0.0 || p > 100.0, "quantile must be in [0, 100]");
    if (n_ <= exact_cap_)
        return percentile(exact_, p);
    if (p == 0.0)
        return min_;
    if (p == 100.0)
        return max_;

    // Same rank convention as percentile(): interpolate between the
    // two bracketing order statistics.  Each one is located through
    // the cumulative counts and placed mid-run inside its bin, so the
    // estimate stays within one bin width of the exact value even
    // when the fractional rank straddles a sparse-tail bin boundary
    // (jumping whole bins there would break the documented bound).
    const auto locate = [this](std::uint64_t idx) {
        std::uint64_t before = 0;
        for (std::size_t b = 0; b < bins_.size(); ++b) {
            const std::uint64_t cnt = bins_[b];
            if (cnt == 0)
                continue;
            if (idx <= before + cnt - 1) {
                const double into =
                    (static_cast<double>(idx - before) + 0.5) /
                    static_cast<double>(cnt);
                return lo_ + width_ * (static_cast<double>(b) + into);
            }
            before += cnt;
        }
        return max_; // unreachable: the bins always sum to n_
    };
    const double rank = p / 100.0 * static_cast<double>(n_ - 1);
    const auto lo_idx = static_cast<std::uint64_t>(rank);
    const double frac = rank - static_cast<double>(lo_idx);
    double v = locate(lo_idx);
    if (frac > 0.0)
        v += frac * (locate(lo_idx + 1) - v);
    return std::min(std::max(v, min_), max_);
}

double
jainFairnessIndex(const std::vector<double> &values)
{
    fatal_if(values.empty(), "jainFairnessIndex of an empty sample");
    double sum = 0.0;
    double sum_sq = 0.0;
    for (double v : values) {
        fatal_if(v < 0.0, "jainFairnessIndex: values must be >= 0");
        sum += v;
        sum_sq += v * v;
    }
    if (sum_sq == 0.0)
        return 1.0; // Nothing allocated is trivially fair.
    return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

double
jainFairnessIndex(const std::vector<double> &values,
                  const std::vector<double> &weights)
{
    fatal_if(values.size() != weights.size(),
             "jainFairnessIndex: values/weights size mismatch");
    std::vector<double> normalised(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        fatal_if(weights[i] <= 0.0,
                 "jainFairnessIndex: weights must be > 0");
        normalised[i] = values[i] / weights[i];
    }
    return jainFairnessIndex(normalised);
}

//===========================================================================
// SloAccumulator
//===========================================================================

void
SloAccumulator::complete(double latency, double bytes)
{
    ++served_;
    bytes_ += bytes;
    latencies_.push_back(latency);
}

std::vector<double>
SloAccumulator::latencyPercentiles(std::initializer_list<double> ps) const
{
    std::vector<double> out(ps.size(), 0.0);
    if (latencies_.empty())
        return out;
    // Only the ranks the ps interpolate between need their sorted
    // value.  Settle them in ascending order, each by nth_element over
    // the part right of the last one settled.
    std::vector<PercentileRank> ranks;
    std::vector<std::size_t> wanted;
    for (const double p : ps) {
        ranks.push_back(percentileRank(latencies_.size(), p));
        wanted.push_back(ranks.back().lo);
        wanted.push_back(ranks.back().hi);
    }
    std::sort(wanted.begin(), wanted.end());
    wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
    std::vector<double> v = latencies_;
    // Each wanted rank below `settled` holds its sorted value; the rest
    // of v[0, settled) is only partitioned.
    std::size_t settled = 0;
    for (const std::size_t k : wanted) {
        std::nth_element(v.begin() + static_cast<std::ptrdiff_t>(settled),
                         v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
        settled = k + 1;
    }
    for (std::size_t i = 0; i < ranks.size(); ++i)
        out[i] = interpolate(v[ranks[i].lo], v[ranks[i].hi], ranks[i].frac);
    return out;
}

void
SloAccumulator::restore(std::uint64_t offered, std::uint64_t deferred,
                        std::uint64_t shed, double bytes,
                        std::vector<double> latencies)
{
    offered_ = offered;
    deferred_ = deferred;
    shed_ = shed;
    bytes_ = bytes;
    latencies_ = std::move(latencies);
    served_ = latencies_.size();
}

//===========================================================================
// Scalar / Counter
//===========================================================================

void
Scalar::dump(std::ostream &os, const std::string &prefix) const
{
    dumpLine(os, prefix, name(), units::formatSig(value_, 8), desc());
}

void
Counter::dump(std::ostream &os, const std::string &prefix) const
{
    dumpLine(os, prefix, name(), std::to_string(count_), desc());
}

//===========================================================================
// Accumulator
//===========================================================================

void
Accumulator::sample(double v)
{
    ++n_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    // Welford's online update.
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (v - mean_);
}

double
Accumulator::stddev() const
{
    if (n_ < 2)
        return 0.0;
    return std::sqrt(m2_ / static_cast<double>(n_ - 1));
}

void
Accumulator::dump(std::ostream &os, const std::string &prefix) const
{
    dumpLine(os, prefix, name() + ".count", std::to_string(n_), desc());
    dumpLine(os, prefix, name() + ".sum", units::formatSig(sum_, 8), desc());
    if (n_ > 0) {
        dumpLine(os, prefix, name() + ".mean", units::formatSig(mean(), 8),
                 desc());
        dumpLine(os, prefix, name() + ".min", units::formatSig(min_, 8),
                 desc());
        dumpLine(os, prefix, name() + ".max", units::formatSig(max_, 8),
                 desc());
        dumpLine(os, prefix, name() + ".stddev",
                 units::formatSig(stddev(), 8), desc());
    }
}

void
Accumulator::reset()
{
    n_ = 0;
    sum_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
    mean_ = 0.0;
    m2_ = 0.0;
}

//===========================================================================
// Formula
//===========================================================================

void
Formula::dump(std::ostream &os, const std::string &prefix) const
{
    dumpLine(os, prefix, name(), units::formatSig(value(), 8), desc());
}

//===========================================================================
// StatGroup
//===========================================================================

Scalar &
StatGroup::addScalar(const std::string &name, const std::string &desc)
{
    stats_.push_back(std::make_unique<Scalar>(name, desc));
    return static_cast<Scalar &>(*stats_.back());
}

Counter &
StatGroup::addCounter(const std::string &name, const std::string &desc)
{
    stats_.push_back(std::make_unique<Counter>(name, desc));
    return static_cast<Counter &>(*stats_.back());
}

Accumulator &
StatGroup::addAccumulator(const std::string &name, const std::string &desc)
{
    stats_.push_back(std::make_unique<Accumulator>(name, desc));
    return static_cast<Accumulator &>(*stats_.back());
}

Formula &
StatGroup::addFormula(const std::string &name, const std::string &desc,
                      Formula::Fn fn)
{
    stats_.push_back(std::make_unique<Formula>(name, desc, std::move(fn)));
    return static_cast<Formula &>(*stats_.back());
}

StatGroup &
StatGroup::addGroup(const std::string &name)
{
    children_.push_back(std::make_unique<StatGroup>(name));
    return *children_.back();
}

const StatBase *
StatGroup::find(const std::string &name) const
{
    for (const auto &s : stats_) {
        if (s->name() == name)
            return s.get();
    }
    return nullptr;
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    std::string full = prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &s : stats_)
        s->dump(os, full);
    for (const auto &g : children_)
        g->dump(os, full);
}

void
StatGroup::resetAll()
{
    for (auto &s : stats_)
        s->reset();
    for (auto &g : children_)
        g->resetAll();
}

} // namespace stats
} // namespace dhl
