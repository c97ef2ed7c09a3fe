/**
 * @file
 * A small, gem5-flavoured statistics framework.
 *
 * Simulation objects register named statistics in a StatGroup; groups nest
 * to form a hierarchy that can be dumped to any ostream at the end of a
 * run.  Statistic kinds:
 *
 *  - Scalar:       a single settable value (e.g. final energy).
 *  - Counter:      a monotonically increasing event count.
 *  - Accumulator:  running sum plus sample statistics (min/max/mean/
 *                  stddev, Welford's algorithm).
 *  - Formula:      a lazily evaluated derived value (e.g. bandwidth =
 *                  bytes / time), captured as a callable.
 *
 * The framework is intentionally single-threaded, like the DES kernel it
 * instruments.
 *
 * Concurrency audit (experiment-execution layer): there is NO global
 * stats registry — every StatGroup hierarchy is owned by the simulation
 * object that created it, so concurrently-running experiment scenarios
 * that each build their own DhlSimulation / TrainingSim never share
 * statistics state.  The contract for parallel scenario execution is
 * therefore: construct stats (and the simulations that own them)
 * *inside* the scenario closure; never capture one StatGroup, Formula
 * callable, or simulation instance in two scenarios.  Formula deserves
 * extra care because it captures arbitrary callables — a Formula must
 * only reference state owned by its own group's simulation.
 */

#ifndef DHL_COMMON_STATS_HPP
#define DHL_COMMON_STATS_HPP

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace dhl {
namespace stats {

/** Base class for all statistics: a name, a description, a dump hook. */
class StatBase
{
  public:
    StatBase(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}
    virtual ~StatBase() = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Write "name value # desc" lines (gem5 stats.txt style). */
    virtual void dump(std::ostream &os, const std::string &prefix) const = 0;

    /** Reset to the initial state. */
    virtual void reset() = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** A single settable scalar value. */
class Scalar : public StatBase
{
  public:
    Scalar(std::string name, std::string desc, double initial = 0.0)
        : StatBase(std::move(name), std::move(desc)), value_(initial)
    {}

    double value() const { return value_; }
    void set(double v) { value_ = v; }
    void add(double v) { value_ += v; }

    Scalar &operator=(double v) { value_ = v; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void reset() override { value_ = 0.0; }

  private:
    double value_;
};

/** A monotonically increasing event counter. */
class Counter : public StatBase
{
  public:
    Counter(std::string name, std::string desc)
        : StatBase(std::move(name), std::move(desc)), count_(0)
    {}

    std::uint64_t value() const { return count_; }
    void increment(std::uint64_t by = 1) { count_ += by; }
    Counter &operator++() { ++count_; return *this; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void reset() override { count_ = 0; }

  private:
    std::uint64_t count_;
};

/** Running sum with sample statistics (Welford's online algorithm). */
class Accumulator : public StatBase
{
  public:
    Accumulator(std::string name, std::string desc)
        : StatBase(std::move(name), std::move(desc))
    {
        reset();
    }

    /** Record one sample. */
    void sample(double v);

    std::uint64_t count() const { return n_; }
    double sum() const { return sum_; }
    double min() const { return min_; }
    double max() const { return max_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Sample standard deviation (n-1 denominator); 0 for n < 2. */
    double stddev() const;

    void dump(std::ostream &os, const std::string &prefix) const override;
    void reset() override;

  private:
    std::uint64_t n_;
    double sum_;
    double min_;
    double max_;
    double mean_;
    double m2_;
};

/**
 * The @p p-th percentile (0 <= p <= 100) of @p values by linear
 * interpolation between closest ranks (the common "exclusive of
 * nothing" definition: percentile(v, 0) = min, percentile(v, 100) =
 * max).  Sorts a copy; fatal() on an empty sample or p outside
 * [0, 100].  Bench code uses this for P99 open latency (E18) and
 * bootstrap confidence intervals (E17).
 *
 * Pinned edge behaviour (QuantileSketch must agree on small samples,
 * so these are contract, not accident):
 *  - n = 1: the rank is 0 for every p, so percentile({x}, p) == x for
 *    all p in [0, 100].
 *  - Duplicate values: interpolation happens between *sorted ranks*,
 *    so a run of equal values is a plateau — any p whose fractional
 *    rank falls inside the run returns exactly that value, with no
 *    blending against neighbouring distinct values.
 */
double percentile(std::vector<double> values, double p);

/**
 * percentile() of @p sorted, which is already in ascending order: the
 * same rank, interpolation and fatal() checks, without the copy and
 * sort, so several percentiles of one sample share one sort.
 */
double sortedPercentile(const std::vector<double> &sorted, double p);

/**
 * Streaming quantile estimator with O(1) memory in the sample count:
 * a fixed-bin CDF sketch over a configured value range, fronted by an
 * exact buffer for small samples (the capacity-planning subsystem
 * feeds it millions of scenario latencies; DESIGN.md §15).
 *
 * Contract:
 *  - While count() <= exactCapacity(), quantile() returns exactly
 *    stats::percentile() of the samples so far (same rank convention,
 *    same n = 1 and duplicate-value behaviour).
 *  - Beyond that, the estimate comes from the binned CDF: the error
 *    of quantile(p) is bounded by one bin width, (hi - lo) / bins,
 *    for quantiles whose true value lies inside [lo, hi).
 *  - Samples outside [lo, hi) are clamped into the end bins, but the
 *    running min/max stay exact, so quantile(0) and quantile(100) are
 *    always the true extremes and every estimate is clamped into
 *    [min, max].
 *
 * Insertion order is part of no contract: the sketch's state after n
 * samples depends only on the multiset of values, so parallel
 * planners that stream the same scenario set in any order agree
 * byte-for-byte.
 */
class QuantileSketch
{
  public:
    /**
     * @param lo        Inclusive lower edge of the binned range.
     * @param hi        Exclusive upper edge (must be > lo).
     * @param n_bins    Equal-width bins (>= 1); error bound is
     *                  (hi - lo) / n_bins.
     * @param exact_capacity  Samples kept exactly before the sketch
     *                  switches to the binned estimate.
     */
    QuantileSketch(double lo, double hi, std::size_t n_bins = 4096,
                   std::size_t exact_capacity = 256);

    /** Record one sample (finite; fatal() on NaN). */
    void sample(double v);

    std::uint64_t count() const { return n_; }
    std::size_t exactCapacity() const { return exact_cap_; }
    /** True while quantile() is still exact (n <= exactCapacity()). */
    bool exact() const { return n_ <= exact_cap_; }

    /** Smallest sample so far; fatal() when empty. */
    double min() const;
    /** Largest sample so far; fatal() when empty. */
    double max() const;

    /**
     * Estimate the p-th percentile (0 <= p <= 100), following the
     * stats::percentile rank convention; fatal() when empty or p is
     * out of range.
     */
    double quantile(double p) const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> bins_;
    std::vector<double> exact_;
    std::size_t exact_cap_;
    std::uint64_t n_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Jain's fairness index of @p values: (sum x)^2 / (n * sum x^2).
 * Ranges over (0, 1]; 1 means perfectly equal shares, 1/n means one
 * entry holds everything.  The all-zero sample is defined as 1.0
 * (nothing allocated is trivially fair).  fatal() on an empty sample
 * or a negative value.  The TE frontier experiment (E20) reports this
 * over per-tenant goodput.
 */
double jainFairnessIndex(const std::vector<double> &values);

/**
 * Weighted Jain index: each value is normalised by its weight
 * (x_i / w_i) before the index is taken, so a tenant receiving
 * exactly its weighted fair share scores 1.0.  Sizes must match and
 * every weight must be > 0; fatal() otherwise.
 */
double jainFairnessIndex(const std::vector<double> &values,
                         const std::vector<double> &weights);

/**
 * Open-loop SLO accounting for one serving stage (src/serve): request
 * dispositions (offered / served / deferred / shed), delivered bytes,
 * and the full completion-latency sample set so tail percentiles
 * (P99/P999) are exact rather than estimated.  Latency is measured
 * from the request's *intended* open-loop arrival time, so queueing
 * delay — including admission deferral — is part of the tail, which is
 * what makes the accounting open-loop (the paper's closed-loop batch
 * harnesses cannot see that delay at all).
 *
 * Plain accounting object, not a StatBase: the serve layer owns one
 * per stage and snapshots/restores them through its own checkpoint
 * path (common/ cannot depend on sim/snapshot).
 */
class SloAccumulator
{
  public:
    /** A request whose arrival falls in this stage. */
    void offer() { ++offered_; }

    /** A request queued at admission (counted once per request). */
    void defer() { ++deferred_; }

    /** A request dropped because the pending queue was full. */
    void shed() { ++shed_; }

    /** A completed request: open-loop latency and delivered bytes. */
    void complete(double latency, double bytes);

    std::uint64_t offered() const { return offered_; }
    std::uint64_t served() const { return served_; }
    std::uint64_t deferred() const { return deferred_; }
    std::uint64_t shed() const { return shed_; }
    double bytesDelivered() const { return bytes_; }

    /**
     * Completion-latency percentiles at each of @p ps, read from one
     * sorted copy of the samples (bit-identical to percentile() of the
     * samples at each p); all 0 when nothing completed.
     */
    std::vector<double>
    latencyPercentiles(std::initializer_list<double> ps) const;

    /** The raw completion-latency samples, in completion order. */
    const std::vector<double> &latencies() const { return latencies_; }

    /** Rebuild from checkpointed state (serve-layer restore path). */
    void restore(std::uint64_t offered, std::uint64_t deferred,
                 std::uint64_t shed, double bytes,
                 std::vector<double> latencies);

  private:
    std::uint64_t offered_ = 0;
    std::uint64_t served_ = 0;
    std::uint64_t deferred_ = 0;
    std::uint64_t shed_ = 0;
    double bytes_ = 0.0;
    std::vector<double> latencies_;
};

/** A derived value evaluated lazily at dump time. */
class Formula : public StatBase
{
  public:
    using Fn = std::function<double()>;

    Formula(std::string name, std::string desc, Fn fn)
        : StatBase(std::move(name), std::move(desc)), fn_(std::move(fn))
    {}

    double value() const { return fn_ ? fn_() : 0.0; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void reset() override {}

  private:
    Fn fn_;
};

/**
 * A named group of statistics.  Groups own their stats and may own child
 * groups; dump() walks the hierarchy depth-first producing dotted
 * "parent.child.stat" names.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return name_; }

    /** Create and register a statistic; the group retains ownership. */
    Scalar &addScalar(const std::string &name, const std::string &desc);
    Counter &addCounter(const std::string &name, const std::string &desc);
    Accumulator &addAccumulator(const std::string &name,
                                const std::string &desc);
    Formula &addFormula(const std::string &name, const std::string &desc,
                        Formula::Fn fn);

    /** Create and register a child group. */
    StatGroup &addGroup(const std::string &name);

    /** Find a stat by name within this group (not recursive); null if
     * absent. */
    const StatBase *find(const std::string &name) const;

    /** Dump all stats in this group and its children. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /** Reset all stats in this group and its children. */
    void resetAll();

    std::size_t numStats() const { return stats_.size(); }
    std::size_t numGroups() const { return children_.size(); }

  private:
    std::string name_;
    std::vector<std::unique_ptr<StatBase>> stats_;
    std::vector<std::unique_ptr<StatGroup>> children_;
};

} // namespace stats
} // namespace dhl

#endif // DHL_COMMON_STATS_HPP
