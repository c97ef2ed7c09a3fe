/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * A thin, explicit wrapper over xoshiro256** so that every simulation run
 * is reproducible from its seed and independent of the C++ standard
 * library's unspecified distribution implementations.  All distributions
 * used by the workload generators (uniform, exponential inter-arrival
 * times, log-normal transfer sizes, Zipf popularity) are implemented here
 * so results are bit-stable across platforms.
 */

#ifndef DHL_COMMON_RANDOM_HPP
#define DHL_COMMON_RANDOM_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dhl {

/**
 * Derive a decorrelated child seed from a base seed and a stream index
 * (splitmix64 mixing).  Used by the experiment runner to hand every
 * scenario its own deterministic seed: the result depends only on
 * (base, stream), never on which thread evaluates the scenario.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t stream);

/**
 * The complete stream position of an Rng: the four xoshiro256** state
 * words plus the Box-Muller spare cache.  Checkpoint/restore captures
 * this so a restored run consumes exactly the same variate sequence as
 * the uninterrupted one (sim/snapshot.hpp).
 */
struct RngState
{
    std::uint64_t state[4];
    bool has_spare;
    double spare;
};

/** xoshiro256** PRNG with explicit, copyable state. */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of a single 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /**
     * Advance the stream by exactly @p n draws, as n calls to next()
     * would, in O(log n) time (jump-ahead; common/random_lanes.hpp).
     * The Box-Muller spare is left as it is.
     */
    void discard(std::uint64_t n);

    /**
     * Advance the stream by exactly n * hits.size() draws and count, in
     * each consecutive block of @p n draws, how many of the uniform()
     * values they would have produced are < @p p, without forming any
     * double.  uniform() is k * 2^-53 with k = next() >> 11 < 2^53;
     * both the conversion of k and the scaling by 2^-53 are exact, so
     * uniform() < p holds iff k < p * 2^53, and p * 2^53 = ldexp(p, 53)
     * is exact too.  For an integer k, k < x iff k < ceil(x), so each
     * draw is one integer compare against ceil(ldexp(p, 53)).  p <= 0
     * and NaN count 0 and p >= 1 counts @p n, as the double compare
     * would; every case still consumes the draws, and no NaN or
     * out-of-range value is converted to an integer.  The counts and
     * the stream position afterwards equal those of the loop
     * `hits[b] += uniform() < p` over the blocks in order.
     *
     * The draws run on independent vector lanes, each started at its
     * exact serial position by discard-style jumps, so the result does
     * not depend on the lane count or the ISA that ran it.  A call of
     * fewer than detail::kLaneMinDraws draws in all runs the serial
     * loop, which is faster than the lanes' jump set-up there, and so
     * does every call on a host without AVX2.
     */
    void countBelow(std::size_t n, double p, std::span<std::uint64_t> hits);

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Exponentially distributed value with the given mean (> 0). */
    double exponential(double mean);

    /** Standard normal via Box-Muller (caches the spare variate). */
    double normal(double mean = 0.0, double stddev = 1.0);

    /** Log-normal with the given parameters of the underlying normal. */
    double lognormal(double mu, double sigma);

    /**
     * Zipf-distributed rank in [0, n) with exponent @p s, via inverse-CDF
     * table lookup.  Use ZipfTable for repeated draws over the same (n, s).
     */
    std::size_t zipf(std::size_t n, double s);

    /** Capture the exact stream position. */
    RngState saveState() const;

    /** Resume from a captured stream position. */
    void restoreState(const RngState &s);

  private:
    std::uint64_t state_[4];
    bool has_spare_;
    double spare_;
};

/** Precomputed inverse-CDF table for repeated Zipf draws. */
class ZipfTable
{
  public:
    /**
     * @param n  Number of ranks (> 0).
     * @param s  Zipf exponent (>= 0; 0 degenerates to uniform).
     */
    ZipfTable(std::size_t n, double s);

    /** Draw a rank in [0, n). */
    std::size_t sample(Rng &rng) const;

    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace dhl

#endif // DHL_COMMON_RANDOM_HPP
