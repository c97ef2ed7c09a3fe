/**
 * @file
 * Implementation of the deterministic RNG and distributions.
 */

#include "common/random.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace dhl {

namespace {

/** splitmix64 step used to expand the seed into the xoshiro state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t stream)
{
    // Advance a splitmix64 stream keyed by the base, then fold in the
    // stream index and mix once more; two unequal (base, stream) pairs
    // land on unrelated points of the generator's orbit.
    std::uint64_t x = base;
    std::uint64_t mixed = splitmix64(x);
    x = mixed ^ stream;
    return splitmix64(x);
}

Rng::Rng(std::uint64_t seed)
    : has_spare_(false), spare_(0.0)
{
    std::uint64_t sm = seed;
    for (auto &s : state_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::countBelow(std::size_t n, double p)
{
    // Every k = next() >> 11 is below 2^53, so that bound counts every
    // draw; !(p > 0) also catches NaN before any conversion.
    std::uint64_t bound = std::uint64_t{1} << 53;
    if (!(p > 0.0))
        bound = 0;
    else if (p < 1.0)
        bound = static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < n; ++i)
        hits += (next() >> 11) < bound ? 1 : 0;
    return hits;
}

double
Rng::uniform(double lo, double hi)
{
    fatal_if(!(hi >= lo), "uniform(lo, hi) requires hi >= lo");
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    fatal_if(hi < lo, "uniformInt(lo, hi) requires hi >= lo");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return lo + static_cast<std::int64_t>(v % span);
}

double
Rng::exponential(double mean)
{
    fatal_if(!(mean > 0.0), "exponential mean must be positive");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::normal(double mean, double stddev)
{
    if (has_spare_) {
        has_spare_ = false;
        return mean + stddev * spare_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spare_ = r * std::sin(theta);
    has_spare_ = true;
    return mean + stddev * r * std::cos(theta);
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

std::size_t
Rng::zipf(std::size_t n, double s)
{
    ZipfTable table(n, s);
    return table.sample(*this);
}

RngState
Rng::saveState() const
{
    RngState s{};
    for (std::size_t i = 0; i < 4; ++i)
        s.state[i] = state_[i];
    s.has_spare = has_spare_;
    s.spare = spare_;
    return s;
}

void
Rng::restoreState(const RngState &s)
{
    for (std::size_t i = 0; i < 4; ++i)
        state_[i] = s.state[i];
    has_spare_ = s.has_spare;
    spare_ = s.spare;
}

ZipfTable::ZipfTable(std::size_t n, double s)
{
    fatal_if(n == 0, "ZipfTable needs at least one rank");
    fatal_if(s < 0.0, "Zipf exponent must be non-negative");
    cdf_.resize(n);
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = acc;
    }
    for (auto &v : cdf_)
        v /= acc;
}

std::size_t
ZipfTable::sample(Rng &rng) const
{
    const double u = rng.uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end())
        return cdf_.size() - 1;
    return static_cast<std::size_t>(it - cdf_.begin());
}

} // namespace dhl
