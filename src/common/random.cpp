/**
 * @file
 * Implementation of the deterministic RNG and distributions.
 */

#include "common/random.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hpp"
#include "common/random_lanes.hpp"

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

/**
 * xoshiro256's characteristic polynomial P = x^256 + sum c_i x^i, as
 * the words of c (Gf2Poly layout).  Found by Berlekamp-Massey on one
 * state bit; squaring x 128 and 192 times under it reproduces the
 * published JUMP and LONG_JUMP words (tests/test_random.cpp).
 */
constexpr detail::Gf2Poly kCharPoly = {
    0x9d116f2bb0f0f001ull, 0x0280002bcefd1a5eull, 0x04b4edcf26259f85ull,
    0x0003c03c3f3ecb19ull};

/** a * x mod P. */
constexpr detail::Gf2Poly
mulXMod(detail::Gf2Poly a)
{
    const std::uint64_t overflow = 0 - (a[3] >> 63);
    for (std::size_t w = 3; w > 0; --w)
        a[w] = (a[w] << 1) | (a[w - 1] >> 63);
    a[0] <<= 1;
    for (std::size_t w = 0; w < 4; ++w)
        a[w] ^= kCharPoly[w] & overflow;
    return a;
}

/** Row k is x^(256 + 2k) mod P: where squaring moves x^(128 + k). */
constexpr std::array<detail::Gf2Poly, 128> kHighSquares = [] {
    std::array<detail::Gf2Poly, 128> rows{};
    detail::Gf2Poly r = kCharPoly; // x^256 mod P
    for (auto &row : rows) {
        row = r;
        r = mulXMod(mulXMod(r));
    }
    return rows;
}();

bool
coefficient(const detail::Gf2Poly &a, std::size_t i)
{
    return ((a[i / 64] >> (i % 64)) & 1) != 0;
}

/**
 * The lane kernel's instances: one template body, compiled once per
 * ISA and picked through common/lanes.hpp.  Lanes jump to their exact
 * serial start, so every instance returns the same counts.
 */
#if defined(__x86_64__)
[[gnu::target("avx512f")]] std::size_t
laneCountAvx512(std::uint64_t (&s)[4], std::uint64_t bound, std::size_t n,
                std::size_t total, std::uint64_t *hits)
{
    return detail::countBelowLanes<detail::U64x8>(s, bound, n, total, hits);
}

[[gnu::target("avx2")]] std::size_t
laneCountAvx2(std::uint64_t (&s)[4], std::uint64_t bound, std::size_t n,
              std::size_t total, std::uint64_t *hits)
{
    return detail::countBelowLanes<detail::U64x4>(s, bound, n, total, hits);
}
#endif

/** A host without AVX2 counts nothing on lanes: the caller's serial
 *  loop draws the whole run. */
std::size_t
laneCountScalar(std::uint64_t (&)[4], std::uint64_t, std::size_t,
                std::size_t, std::uint64_t *)
{
    return 0;
}

} // namespace

namespace detail {

const std::vector<CountLanes> &
supportedCountLanes()
{
    static const std::vector<CountLanes> instances =
        lanes::supportedInstances<CountLanes>({
#if defined(__x86_64__)
            {lanes::LaneIsa::Avx512, laneCountAvx512},
            {lanes::LaneIsa::Avx2, laneCountAvx2},
#endif
            {lanes::LaneIsa::Scalar, laneCountScalar},
        });
    return instances;
}

Gf2Poly
squareMod(const Gf2Poly &a)
{
    // Over GF(2), (sum a_i x^i)^2 = sum a_i x^(2i): the terms below
    // x^128 stay in range, the others are rows of kHighSquares.
    Gf2Poly r{};
    for (std::size_t i = 0; i < 128; ++i) {
        if (coefficient(a, i))
            r[i / 32] |= std::uint64_t{1} << (2 * i % 64);
    }
    for (std::size_t k = 0; k < 128; ++k) {
        if (coefficient(a, 128 + k)) {
            for (std::size_t w = 0; w < 4; ++w)
                r[w] ^= kHighSquares[k][w];
        }
    }
    return r;
}

Gf2Poly
xPowMod(std::uint64_t n)
{
    // Square-and-multiply over n's bits from the top.
    Gf2Poly r{1, 0, 0, 0};
    for (int bit = static_cast<int>(std::bit_width(n)) - 1; bit >= 0; --bit) {
        r = squareMod(r);
        if ((n >> bit) & 1)
            r = mulXMod(r);
    }
    return r;
}

void
applyJump(std::uint64_t (&s)[4], const Gf2Poly &jump)
{
    // jump(T) s = sum over the set coefficients i of T^i s.
    std::uint64_t acc[4] = {0, 0, 0, 0};
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < 256; ++i) {
        if (coefficient(jump, i)) {
            for (std::size_t w = 0; w < 4; ++w)
                acc[w] ^= s[w];
        }
        xoshiroStep(s[0], s[1], s[2], s[3], out);
    }
    for (std::size_t w = 0; w < 4; ++w)
        s[w] = acc[w];
}

} // namespace detail

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

void
Rng::discard(std::uint64_t n)
{
    detail::applyJump(state_, detail::xPowMod(n));
}

void
Rng::countBelow(std::size_t n, double p, std::span<std::uint64_t> hits)
{
    // Every k = next() >> 11 is below 2^53, so that bound counts every
    // draw; !(p > 0) also catches NaN before any conversion.
    std::uint64_t bound = std::uint64_t{1} << 53;
    if (!(p > 0.0))
        bound = 0;
    else if (p < 1.0)
        bound = static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
    fatal_if(!hits.empty() && n > SIZE_MAX / hits.size(),
             "countBelow: n * blocks overflows a draw count");
    std::fill(hits.begin(), hits.end(), 0);
    const std::size_t total = n * hits.size();
    static const detail::CountLanes &instance =
        detail::supportedCountLanes().front();
    const std::size_t laned =
        total < detail::kLaneMinDraws
            ? 0
            : instance.count(state_, bound, n, total, hits.data());
    for (std::size_t i = laned; i < total; ++i)
        hits[i / n] += (next() >> 11) < bound ? 1 : 0;
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
