/**
 * @file
 * Jump-ahead and lane kernel behind Rng::discard and Rng::countBelow.
 *
 * Internal to common/random.cpp.  It is a header only so that tests can
 * check the jump polynomials against the published xoshiro256 jumps and
 * run the lane template at their own ISA.
 *
 * Jumping: the xoshiro256 state update is a linear map T on GF(2)^256
 * with characteristic polynomial P of degree 256.  Advancing n draws is
 * T^n, and T^n = q(T) for q = x^n mod P (Cayley-Hamilton), so n draws
 * cost O(log n) polynomial squarings plus one 256-step pass that sums
 * the states T^i s for the nonzero coefficients of q.
 */

#ifndef DHL_COMMON_RANDOM_LANES_HPP
#define DHL_COMMON_RANDOM_LANES_HPP

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/lanes.hpp"

namespace dhl {
namespace detail {

/** A polynomial over GF(2) of degree < 256: bit i of word i / 64 is
 *  the coefficient of x^i. */
using Gf2Poly = std::array<std::uint64_t, 4>;

/** a^2 mod P. */
Gf2Poly squareMod(const Gf2Poly &a);

/** x^n mod P: the polynomial that advances a stream by @p n draws. */
Gf2Poly xPowMod(std::uint64_t n);

/** Advance xoshiro256 state @p s by the draws @p jump stands for. */
void applyJump(std::uint64_t (&s)[4], const Gf2Poly &jump);

/**
 * Rng::countBelow draws a run shorter than this serially.  A lane run
 * pays one x^len jump polynomial plus W - 1 jumps of 256 steps each,
 * about 10 µs in all on a 4-vCPU AVX-512 host, and the serial loop
 * draws in about 2.2 ns: near 8192 draws the two cost the same.
 */
inline constexpr std::size_t kLaneMinDraws = 8192;

/** Four 64-bit lanes: one AVX2 register. */
using U64x4 = std::uint64_t __attribute__((vector_size(32)));

/** Eight 64-bit lanes: one AVX-512 register. */
using U64x8 = std::uint64_t __attribute__((vector_size(64)));

/**
 * One xoshiro256** step on scalar words or on vector lanes alike:
 * stores the output in @p out and advances the state.  The multiplies
 * by 5 and 9 are shift+add, which x86 vectors without AVX-512 need.
 */
template <typename T>
[[gnu::always_inline]] inline void
xoshiroStep(T &s0, T &s1, T &s2, T &s3, T &out)
{
    out = s1 + (s1 << 2);
    out = (out << 7) | (out >> 57);
    out += out << 3;
    const T t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = (s3 << 45) | (s3 >> 19);
}

/**
 * Count the draws of a run of @p total whose top 53 bits are below
 * @p bound into blocks of @p n draws, on W = sizeof(Vec) / 8 lanes.
 *
 * The run is cut into W contiguous ranges of len = total / W draws.
 * Lane j starts at draw j * len, reached from lane j - 1 by one jump,
 * and the lanes advance in lockstep.  The lockstep loop breaks at every
 * block boundary of any lane, where each lane adds its count to its
 * block.  Afterwards @p s is the last lane's state: the serial stream
 * after W * len draws, which is the number returned.  The caller draws
 * the remaining total - W * len serially.
 *
 * @param s     The serial stream state; advanced by the draws counted.
 * @param hits  total / n zero-initialised blocks (n > 0 unless total
 *              is 0).
 */
template <typename Vec>
[[gnu::always_inline]] inline std::size_t
countBelowLanes(std::uint64_t (&s)[4], std::uint64_t bound, std::size_t n,
                std::size_t total, std::uint64_t *hits)
{
    constexpr std::size_t W = sizeof(Vec) / sizeof(std::uint64_t);
    const std::size_t len = total / W;
    if (len == 0)
        return 0;

    const Gf2Poly jump = xPowMod(len);
    Vec s0{}, s1{}, s2{}, s3{};
    std::size_t block[W];
    std::size_t offset[W];
    for (std::size_t j = 0; j < W; ++j) {
        if (j > 0)
            applyJump(s, jump);
        s0[j] = s[0];
        s1[j] = s[1];
        s2[j] = s[2];
        s3[j] = s[3];
        block[j] = j * len / n;
        offset[j] = j * len % n;
    }

    for (std::size_t left = len; left > 0;) {
        std::size_t run = left;
        for (std::size_t j = 0; j < W; ++j)
            run = std::min(run, n - offset[j]);
        // k = draw >> 11 and bound are both <= 2^53, so k - bound
        // wraps to a set top bit exactly when k < bound.
        Vec count{};
        Vec draw{};
        for (std::size_t i = 0; i < run; ++i) {
            xoshiroStep(s0, s1, s2, s3, draw);
            count += ((draw >> 11) - bound) >> 63;
        }
        for (std::size_t j = 0; j < W; ++j) {
            hits[block[j]] += count[j];
            offset[j] += run;
            if (offset[j] == n) {
                offset[j] = 0;
                ++block[j];
            }
        }
        left -= run;
    }

    s[0] = s0[W - 1];
    s[1] = s1[W - 1];
    s[2] = s2[W - 1];
    s[3] = s3[W - 1];
    return W * len;
}

/** One compiled instance of countBelowLanes(). */
struct CountLanes
{
    lanes::LaneIsa isa;
    /** countBelowLanes() at this ISA's width; the scalar instance
     *  counts nothing and returns 0. */
    std::size_t (*count)(std::uint64_t (&s)[4], std::uint64_t bound,
                         std::size_t n, std::size_t total,
                         std::uint64_t *hits);
};

/** The instances this host can run, widest first
 *  (lanes::supportedInstances).  Rng::countBelow uses the first. */
const std::vector<CountLanes> &supportedCountLanes();

} // namespace detail
} // namespace dhl

#endif // DHL_COMMON_RANDOM_LANES_HPP
