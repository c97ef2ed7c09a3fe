/**
 * @file
 * Lane kernel behind FlowSim's drain and completion passes.
 *
 * Internal to network/flowsim.cpp.  It is a header only so that tests
 * can run every compiled instance against a scalar loop.
 *
 * One template body on GCC vector types is compiled once per x86-64
 * ISA, AVX-512 (8 lanes) and AVX2 (4 lanes), each inlined into a
 * function of its own `target` and picked through common/lanes.hpp.
 * The one step that differs per ISA, testing a lane compare for any set
 * lane, is lanes::anyCompare.  A host without AVX2 runs the scalar
 * loops below: at the
 * x86-64 base ISA GCC lowers each four-lane select element by element,
 * and that build ran about 2.5x slower than they do.
 *
 * FlowSim runs a group smaller than one block through the scalar loops
 * directly: the call costs two or three flows more than their loop.
 *
 * Every instance returns what the scalar loop returns, bit for bit:
 *  - Each lane does the scalar arithmetic: rem - d, then std::max's
 *    `0 < x ? x : 0`, so -0.0 and NaN still become +0.
 *  - A lane compare only flags a block; each flow of a flagged block
 *    is judged by the scalar test, in member order.
 *  - The survivor minimum does not depend on lane order, because every
 *    survivor is above a positive floor and finite.
 */

#ifndef DHL_NETWORK_FLOW_LANES_HPP
#define DHL_NETWORK_FLOW_LANES_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/lanes.hpp"

namespace dhl {
namespace network {
namespace detail {

using lanes::LaneIsa;

/** rem[k] = max(0, rem[k] - d) for k in [@p k, @p n), one at a time:
 *  the scalar loop, which every lane instance runs on its tail. */
[[gnu::always_inline]] inline void
drainScalar(double *rem, std::size_t k, std::size_t n, double d)
{
    for (; k < n; ++k)
        rem[k] = std::max(0.0, rem[k] - d);
}

/**
 * Drain members [k, n) by @p d one at a time, judge each as
 * sweepLanes() does, and return @p lo folded with the survivors: the
 * scalar loop, which every lane instance runs on its tail.
 */
[[gnu::always_inline]] inline double
sweepScalar(double *rem, const double *floor, std::size_t k, std::size_t n,
            double d, double below, std::uint32_t *&done, double lo)
{
    for (; k < n; ++k) {
        const double r = std::max(0.0, rem[k] - d);
        rem[k] = r;
        if (r <= std::max(floor[k], below))
            *done++ = static_cast<std::uint32_t>(k);
        else
            lo = std::min(lo, r);
    }
    return lo;
}

#if defined(__x86_64__)
using lanes::kLaneWidth;
using lanes::LaneVec;

/**
 * rem[k] = max(0, rem[k] - d) for k < @p n, on the lanes of @p I, with
 * a scalar tail: no access past rem[n - 1].
 */
template <LaneIsa I>
[[gnu::always_inline]] inline void
drainLanes(double *rem, std::size_t n, double d)
{
    using Vec = LaneVec<I>;
    constexpr std::size_t W = kLaneWidth<I>;
    const Vec zero{};
    const Vec dv = zero + d;
    std::size_t k = 0;
    for (; k + W <= n; k += W) {
        Vec r{};
        std::memcpy(&r, rem + k, sizeof r);
        r -= dv;
        r = zero < r ? r : zero;
        std::memcpy(rem + k, &r, sizeof r);
    }
    drainScalar(rem, k, n, d);
}

/**
 * Drain rem[0, n) by @p d as drainLanes() does, write the indices k
 * with rem[k] <= max(floor[k], below) in increasing order at @p done,
 * advancing it past them, and return the minimum of the other rem[k]
 * (+inf if none is left).  @p done must have room for @p n indices.
 *
 * Survivors must be finite, which holds when rem and d are: each one
 * is above max(floor, below), and every floor is positive.  A block
 * of lanes takes one "any lane done?" test on the ISA's native mask;
 * when none is, the common case, its lanes feed a lane-wise minimum.
 * A block with a done lane is re-judged lane by lane by the scalar
 * test, so the done set is the scalar loop's by construction.
 */
template <LaneIsa I>
[[gnu::always_inline]] inline double
sweepLanes(double *rem, const double *floor, std::size_t n, double d,
           double below, std::uint32_t *&done)
{
    using Vec = LaneVec<I>;
    constexpr std::size_t W = kLaneWidth<I>;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::uint32_t *out = done;
    const Vec zero{};
    const Vec dv = zero + d;
    const Vec bv = zero + below;
    Vec lo_lanes = zero + kInf;
    double lo = kInf;
    std::size_t k = 0;
    for (; k + W <= n; k += W) {
        Vec r{}, f{};
        std::memcpy(&r, rem + k, sizeof r);
        std::memcpy(&f, floor + k, sizeof f);
        r -= dv;
        r = zero < r ? r : zero;
        std::memcpy(rem + k, &r, sizeof r);
        const Vec threshold = f < bv ? bv : f;

        if (!lanes::anyCompare<I, _CMP_LE_OS>(r, threshold)) {
            lo_lanes = r < lo_lanes ? r : lo_lanes;
            continue;
        }
        // Judge the drained block by the scalar test (d = 0 leaves it as
        // it is); r stays in a register.
        lo = sweepScalar(rem, floor, k, k + W, 0.0, below, out, lo);
    }
    double lanes[W];
    std::memcpy(lanes, &lo_lanes, sizeof lanes);
    for (const double x : lanes)
        lo = std::min(lo, x);
    lo = sweepScalar(rem, floor, k, n, d, below, out, lo);
    done = out;
    return lo;
}

#endif // __x86_64__

/** One compiled lane instance. */
struct FlowLanes
{
    LaneIsa isa;
    std::size_t width; ///< Lanes per block.
    void (*drain)(double *rem, std::size_t n, double d);
    double (*sweep)(double *rem, const double *floor, std::size_t n,
                    double d, double below, std::uint32_t *&done);
};

/** The lane instances this host can run, widest first
 *  (lanes::supportedInstances).  FlowSim uses the first. */
const std::vector<FlowLanes> &supportedFlowLanes();

} // namespace detail
} // namespace network
} // namespace dhl

#endif // DHL_NETWORK_FLOW_LANES_HPP
