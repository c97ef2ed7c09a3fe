/**
 * @file
 * The FlowSim lane kernel against its scalar loop, bit for bit.
 *
 * Every lane instance this host can run (network/flow_lanes.hpp) drains
 * and sweeps arrays of exactly n doubles, so a read or write past the
 * last member is a heap overflow that AddressSanitizer reports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "network/flow_lanes.hpp"
#include "network/flowsim.hpp"

using dhl::network::drainFloor;
using dhl::network::detail::FlowLanes;
using dhl::lanes::isaName;
using dhl::lanes::LaneIsa;
using dhl::network::detail::supportedFlowLanes;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t
bitsOf(double x)
{
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/** One group's members and the pass parameters. */
struct Case
{
    std::vector<double> rem;
    std::vector<double> floor;
    double d = 0.0;
    double below = 0.0;
};

/** The scalar completion sweep the lane kernel replaces. */
double
scalarSweep(std::vector<double> &rem, const std::vector<double> &floor,
            double d, double below, std::vector<std::uint32_t> &done)
{
    double lo = kInf;
    for (std::size_t k = 0; k < rem.size(); ++k) {
        const double r = std::max(0.0, rem[k] - d);
        rem[k] = r;
        if (r <= std::max(floor[k], below))
            done.push_back(static_cast<std::uint32_t>(k));
        else
            lo = std::min(lo, r);
    }
    return lo;
}

/** Count of sweeps that flagged a flow, for the coverage checks. */
struct Seen
{
    std::size_t sweeps = 0;
    std::size_t done = 0;
};

/**
 * Run @p lanes' drain and sweep on copies of @p c and compare every
 * remaining-byte bit pattern, the returned minimum and the done list
 * with the scalar loops.
 */
void
expectMatchesScalar(const FlowLanes &lanes, const Case &c, Seen &seen,
                    const std::string &what)
{
    const std::size_t n = c.rem.size();
    SCOPED_TRACE(std::string(isaName(lanes.isa)) + " n=" +
                 std::to_string(n) + " " + what);

    std::vector<double> want_drain = c.rem;
    for (double &r : want_drain)
        r = std::max(0.0, r - c.d);
    std::vector<double> got_drain = c.rem;
    lanes.drain(got_drain.data(), n, c.d);
    for (std::size_t k = 0; k < n; ++k)
        EXPECT_EQ(bitsOf(got_drain[k]), bitsOf(want_drain[k]))
            << "drain, member " << k;

    std::vector<double> want_rem = c.rem;
    std::vector<std::uint32_t> want_done;
    const double want_lo =
        scalarSweep(want_rem, c.floor, c.d, c.below, want_done);

    std::vector<double> got_rem = c.rem;
    std::vector<std::uint32_t> got_done(n);
    std::uint32_t *end = got_done.data();
    const double got_lo = lanes.sweep(got_rem.data(), c.floor.data(), n,
                                      c.d, c.below, end);
    got_done.resize(static_cast<std::size_t>(end - got_done.data()));

    EXPECT_EQ(bitsOf(got_lo), bitsOf(want_lo)) << "survivor minimum";
    EXPECT_EQ(got_done, want_done);
    for (std::size_t k = 0; k < n; ++k)
        EXPECT_EQ(bitsOf(got_rem[k]), bitsOf(want_rem[k]))
            << "sweep, member " << k;
    ++seen.sweeps;
    seen.done += want_done.size();
}

/** @p n members well above every threshold: nothing completes. */
Case
survivors(std::mt19937_64 &rng, std::size_t n, double d, double below)
{
    std::uniform_real_distribution<double> size(1e3, 1e9);
    Case c;
    c.d = d;
    c.below = below;
    for (std::size_t k = 0; k < n; ++k) {
        const double s = size(rng);
        c.rem.push_back(s + d + below);
        c.floor.push_back(drainFloor(s));
    }
    return c;
}

const char *const kEdges[] = {"at", "one ulp below", "one ulp above"};

/**
 * Put member @p p of @p c on the completion edge: after the drain its
 * bytes equal the threshold (edge 0), sit one ulp under it (1, done)
 * or one ulp over it (2, a survivor).  With @p by_below the threshold
 * is the shared bound, else the member's own floor.
 */
void
placeOnEdge(Case &c, std::size_t p, int edge, bool by_below)
{
    const double after = std::max(0.0, c.rem[p] - c.d);
    double threshold = after;
    if (edge == 1)
        threshold = std::nextafter(after, kInf);
    else if (edge == 2)
        threshold = std::nextafter(after, 0.0);
    if (by_below) {
        c.below = threshold;
        // Keep every other member clear of the new bound.
        for (std::size_t k = 0; k < c.rem.size(); ++k) {
            if (k != p)
                c.rem[k] = std::max(c.rem[k], 4.0 * threshold + c.d);
        }
    } else {
        c.floor[p] = threshold;
    }
}

} // namespace

TEST(FlowLanes, SupportedInstancesWidestFirst)
{
    const auto &lanes = supportedFlowLanes();
    ASSERT_FALSE(lanes.empty());
    EXPECT_EQ(lanes.back().isa, LaneIsa::Scalar);
    for (std::size_t i = 1; i < lanes.size(); ++i)
        EXPECT_GT(lanes[i - 1].width, lanes[i].width);
    for (const FlowLanes &l : lanes)
        EXPECT_EQ(l.width, l.isa == LaneIsa::Avx512 ? 8u
                           : l.isa == LaneIsa::Avx2 ? 4u
                                                    : 1u);
}

TEST(FlowLanes, EveryInstanceMatchesScalarAtEveryGroupSize)
{
    std::mt19937_64 rng(2025);
    for (const FlowLanes &lanes : supportedFlowLanes()) {
        Seen seen;
        const std::size_t w = lanes.width;
        for (std::size_t n = 0; n <= 2 * w + 3; ++n) {
            for (const double d : {0.0, 0.5, 1234.5678}) {
                for (const double below : {0.0, 3e-6}) {
                    expectMatchesScalar(lanes, survivors(rng, n, d, below),
                                        seen, "survivors");
                    // A done flow at every lane position and in the
                    // tail, on each side of the edge, decided by its
                    // floor or by the shared bound.
                    for (std::size_t p = 0; p < n; ++p) {
                        for (int edge = 0; edge < 3; ++edge) {
                            for (const bool by_below : {false, true}) {
                                Case c = survivors(rng, n, d, below);
                                placeOnEdge(c, p, edge, by_below);
                                expectMatchesScalar(
                                    lanes, c, seen,
                                    std::string("member ") +
                                        std::to_string(p) + " " +
                                        kEdges[edge] +
                                        (by_below ? " of below"
                                                  : " of floor"));
                            }
                        }
                    }
                }
            }
        }
        EXPECT_GT(seen.done, 0u) << isaName(lanes.isa);
    }
}

TEST(FlowLanes, DrainPastZeroAndSignedZeroMatchScalar)
{
    // d larger than the bytes left clamps to +0; -0.0 and NaN become +0
    // through std::max's operand order, never -0.0.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const FlowLanes &lanes : supportedFlowLanes()) {
        Seen seen;
        const std::size_t w = lanes.width;
        for (std::size_t n = 1; n <= 2 * w + 3; ++n) {
            for (const double d : {0.0, 5.0, 1e12}) {
                Case c;
                c.d = d;
                for (std::size_t k = 0; k < n; ++k) {
                    const double pick[] = {-0.0, 0.0, 1.0, 4.0, 5.0,
                                           nan, 1e9, 6.0};
                    c.rem.push_back(pick[(k * 5 + n) % 8]);
                    c.floor.push_back(1e-6);
                }
                expectMatchesScalar(lanes, c, seen, "d=" + std::to_string(d));

                std::vector<double> rem = c.rem;
                lanes.drain(rem.data(), n, d);
                for (std::size_t k = 0; k < n; ++k) {
                    EXPECT_FALSE(std::signbit(rem[k])) << "member " << k;
                    EXPECT_FALSE(std::isnan(rem[k])) << "member " << k;
                }
            }
        }
        EXPECT_GT(seen.done, 0u);
    }
}

TEST(FlowLanes, RandomGroupsMatchScalar)
{
    // Mixed groups: members scattered around their floors and the shared
    // bound, several done per block, at the sizes FlowSim meets.
    std::mt19937_64 rng(77);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (const FlowLanes &lanes : supportedFlowLanes()) {
        Seen seen;
        for (int trial = 0; trial < 400; ++trial) {
            const std::size_t n = static_cast<std::size_t>(rng() % 300);
            Case c;
            c.d = unit(rng) < 0.2 ? 0.0 : 100.0 * unit(rng);
            c.below = unit(rng) < 0.5 ? 0.0 : 10.0 * unit(rng);
            for (std::size_t k = 0; k < n; ++k) {
                const double size = 1.0 + 1e4 * unit(rng);
                c.floor.push_back(std::max(drainFloor(size), 20.0 * unit(rng)));
                c.rem.push_back(unit(rng) < 0.1 ? c.d + c.floor.back()
                                                : c.d + size * unit(rng));
            }
            expectMatchesScalar(lanes, c, seen,
                                "trial " + std::to_string(trial));
        }
        EXPECT_GT(seen.done, 1000u) << isaName(lanes.isa);
    }
}
