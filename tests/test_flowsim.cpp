/**
 * @file
 * Unit tests for the max-min fair fluid flow simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hpp"
#include "flowsim_reference.hpp"
#include "network/flowsim.hpp"

using namespace dhl::network;
using dhl::sim::Simulator;

TEST(FlowSimTest, SingleFlowFinishesOnSchedule)
{
    Simulator sim;
    FlowSim fs(sim);
    const int l = fs.addLink(100.0); // 100 B/s
    double finished_at = -1.0;
    double carried = 0.0;
    fs.startFlow({l}, 1000.0, 0.0, [&](const FlowRecord &r) {
        finished_at = r.finish_time;
        carried = r.bytes;
    });
    sim.run();
    EXPECT_NEAR(finished_at, 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(carried, 1000.0);
    EXPECT_DOUBLE_EQ(fs.bytesDelivered(), 1000.0);
    EXPECT_EQ(fs.activeFlows(), 0u);
}

TEST(FlowSimTest, TwoFlowsShareFairly)
{
    Simulator sim;
    FlowSim fs(sim);
    const int l = fs.addLink(100.0);
    std::vector<double> finish;
    auto cb = [&](const FlowRecord &r) { finish.push_back(r.finish_time); };
    fs.startFlow({l}, 500.0, 0.0, cb);
    fs.startFlow({l}, 500.0, 0.0, cb);
    EXPECT_DOUBLE_EQ(fs.flowRate(1), 50.0);
    EXPECT_DOUBLE_EQ(fs.flowRate(2), 50.0);
    sim.run();
    ASSERT_EQ(finish.size(), 2u);
    EXPECT_NEAR(finish[0], 10.0, 1e-9);
    EXPECT_NEAR(finish[1], 10.0, 1e-9);
}

TEST(FlowSimTest, ShortFlowReleasesBandwidth)
{
    Simulator sim;
    FlowSim fs(sim);
    const int l = fs.addLink(100.0);
    double long_finish = -1.0;
    // 200 B short flow and 900 B long flow: share 50/50 until t=4
    // (short done: 200/50), then the long one gets the full link.
    fs.startFlow({l}, 900.0, 0.0,
                 [&](const FlowRecord &r) { long_finish = r.finish_time; });
    fs.startFlow({l}, 200.0, 0.0, nullptr);
    sim.run();
    // Long flow: 4 s at 50 B/s (200 B) + 7 s at 100 B/s (700 B) = 11 s.
    EXPECT_NEAR(long_finish, 11.0, 1e-9);
}

TEST(FlowSimTest, MultiLinkBottleneck)
{
    Simulator sim;
    FlowSim fs(sim);
    const int fat = fs.addLink(1000.0);
    const int thin = fs.addLink(10.0);
    fs.startFlow({fat, thin}, 100.0, 0.0, nullptr);
    EXPECT_DOUBLE_EQ(fs.flowRate(1), 10.0); // thin link binds
    EXPECT_NEAR(fs.linkUtilisation(thin), 1.0, 1e-9);
    EXPECT_NEAR(fs.linkUtilisation(fat), 0.01, 1e-9);
    sim.run();
}

TEST(FlowSimTest, MaxMinNonBottleneckedFlowTakesRemainder)
{
    Simulator sim;
    FlowSim fs(sim);
    const int shared = fs.addLink(100.0);
    const int thin = fs.addLink(10.0);
    // Flow A crosses shared+thin (bottlenecked to 10); flow B only
    // shared and should get the remaining 90, not the 50/50 split.
    fs.startFlow({shared, thin}, 1e6, 0.0, nullptr);
    fs.startFlow({shared}, 1e6, 0.0, nullptr);
    EXPECT_DOUBLE_EQ(fs.flowRate(1), 10.0);
    EXPECT_DOUBLE_EQ(fs.flowRate(2), 90.0);
    sim.run();
}

TEST(FlowSimTest, EnergyIntegratesRoutePower)
{
    Simulator sim;
    FlowSim fs(sim);
    const int l = fs.addLink(100.0);
    double energy = -1.0;
    fs.startFlow({l}, 1000.0, 24.0,
                 [&](const FlowRecord &r) { energy = r.energy; });
    sim.run();
    EXPECT_NEAR(energy, 24.0 * 10.0, 1e-9);
    EXPECT_NEAR(fs.totalEnergy(), 240.0, 1e-9);
}

TEST(FlowSimTest, EnergyWithContention)
{
    Simulator sim;
    FlowSim fs(sim);
    const int l = fs.addLink(100.0);
    double e1 = 0.0, e2 = 0.0;
    fs.startFlow({l}, 500.0, 10.0,
                 [&](const FlowRecord &r) { e1 = r.energy; });
    fs.startFlow({l}, 500.0, 10.0,
                 [&](const FlowRecord &r) { e2 = r.energy; });
    sim.run();
    // Both run 10 s at 10 W: contention doubles each flow's duration
    // and hence its route-element energy.
    EXPECT_NEAR(e1, 100.0, 1e-9);
    EXPECT_NEAR(e2, 100.0, 1e-9);
}

TEST(FlowSimTest, CallbackMayStartNextFlow)
{
    Simulator sim;
    FlowSim fs(sim);
    const int l = fs.addLink(100.0);
    double second_finish = -1.0;
    fs.startFlow({l}, 500.0, 0.0, [&](const FlowRecord &) {
        fs.startFlow({l}, 500.0, 0.0, [&](const FlowRecord &r) {
            second_finish = r.finish_time;
        });
    });
    sim.run();
    EXPECT_NEAR(second_finish, 10.0, 1e-9);
}

TEST(FlowSimTest, StaggeredArrival)
{
    Simulator sim;
    FlowSim fs(sim);
    const int l = fs.addLink(100.0);
    double first_finish = -1.0;
    fs.startFlow({l}, 1000.0, 0.0,
                 [&](const FlowRecord &r) { first_finish = r.finish_time; });
    sim.schedule(5.0, [&] { fs.startFlow({l}, 250.0, 0.0, nullptr); });
    sim.run();
    // First flow: 5 s alone (500 B) + 5 s shared (250 B) + 2.5 s alone
    // (250 B) = 12.5 s.
    EXPECT_NEAR(first_finish, 12.5, 1e-9);
}

TEST(FlowSimTest, RejectsBadArguments)
{
    Simulator sim;
    FlowSim fs(sim);
    const int l = fs.addLink(100.0);
    EXPECT_THROW(fs.addLink(0.0), dhl::FatalError);
    EXPECT_THROW(fs.startFlow({}, 100.0), dhl::FatalError);
    EXPECT_THROW(fs.startFlow({l + 7}, 100.0), dhl::FatalError);
    EXPECT_THROW(fs.startFlow({l}, 0.0), dhl::FatalError);
    EXPECT_THROW(fs.startFlow({l}, 100.0, -1.0), dhl::FatalError);
    // Non-finite sizes and powers: a NaN power fails no `< 0` test.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(fs.startFlow({l}, inf), dhl::FatalError);
    EXPECT_THROW(fs.startFlow({l}, nan), dhl::FatalError);
    EXPECT_THROW(fs.startFlow({l}, 100.0, inf), dhl::FatalError);
    EXPECT_THROW(fs.startFlow({l}, 100.0, nan), dhl::FatalError);
    EXPECT_EQ(fs.activeFlows(), 0u);
    EXPECT_THROW(fs.flowRate(999), dhl::FatalError);
    EXPECT_THROW(fs.linkCapacity(-1), dhl::FatalError);
}

TEST(FlowSimTest, ThreeLinkContentionRatesAreExactlyDeterministic)
{
    // Water-filling walks links and flows in id order, so the exact
    // floating-point rate allocation is pinned — EXPECT_DOUBLE_EQ, not
    // EXPECT_NEAR.  Guards against iteration-order nondeterminism (the
    // old implementation walked an unordered_map).
    //
    // Topology: A(10) carries f1{A}, f2{A,B}; B(20) carries f2, f3{B,C};
    // C(30) carries f3, f4{C}.
    //   Round 1: A binds at 10/2 = 5  -> f1 = f2 = 5.
    //   Round 2: B residual 15 for f3, C residual 30 for f3,f4 = 15 each
    //            -> f3 = f4 = 15.
    const auto run_once = [](std::vector<double> &rates,
                             std::vector<double> &finishes) {
        Simulator sim;
        FlowSim fs(sim);
        const int a = fs.addLink(10.0);
        const int b = fs.addLink(20.0);
        const int c = fs.addLink(30.0);
        auto cb = [&](const FlowRecord &r) {
            finishes.push_back(r.finish_time);
        };
        const FlowId f1 = fs.startFlow({a}, 100.0, 0.0, cb);
        const FlowId f2 = fs.startFlow({a, b}, 100.0, 0.0, cb);
        const FlowId f3 = fs.startFlow({b, c}, 150.0, 0.0, cb);
        const FlowId f4 = fs.startFlow({c}, 150.0, 0.0, cb);
        rates = {fs.flowRate(f1), fs.flowRate(f2), fs.flowRate(f3),
                 fs.flowRate(f4)};
        sim.run();
    };

    std::vector<double> rates, finishes;
    run_once(rates, finishes);
    ASSERT_EQ(rates.size(), 4u);
    EXPECT_DOUBLE_EQ(rates[0], 5.0);
    EXPECT_DOUBLE_EQ(rates[1], 5.0);
    EXPECT_DOUBLE_EQ(rates[2], 15.0);
    EXPECT_DOUBLE_EQ(rates[3], 15.0);

    // Re-running the identical scenario reproduces rates and finish
    // times bit-for-bit.
    std::vector<double> rates2, finishes2;
    run_once(rates2, finishes2);
    EXPECT_EQ(rates, rates2);
    EXPECT_EQ(finishes, finishes2);
    ASSERT_EQ(finishes.size(), 4u);
}

//===========================================================================
// Differential test: the path-grouped kernel against the per-flow,
// id-ordered reference kernel (flowsim_reference.hpp), bit for bit.
//===========================================================================

namespace {

/** Link capacities and flow sizes a differential workload draws from. */
struct Scale
{
    double capacities[4]; ///< bytes/s
    double sizes[6];      ///< bytes
    double epoch = 0.0;   ///< s added to every scripted time
};

/** Kilobyte flows on slow links: the size·1e-9 floor sits below the
 *  absolute 1e-6 B floor. */
constexpr Scale kByteScale{{100.0, 300.0, 1000.0, 64.0},
                           {1000.0, 1000.0, 2500.0, 4096.0, 1234.5, 300.0}};

/** The byte scale a billion seconds in: the clock's ulp (~1.2e-7 s)
 *  leaves residues a scheduled completion does not clear, so the
 *  forced-completion path runs. */
constexpr Scale kLateClockScale{
    {100.0, 300.0, 1000.0, 64.0},
    {1000.0, 1000.0, 2500.0, 4096.0, 1234.5, 300.0},
    1e9};

/** Gigabyte flows on 100 Gbit/s links: size·1e-9 is bytes, so it, not
 *  the absolute floor, competes with the rate bound.  Sizes a few bytes
 *  apart leave that residue on one flow when its twin completes. */
constexpr Scale kGigabyteScale{
    {12.5e9, 12.5e9, 12.5e9, 12.5e9},
    {1e9, 1e9 + 0.75, 2.5e9, 4.096e9, 4.096e9 + 3.5, 1234567890.5}};

/**
 * Drive @p Kernel through a seeded random multi-link workload at
 * @p scale and
 * return every observable as hexfloat text: the rate of each flow at
 * start, each completion's finish time and energy, mid-run link
 * utilisation reads (from scripted events and from inside completion
 * callbacks), and the final bytes, energy and clock.
 *
 * Paths come from a small pool, so several flows share one path and
 * distinct paths overlap; sizes come from a short list, so equal flows
 * started together finish at the same instant; scripted times sit on a
 * quarter-second grid, so arrivals tie with completions.  Some
 * completions start a follow-on flow.
 * Every random draw happens while building the script, so both kernels
 * replay the identical workload.
 */
template <typename Kernel>
std::string
differentialRun(std::uint64_t seed, const Scale &scale,
                std::size_t *groups_left = nullptr,
                reference::FlowSim::Counts *counts = nullptr)
{
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };

    Simulator sim;
    Kernel fs(sim);
    const int n_links = 2 + static_cast<int>(pick(5));
    for (int l = 0; l < n_links; ++l)
        fs.addLink(scale.capacities[pick(4)]);

    std::vector<std::vector<int>> paths(2 + pick(6));
    for (auto &path : paths) {
        const std::size_t hops = 1 + pick(3);
        for (std::size_t h = 0; h < hops; ++h)
            path.push_back(static_cast<int>(pick(n_links)));
    }
    const double *sizes = scale.sizes;
    const double powers[] = {0.0, 24.0, 7.5};

    std::ostringstream out;
    out << std::hexfloat;
    std::vector<FlowId> started;

    std::function<void(const FlowRecord &)> on_done;
    const auto start = [&](std::size_t path, double bytes, double power) {
        const FlowId id = fs.startFlow(paths[path], bytes, power, on_done);
        started.push_back(id);
        out << "s" << id << " " << fs.flowRate(id) << "\n";
    };
    on_done = [&](const FlowRecord &r) {
        out << "d" << r.id << " " << r.start_time << " " << r.finish_time
            << " " << r.energy << " " << r.bytes << "\n";
        if (r.id % 2 == 0) {
            const int l = static_cast<int>(r.id % n_links);
            out << "cu" << l << " " << fs.linkUtilisation(l) << "\n";
        }
        if (r.id % 3 == 0 && r.id < 400) {
            start(r.id % paths.size(), sizes[r.id % 6],
                  powers[r.id % 3]);
        }
    };

    const std::size_t actions = 30 + pick(90);
    for (std::size_t a = 0; a < actions; ++a) {
        const double t = 0.25 * static_cast<double>(pick(160));
        const std::size_t kind = pick(20);
        if (kind < 12) {
            const std::size_t path = pick(paths.size());
            const double bytes = sizes[pick(6)];
            const double power = powers[pick(3)];
            const std::size_t copies = kind < 3 ? 2 + pick(3) : 1;
            sim.scheduleAt(scale.epoch + t, [&, path, bytes, power, copies] {
                for (std::size_t c = 0; c < copies; ++c)
                    start(path, bytes, power);
            });
        } else {
            const int l = static_cast<int>(pick(n_links));
            sim.scheduleAt(scale.epoch + t, [&, l] {
                out << "u" << l << " " << fs.linkUtilisation(l) << " "
                    << fs.activeFlows() << " " << fs.totalEnergy()
                    << "\n";
            });
        }
    }
    sim.run();

    out << "end " << fs.bytesDelivered() << " " << fs.totalEnergy() << " "
        << sim.now() << " " << fs.activeFlows() << " " << started.size()
        << "\n";
    if constexpr (std::is_same_v<Kernel, FlowSim>) {
        if (groups_left != nullptr)
            *groups_left = fs.pathGroups();
    } else {
        if (counts != nullptr)
            *counts = fs.counts();
    }
    return out.str();
}

} // namespace

TEST(FlowSimDifferential, BitIdenticalToReferenceKernel)
{
    std::size_t flows = 0, completions = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        std::size_t groups_left = 99;
        const std::string want =
            differentialRun<reference::FlowSim>(seed, kByteScale);
        const std::string got =
            differentialRun<FlowSim>(seed, kByteScale, &groups_left);
        ASSERT_EQ(want, got) << "seed " << seed;
        EXPECT_EQ(groups_left, 0u) << "seed " << seed;
        for (std::size_t i = 0; i < got.size(); ++i) {
            const bool line_start = i == 0 || got[i - 1] == '\n';
            flows += line_start && got[i] == 's';
            completions += line_start && got[i] == 'd';
        }
    }
    // The workload must actually exercise the kernel.
    EXPECT_GT(flows, 10000u);
    EXPECT_GT(completions, 10000u);
}

TEST(FlowSimDifferential, GigabyteFlowsBitIdenticalToReferenceKernel)
{
    // At GB sizes the size·1e-9 floor is about a byte, far above the
    // absolute 1e-6 B floor, so it is the floor that competes with the
    // rate bound when a completion is judged.
    std::size_t completions = 0, size_floor = 0;
    for (std::uint64_t seed = 1001; seed <= 1100; ++seed) {
        std::size_t groups_left = 99;
        reference::FlowSim::Counts counts;
        const std::string want = differentialRun<reference::FlowSim>(
            seed, kGigabyteScale, nullptr, &counts);
        const std::string got =
            differentialRun<FlowSim>(seed, kGigabyteScale, &groups_left);
        ASSERT_EQ(want, got) << "seed " << seed;
        EXPECT_EQ(groups_left, 0u) << "seed " << seed;
        size_floor += counts.size_floor;
        for (std::size_t i = 0; i < got.size(); ++i)
            completions += (i == 0 || got[i - 1] == '\n') && got[i] == 'd';
    }
    EXPECT_GT(completions, 5000u);
    // Some completions are decided by the size floor alone.
    EXPECT_GT(size_floor, 0u);
}

TEST(FlowSimDifferential, LateClockBitIdenticalToReferenceKernel)
{
    std::size_t forced = 0;
    for (std::uint64_t seed = 2001; seed <= 2100; ++seed) {
        std::size_t groups_left = 99;
        reference::FlowSim::Counts counts;
        const std::string want = differentialRun<reference::FlowSim>(
            seed, kLateClockScale, nullptr, &counts);
        const std::string got =
            differentialRun<FlowSim>(seed, kLateClockScale, &groups_left);
        ASSERT_EQ(want, got) << "seed " << seed;
        EXPECT_EQ(groups_left, 0u) << "seed " << seed;
        forced += counts.forced;
    }
    // The forced-completion sweep actually runs.
    EXPECT_GT(forced, 0u);
}

namespace {

/**
 * Drive @p Kernel through a crowded-path workload at @p scale: a burst
 * of 40 to 99 flows on one path, then scripted arrivals that mostly
 * join it, with the observables of differentialRun().  A group that
 * large runs whole lane blocks of the SIMD drain and sweep, where
 * differentialRun()'s small groups mostly take the scalar tail.
 * Equal sizes started together complete together, so one block holds
 * several done flows.  For FlowSim, @p crowd receives the most flows
 * seen in flight while all of them shared one path.
 */
template <typename Kernel>
std::string
crowdedRun(std::uint64_t seed, const Scale &scale,
           std::size_t *crowd = nullptr,
           reference::FlowSim::Counts *counts = nullptr)
{
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };

    Simulator sim;
    Kernel fs(sim);
    const int n_links = 1 + static_cast<int>(pick(3));
    for (int l = 0; l < n_links; ++l)
        fs.addLink(scale.capacities[pick(4)]);

    // paths[0] is the crowded one; the others overlap it or each other.
    std::vector<std::vector<int>> paths(1 + pick(3));
    for (auto &path : paths) {
        const std::size_t hops = 1 + pick(2);
        for (std::size_t h = 0; h < hops; ++h)
            path.push_back(static_cast<int>(pick(n_links)));
    }
    const double *sizes = scale.sizes;
    const double powers[] = {0.0, 24.0, 7.5};

    std::ostringstream out;
    out << std::hexfloat;
    std::size_t most = 0;

    std::function<void(const FlowRecord &)> on_done;
    const auto start = [&](std::size_t path, double bytes, double power) {
        const FlowId id = fs.startFlow(paths[path], bytes, power, on_done);
        out << "s" << id << " " << fs.flowRate(id) << "\n";
        if constexpr (std::is_same_v<Kernel, FlowSim>) {
            if (fs.pathGroups() == 1)
                most = std::max(most, fs.activeFlows());
        }
    };
    on_done = [&](const FlowRecord &r) {
        out << "d" << r.id << " " << r.start_time << " " << r.finish_time
            << " " << r.energy << " " << r.bytes << "\n";
        if (r.id % 5 == 0) {
            const int l = static_cast<int>(r.id % n_links);
            out << "cu" << l << " " << fs.linkUtilisation(l) << "\n";
        }
        if (r.id % 3 == 0 && r.id < 600)
            start(0, sizes[r.id % 6], powers[r.id % 3]);
    };

    // The burst: every flow on paths[0], a few instants apart.
    const std::size_t burst = 40 + pick(60);
    for (std::size_t i = 0; i < burst; ++i) {
        const double t = 0.25 * static_cast<double>(pick(4));
        const double bytes = sizes[pick(6)];
        const double power = powers[pick(3)];
        sim.scheduleAt(scale.epoch + t,
                       [&, bytes, power] { start(0, bytes, power); });
    }
    const std::size_t actions = 20 + pick(60);
    for (std::size_t a = 0; a < actions; ++a) {
        const double t = 1.0 + 0.25 * static_cast<double>(pick(160));
        const std::size_t kind = pick(10);
        if (kind < 8) {
            const std::size_t path = kind < 6 ? 0 : pick(paths.size());
            const double bytes = sizes[pick(6)];
            const double power = powers[pick(3)];
            const std::size_t copies = 1 + pick(4);
            sim.scheduleAt(scale.epoch + t, [&, path, bytes, power, copies] {
                for (std::size_t c = 0; c < copies; ++c)
                    start(path, bytes, power);
            });
        } else {
            const int l = static_cast<int>(pick(n_links));
            sim.scheduleAt(scale.epoch + t, [&, l] {
                out << "u" << l << " " << fs.linkUtilisation(l) << " "
                    << fs.activeFlows() << " " << fs.totalEnergy()
                    << "\n";
            });
        }
    }
    sim.run();

    out << "end " << fs.bytesDelivered() << " " << fs.totalEnergy() << " "
        << sim.now() << " " << fs.activeFlows() << "\n";
    if constexpr (std::is_same_v<Kernel, FlowSim>) {
        if (crowd != nullptr)
            *crowd = most;
    } else {
        if (counts != nullptr)
            *counts = fs.counts();
    }
    return out.str();
}

} // namespace

TEST(FlowSimDifferential, CrowdedPathBitIdenticalToReferenceKernel)
{
    // Byte, gigabyte and late-clock seeds: the size floor, the rate
    // bound and the forced sweep each decide completions in full lane
    // blocks.
    const struct
    {
        const Scale *scale;
        std::uint64_t first;
    } runs[] = {{&kByteScale, 3001},
                {&kGigabyteScale, 3101},
                {&kLateClockScale, 3201}};
    std::size_t size_floor = 0, forced = 0;
    for (const auto &run : runs) {
        for (std::uint64_t seed = run.first; seed < run.first + 40; ++seed) {
            std::size_t crowd = 0;
            reference::FlowSim::Counts counts;
            const std::string want = crowdedRun<reference::FlowSim>(
                seed, *run.scale, nullptr, &counts);
            const std::string got =
                crowdedRun<FlowSim>(seed, *run.scale, &crowd);
            ASSERT_EQ(want, got) << "seed " << seed;
            EXPECT_GE(crowd, 40u) << "seed " << seed;
            size_floor += counts.size_floor;
            forced += counts.forced;
        }
    }
    EXPECT_GT(size_floor, 0u);
    EXPECT_GT(forced, 0u);
}

//===========================================================================
// The division-free completion test
//===========================================================================

TEST(FlowSimThreshold, QuotientBoundIsTheExactEdge)
{
    const double inf = std::numeric_limits<double>::infinity();
    const auto check = [inf](double rate, double limit) {
        const double t = quotientBound(rate, limit);
        EXPECT_LE(t / rate, limit) << std::hexfloat << rate << " " << limit;
        EXPECT_GT(std::nextafter(t, inf) / rate, limit)
            << std::hexfloat << rate << " " << limit;
    };
    // Log-uniform rates over the range a fabric can carry.
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> exponent(-3.0, 13.0);
    for (int i = 0; i < 100000; ++i)
        check(std::pow(10.0, exponent(rng)), 1e-9);
    // Edge rates: the range ends and their neighbours, powers of two,
    // link capacities and their fair shares.
    for (const double rate :
         {1e-3, 1e13, std::nextafter(1e-3, inf), std::nextafter(1e13, 0.0),
          1.0, 0.5, 2.0, 1024.0, 0x1p-10, 0x1p40, 64.0, 100.0, 300.0,
          1000.0, 12.5e9, 12.5e9 / 3.0, 12.5e9 / 7.0, 12.5e9 / 800.0,
          50e9, 50e9 / 3.0, 1e9 + 1.0, 3.0, 0.1, 1e-9, 1e9}) {
        check(rate, 1e-9);
    }
    // The forced-completion path asks for other limits.
    std::uniform_real_distribution<double> lim_exp(-15.0, -6.0);
    for (int i = 0; i < 10000; ++i) {
        const double limit = std::pow(10.0, lim_exp(rng)) * (1.0 + 1e-9);
        check(std::pow(10.0, exponent(rng)), limit);
    }
}

TEST(FlowSimThreshold, CompletionTestMatchesThreeWayOracle)
{
    const double inf = std::numeric_limits<double>::infinity();
    const auto fast = [](double rem, double total, double rate) {
        return rem <= std::max(drainFloor(total),
                               quotientBound(rate, 1e-9));
    };
    std::size_t checked = 0, drained = 0;
    const auto agree = [&](double rem, double total, double rate) {
        const bool want = reference::drained(rem, total, rate);
        ASSERT_EQ(fast(rem, total, rate), want)
            << std::hexfloat << rem << " " << total << " " << rate;
        ++checked;
        drained += want;
    };
    std::mt19937_64 rng(11);
    std::uniform_real_distribution<double> rate_exp(-3.0, 13.0);
    std::uniform_real_distribution<double> total_exp(0.0, 13.0);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < 20000; ++i) {
        const double rate = std::pow(10.0, rate_exp(rng));
        const double total = std::pow(10.0, total_exp(rng));
        // Each clause's boundary and its neighbouring doubles.
        for (const double edge :
             {1e-6, total * 1e-9, rate * 1e-9,
              quotientBound(rate, 1e-9)}) {
            double below = edge, above = edge;
            for (int k = 0; k < 3; ++k) {
                agree(below, total, rate);
                agree(above, total, rate);
                below = std::nextafter(below, 0.0);
                above = std::nextafter(above, inf);
            }
        }
        // And a spread of residues from nothing to the whole flow.
        agree(0.0, total, rate);
        agree(total, total, rate);
        agree(total * std::pow(unit(rng), 8.0), total, rate);
    }
    EXPECT_GT(checked, 500000u);
    // Both outcomes occur.
    EXPECT_GT(drained, 0u);
    EXPECT_LT(drained, checked);
}
