/**
 * @file
 * Unit tests for the max-min fair fluid flow simulator.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
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
    fs.cancelFlow(1);
    fs.cancelFlow(2);
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

TEST(FlowSimTest, CancelFlowStopsDelivery)
{
    Simulator sim;
    FlowSim fs(sim);
    const int l = fs.addLink(100.0);
    bool fired = false;
    const FlowId id =
        fs.startFlow({l}, 1000.0, 0.0,
                     [&](const FlowRecord &) { fired = true; });
    EXPECT_TRUE(fs.cancelFlow(id));
    EXPECT_FALSE(fs.cancelFlow(id));
    sim.run();
    EXPECT_FALSE(fired);
    EXPECT_DOUBLE_EQ(fs.bytesDelivered(), 0.0);
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

/**
 * Drive @p Kernel through a seeded random multi-link workload and
 * return every observable as hexfloat text: the rate of each flow at
 * start, each completion's finish time and energy, mid-run link
 * utilisation reads (from scripted events and from inside completion
 * callbacks), and the final bytes, energy and clock.
 *
 * Paths come from a small pool, so several flows share one path and
 * distinct paths overlap; sizes come from a short list, so equal flows
 * started together finish at the same instant; scripted times sit on a
 * quarter-second grid, so arrivals tie with completions.  Some flows
 * are cancelled mid-run and some completions start a follow-on flow.
 * Every random draw happens while building the script, so both kernels
 * replay the identical workload.
 */
template <typename Kernel>
std::string
differentialRun(std::uint64_t seed, std::size_t *groups_left = nullptr)
{
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };

    Simulator sim;
    Kernel fs(sim);
    const double capacities[] = {100.0, 300.0, 1000.0, 64.0};
    const int n_links = 2 + static_cast<int>(pick(5));
    for (int l = 0; l < n_links; ++l)
        fs.addLink(capacities[pick(4)]);

    std::vector<std::vector<int>> paths(2 + pick(6));
    for (auto &path : paths) {
        const std::size_t hops = 1 + pick(3);
        for (std::size_t h = 0; h < hops; ++h)
            path.push_back(static_cast<int>(pick(n_links)));
    }
    const double sizes[] = {1000.0, 1000.0, 2500.0, 4096.0, 1234.5,
                            300.0};
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
            sim.scheduleAt(t, [&, path, bytes, power, copies] {
                for (std::size_t c = 0; c < copies; ++c)
                    start(path, bytes, power);
            });
        } else if (kind < 15) {
            const std::size_t which = pick(1000);
            sim.scheduleAt(t, [&, which] {
                if (started.empty())
                    return;
                const FlowId id = started[which % started.size()];
                out << "x" << id << " " << fs.cancelFlow(id) << "\n";
            });
        } else {
            const int l = static_cast<int>(pick(n_links));
            sim.scheduleAt(t, [&, l] {
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
            differentialRun<reference::FlowSim>(seed);
        const std::string got = differentialRun<FlowSim>(seed, &groups_left);
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
