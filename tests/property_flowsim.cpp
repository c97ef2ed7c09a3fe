/**
 * @file
 * Property tests for the flow simulator: conservation, fairness, and
 * work-conservation invariants under randomised workloads.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include "network/flowsim.hpp"

using namespace dhl::network;
using dhl::Rng;
using dhl::sim::Simulator;

class FlowSimProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FlowSimProperty, AllBytesDeliveredExactlyOnce)
{
    Rng rng(GetParam());
    Simulator sim;
    FlowSim fs(sim);
    std::vector<int> links;
    for (int i = 0; i < 4; ++i)
        links.push_back(fs.addLink(rng.uniform(50.0, 500.0)));

    double total = 0.0;
    double delivered_via_cb = 0.0;
    const int n_flows = 30;
    for (int i = 0; i < n_flows; ++i) {
        // Random contiguous path over 1-3 links.
        const auto first =
            static_cast<std::size_t>(rng.uniformInt(0, 2));
        const auto len = static_cast<std::size_t>(rng.uniformInt(1, 2));
        std::vector<int> path;
        for (std::size_t j = first;
             j <= first + len && j < links.size(); ++j) {
            path.push_back(links[j]);
        }
        const double bytes = rng.uniform(100.0, 10000.0);
        total += bytes;
        const double start_at = rng.uniform(0.0, 50.0);
        sim.schedule(start_at, [&fs, path, bytes, &delivered_via_cb] {
            fs.startFlow(path, bytes, 0.0,
                         [&delivered_via_cb](const FlowRecord &r) {
                             delivered_via_cb += r.bytes;
                         });
        });
    }
    sim.run();
    EXPECT_NEAR(fs.bytesDelivered(), total, total * 1e-9);
    EXPECT_NEAR(delivered_via_cb, total, total * 1e-9);
    EXPECT_EQ(fs.activeFlows(), 0u);
}

TEST_P(FlowSimProperty, RatesNeverExceedLinkCapacity)
{
    Rng rng(GetParam() + 1000);
    Simulator sim;
    FlowSim fs(sim);
    const int a = fs.addLink(100.0);
    const int b = fs.addLink(60.0);

    for (int i = 0; i < 12; ++i) {
        std::vector<int> path =
            (i % 3 == 0) ? std::vector<int>{a}
                         : (i % 3 == 1) ? std::vector<int>{b}
                                        : std::vector<int>{a, b};
        fs.startFlow(path, 1e9, 0.0, nullptr);
    }
    EXPECT_LE(fs.linkUtilisation(a), 1.0 + 1e-9);
    EXPECT_LE(fs.linkUtilisation(b), 1.0 + 1e-9);
    // Work conservation: at least one link is saturated.
    EXPECT_GT(std::max(fs.linkUtilisation(a), fs.linkUtilisation(b)),
              1.0 - 1e-9);
}

TEST_P(FlowSimProperty, EqualFlowsGetEqualRates)
{
    Rng rng(GetParam() + 2000);
    Simulator sim;
    FlowSim fs(sim);
    const int l = fs.addLink(rng.uniform(100.0, 1000.0));
    std::vector<FlowId> ids;
    const int n = 2 + static_cast<int>(rng.uniformInt(0, 6));
    for (int i = 0; i < n; ++i)
        ids.push_back(fs.startFlow({l}, 1e9, 0.0, nullptr));
    const double expected = fs.linkCapacity(l) / n;
    for (auto id : ids)
        EXPECT_NEAR(fs.flowRate(id), expected, expected * 1e-9);
}

TEST_P(FlowSimProperty, EnergyMatchesPowerTimesDuration)
{
    Rng rng(GetParam() + 3000);
    Simulator sim;
    FlowSim fs(sim);
    const int l = fs.addLink(100.0);
    double sum_power_time = 0.0;
    const int n = 10;
    for (int i = 0; i < n; ++i) {
        const double bytes = rng.uniform(100.0, 5000.0);
        const double power = rng.uniform(1.0, 50.0);
        fs.startFlow({l}, bytes, power,
                     [&sum_power_time, power](const FlowRecord &r) {
                         sum_power_time += power * r.duration();
                     });
    }
    sim.run();
    EXPECT_NEAR(fs.totalEnergy(), sum_power_time,
                sum_power_time * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowSimProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));
