/**
 * @file
 * Unit tests for the topology-level fabric simulator.
 */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <tuple>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "network/fabric_sim.hpp"
#include "network/transfer.hpp"
#include "workloads/generator.hpp"

using namespace dhl::network;
using dhl::sim::Simulator;
namespace u = dhl::units;

TEST(FabricSimTest, BuildsOneLinkPerEdge)
{
    Simulator sim;
    FabricSim fabric(sim);
    // Default fat tree: 24 host links + 8 ToR-agg + 2 agg-core.
    EXPECT_EQ(fabric.numLinks(), 24u + 8u + 2u);
}

TEST(FabricSimTest, UncontendedCrossAisleMatchesRouteC)
{
    Simulator sim;
    FabricSim fabric(sim);
    const double bytes = u::terabytes(18); // 360 s on one link
    double finish = -1.0, energy = -1.0;
    fabric.startTransfer({0, 0, 0}, {1, 0, 0}, bytes,
                         [&](const FlowRecord &r) {
                             finish = r.finish_time;
                             energy = r.energy;
                         });
    sim.run();
    const TransferModel c(findRoute("C"));
    const auto expect = c.transfer(dhl::qty::Bytes{bytes});
    EXPECT_NEAR(finish, expect.time.value(), 1e-6);
    EXPECT_NEAR(energy, expect.energy.value(), expect.energy.value() * 1e-9);
}

TEST(FabricSimTest, SameRackFlowsAvoidTheUplink)
{
    Simulator sim;
    FabricSim fabric(sim);
    fabric.startTransfer({0, 0, 0}, {0, 0, 1}, 1e15);
    EXPECT_DOUBLE_EQ(fabric.torUplinkUtilisation(0, 0), 0.0);
    // A cross-rack flow does use it.
    fabric.startTransfer({0, 1, 0}, {0, 2, 0}, 1e15);
    EXPECT_GT(fabric.torUplinkUtilisation(0, 1), 0.9);
}

TEST(FabricSimTest, UplinkContentionSharesFairly)
{
    Simulator sim;
    FabricSim fabric(sim);
    // Two flows out of the same rack contend on the host links? No:
    // each host has its own link; they contend on the rack's single
    // uplink to the aggregation switch.
    std::vector<double> finishes;
    auto cb = [&](const FlowRecord &r) {
        finishes.push_back(r.finish_time);
    };
    const double bytes = u::terabytes(9); // 180 s alone
    fabric.startTransfer({0, 0, 0}, {0, 1, 0}, bytes, cb);
    fabric.startTransfer({0, 0, 1}, {0, 1, 1}, bytes, cb);
    sim.run();
    ASSERT_EQ(finishes.size(), 2u);
    // Shared uplink at half rate: both take ~360 s.
    EXPECT_NEAR(finishes[0], 360.0, 1e-6);
    EXPECT_NEAR(finishes[1], 360.0, 1e-6);
}

TEST(FabricSimTest, DisjointRacksDoNotInterfere)
{
    Simulator sim;
    FabricSim fabric(sim);
    double f1 = -1.0, f2 = -1.0;
    const double bytes = u::terabytes(9);
    fabric.startTransfer({0, 0, 0}, {0, 0, 1}, bytes,
                         [&](const FlowRecord &r) { f1 = r.finish_time; });
    fabric.startTransfer({1, 3, 0}, {1, 3, 1}, bytes,
                         [&](const FlowRecord &r) { f2 = r.finish_time; });
    sim.run();
    EXPECT_NEAR(f1, 180.0, 1e-6);
    EXPECT_NEAR(f2, 180.0, 1e-6);
}

TEST(FabricSimTest, GeneratedBackupsContendRealistically)
{
    // End-to-end: a generated backup stream rides the fabric between
    // fixed hosts; total energy must equal the per-transfer closed
    // form because the backups are spaced (no self-contention).
    Simulator sim;
    FabricSim fabric(sim);
    dhl::Rng rng(11);
    dhl::workloads::PeriodicBackupGenerator gen(u::hours(6),
                                                u::terabytes(9));
    const auto requests = gen.generate(u::days(1), rng);
    ASSERT_EQ(requests.size(), 4u);

    double energy = 0.0;
    for (const auto &req : requests) {
        sim.scheduleAt(req.at, [&fabric, &energy, bytes = req.bytes] {
            fabric.startTransfer({0, 0, 0}, {1, 2, 0}, bytes,
                                 [&energy](const FlowRecord &r) {
                                     energy += r.energy;
                                 });
        });
    }
    sim.run();
    const TransferModel c(findRoute("C"));
    const double expect =
        4.0 * c.transfer(dhl::qty::terabytes(9.0)).energy.value();
    EXPECT_NEAR(energy, expect, expect * 1e-9);
}

TEST(FabricSimTest, Validation)
{
    Simulator sim;
    EXPECT_THROW(FabricSim(sim, FatTreeConfig{}, 0.0), dhl::FatalError);
    FabricSim fabric(sim);
    EXPECT_THROW(fabric.torUplinkUtilisation(9, 9), dhl::FatalError);
    EXPECT_THROW(
        fabric.startTransfer({0, 0, 0}, {0, 0, 0}, 1e12),
        dhl::FatalError);
}

TEST(FabricSimTest, LongChurnAcrossHostPairsRetiresEveryPathGroup)
{
    // Thousands of transfers between random host pairs come and go.
    // The flow kernel interns one path group per distinct link list;
    // groups must be retired with their last flow, so the table tracks
    // the live paths only and ends empty.
    Simulator sim;
    const FatTreeConfig cfg;
    FabricSim fabric(sim, cfg);
    std::mt19937_64 rng(7);
    const auto host = [&] {
        return HostAddress{
            static_cast<int>(rng() % static_cast<unsigned>(cfg.aisles)),
            static_cast<int>(rng() %
                             static_cast<unsigned>(cfg.racks_per_aisle)),
            static_cast<int>(rng() %
                             static_cast<unsigned>(cfg.hosts_per_rack))};
    };
    const auto key = [](const HostAddress &h) {
        return std::make_tuple(h.aisle, h.rack, h.host);
    };

    std::set<std::tuple<int, int, int, int, int, int>> pairs;
    std::size_t completed = 0;
    for (int i = 0; i < 4000; ++i) {
        HostAddress src = host(), dst = host();
        while (key(src) == key(dst))
            dst = host();
        pairs.insert(std::tuple_cat(key(src), key(dst)));
        const double bytes = 1e9 * static_cast<double>(1 + rng() % 8);
        sim.scheduleAt(0.01 * i, [&, src, dst, bytes] {
            fabric.startTransfer(src, dst, bytes,
                                 [&](const FlowRecord &) { ++completed; });
            EXPECT_LE(fabric.flows().pathGroups(),
                      fabric.flows().activeFlows());
        });
    }
    sim.run();

    EXPECT_GT(pairs.size(), 400u);
    EXPECT_EQ(completed, 4000u);
    EXPECT_EQ(fabric.flows().activeFlows(), 0u);
    EXPECT_EQ(fabric.flows().pathGroups(), 0u);
}
