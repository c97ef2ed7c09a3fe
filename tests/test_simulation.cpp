/**
 * @file
 * Unit tests for the DhlSimulation facade.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "common/logging.hpp"
#include "common/units.hpp"
#include "dhl/simulation.hpp"

using namespace dhl::core;
namespace u = dhl::units;

TEST(DhlSimulationTest, SerialSingleCart)
{
    DhlSimulation sim(defaultConfig());
    const auto r = sim.runBulkTransfer(u::terabytes(100));
    EXPECT_EQ(r.carts, 1u);
    EXPECT_EQ(r.launches, 2u); // out and back
    EXPECT_NEAR(r.total_time, 17.2, 1e-9);
    EXPECT_NEAR(r.total_energy, 2 * 15040.0, 20.0);
    EXPECT_EQ(r.ssd_failures, 0u);
}

TEST(DhlSimulationTest, SerialMatchesAnalyticalBulk)
{
    const DhlConfig cfg = defaultConfig();
    DhlSimulation sim(cfg);
    const double dataset = u::petabytes(2); // 8 carts
    const auto des = sim.runBulkTransfer(dataset);

    const AnalyticalModel model(cfg);
    const auto closed = model.bulk(dhl::qty::Bytes{dataset});
    EXPECT_EQ(des.launches, closed.total_trips);
    EXPECT_NEAR(des.total_time, closed.total_time.value(), 1e-6);
    EXPECT_NEAR(des.total_energy, closed.total_energy.value(), 1e-3);
}

TEST(DhlSimulationTest, ReadTimeAccountedWhenRequested)
{
    const DhlConfig cfg = defaultConfig();
    DhlSimulation plain(cfg);
    DhlSimulation reading(cfg);
    BulkRunOptions opts;
    opts.include_read_time = true;
    const double dataset = u::terabytes(512);

    const auto r0 = plain.runBulkTransfer(dataset);
    const auto r1 = reading.runBulkTransfer(dataset, opts);
    EXPECT_GT(r1.total_time, r0.total_time);
    EXPECT_DOUBLE_EQ(r1.bytes_read, dataset);
    EXPECT_DOUBLE_EQ(r0.bytes_read, 0.0);
}

TEST(DhlSimulationTest, PipelinedDualTrackBeatsSerial)
{
    DhlConfig cfg = defaultConfig();
    cfg.track_mode = TrackMode::DualTrack;
    cfg.docking_stations = 4;
    DhlSimulation serial(cfg);
    DhlSimulation pipe(cfg);
    BulkRunOptions opts;
    opts.pipelined = true;
    const double dataset = u::petabytes(2);

    const auto rs = serial.runBulkTransfer(dataset);
    const auto rp = pipe.runBulkTransfer(dataset, opts);
    EXPECT_LT(rp.total_time, rs.total_time);
    EXPECT_EQ(rp.launches, rs.launches); // same trips, overlapped
    EXPECT_NEAR(rp.total_energy, rs.total_energy, 1e-3);
}

TEST(DhlSimulationTest, FailureInjectionSurfacesInResult)
{
    auto prev = dhl::Logger::global().setLevel(dhl::LogLevel::Silent);
    DhlSimulation sim(defaultConfig(), 7);
    BulkRunOptions opts;
    opts.failure_per_trip = 0.05;
    const auto r = sim.runBulkTransfer(u::petabytes(1), opts);
    dhl::Logger::global().setLevel(prev);
    // 4 carts x 2 trips x 32 SSDs x 5 % ~ 13 expected failures.
    EXPECT_GT(r.ssd_failures, 0u);
    EXPECT_LT(r.ssd_failures, 60u);
}

TEST(DhlSimulationTest, LibraryCapacityEnforced)
{
    DhlConfig cfg = defaultConfig();
    cfg.library_slots = 2;
    DhlSimulation sim(cfg);
    EXPECT_THROW(sim.runBulkTransfer(u::petabytes(1)), dhl::FatalError);
}

TEST(DhlSimulationTest, StatsDumpContainsAllObjects)
{
    DhlSimulation sim(defaultConfig());
    sim.runBulkTransfer(u::terabytes(100));
    std::ostringstream os;
    sim.dumpStats(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("kernel.events_executed"), std::string::npos);
    EXPECT_NE(out.find("dhl.track.lim_energy"), std::string::npos);
    EXPECT_NE(out.find("dhl.library.docks"), std::string::npos);
    EXPECT_NE(out.find("dhl.station0.docks"), std::string::npos);
    EXPECT_NE(out.find("dhl.opens"), std::string::npos);
}

TEST(DhlSimulationTest, RejectsBadDataset)
{
    DhlSimulation sim(defaultConfig());
    EXPECT_THROW(sim.runBulkTransfer(0.0), dhl::FatalError);
}

/** No slot limit: the split's own checks alone. */
constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

TEST(CartSplitTest, ExactMultipleHasNoEmptyTailCart)
{
    const double cap = defaultConfig().cartCapacity().value();
    const auto loads = splitIntoCarts(3.0 * cap, cap, kNoLimit);
    ASSERT_EQ(loads.size(), 3u);
    for (const double load : loads)
        EXPECT_EQ(load, cap);
    DhlSimulation sim(defaultConfig());
    EXPECT_EQ(sim.runBulkTransfer(3.0 * cap).carts, 3u);
}

TEST(CartSplitTest, OnlyTheLastCartIsPartial)
{
    const double cap = defaultConfig().cartCapacity().value();
    const auto loads = splitIntoCarts(2.5 * cap, cap, kNoLimit);
    ASSERT_EQ(loads.size(), 3u);
    EXPECT_EQ(loads[0], cap);
    EXPECT_EQ(loads[1], cap);
    EXPECT_EQ(loads[2], 0.5 * cap);
}

TEST(CartSplitTest, SubCartDatasetIsOneCart)
{
    const double cap = defaultConfig().cartCapacity().value();
    const auto loads = splitIntoCarts(0.25 * cap, cap, kNoLimit);
    ASSERT_EQ(loads.size(), 1u);
    EXPECT_EQ(loads[0], 0.25 * cap);
}

TEST(CartSplitTest, NonPositiveSizeIsFatal)
{
    const double cap = defaultConfig().cartCapacity().value();
    EXPECT_THROW(splitIntoCarts(0.0, cap, kNoLimit), dhl::FatalError);
    EXPECT_THROW(splitIntoCarts(-cap, cap, kNoLimit), dhl::FatalError);
    EXPECT_THROW(splitIntoCarts(std::nan(""), cap, kNoLimit), dhl::FatalError);
}

TEST(CartSplitTest, NonFiniteSizeIsFatal)
{
    const double cap = defaultConfig().cartCapacity().value();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(splitIntoCarts(inf, cap, kNoLimit), dhl::FatalError);
    // Finite, but more carts than a size_t can count.
    EXPECT_THROW(splitIntoCarts(1e300, cap, kNoLimit), dhl::FatalError);
}

TEST(CartSplitTest, MoreCartsThanSlotsIsFatalBeforeAllocating)
{
    const double cap = defaultConfig().cartCapacity().value();
    EXPECT_EQ(splitIntoCarts(2.0 * cap, cap, 2).size(), 2u);
    EXPECT_THROW(splitIntoCarts(2.5 * cap, cap, 2), dhl::FatalError);
    // 1e13 carts: refused by the count, not by a failed allocation.
    EXPECT_THROW(splitIntoCarts(1e13 * cap, cap, 2), dhl::FatalError);

    DhlConfig small = defaultConfig();
    small.library_slots = 2;
    DhlSimulation sim(small);
    EXPECT_THROW(sim.runBulkTransfer(3.0 * cap), dhl::FatalError);
    EXPECT_EQ(sim.runBulkTransfer(2.0 * cap).carts, 2u);
}
