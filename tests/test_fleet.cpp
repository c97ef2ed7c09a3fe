/**
 * @file
 * Unit tests for the DHL fleet (parallel tracks) — including the
 * cross-check against mlsim's quantised closed form.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/logging.hpp"
#include "common/units.hpp"
#include "dhl/fleet.hpp"
#include "mlsim/comm_layer.hpp"

using namespace dhl::core;
namespace u = dhl::units;

TEST(FleetTest, OneTrackMatchesSingleSimulation)
{
    const DhlConfig cfg = defaultConfig();
    const double dataset = 5.0 * cfg.cartCapacity().value();

    DhlFleet fleet(cfg, 1);
    const auto fr = fleet.runBulkTransfer(dataset);
    DhlSimulation single(cfg);
    const auto sr = single.runBulkTransfer(dataset);
    EXPECT_EQ(fr.launches, sr.launches);
    EXPECT_NEAR(fr.total_time, sr.total_time, 1e-9);
    EXPECT_NEAR(fr.total_energy, sr.total_energy, 1e-6);
}

TEST(FleetTest, TracksSplitTripsLikeTheClosedForm)
{
    // The fleet DES must land on DhlComm's quantised formula:
    // time = 2 * ceil(trips / K) * trip_time.
    const DhlConfig cfg = defaultConfig();
    const double dataset = u::petabytes(2.9); // 12 carts
    for (std::size_t k : {1u, 2u, 3u, 4u}) {
        DhlFleet fleet(cfg, k);
        const auto r = fleet.runBulkTransfer(dataset);
        dhl::mlsim::DhlComm comm(cfg);
        EXPECT_NEAR(r.total_time,
                    comm.ingestionTime(dataset, static_cast<double>(k)),
                    1e-6)
            << k << " tracks";
        EXPECT_NEAR(r.total_energy, comm.ingestionEnergy(dataset),
                    r.total_energy * 1e-9)
            << k << " tracks";
    }
}

TEST(FleetTest, MoreTracksNeverSlower)
{
    const DhlConfig cfg = defaultConfig();
    const double dataset = u::petabytes(2);
    double prev = 1e300;
    for (std::size_t k : {1u, 2u, 4u, 8u}) {
        DhlFleet fleet(cfg, k);
        const auto r = fleet.runBulkTransfer(dataset);
        EXPECT_LE(r.total_time, prev + 1e-9);
        prev = r.total_time;
    }
}

TEST(FleetTest, EnergyIndependentOfTrackCount)
{
    const DhlConfig cfg = defaultConfig();
    const double dataset = u::petabytes(2);
    DhlFleet one(cfg, 1);
    DhlFleet four(cfg, 4);
    const auto r1 = one.runBulkTransfer(dataset);
    const auto r4 = four.runBulkTransfer(dataset);
    EXPECT_NEAR(r1.total_energy, r4.total_energy,
                r1.total_energy * 1e-9);
    EXPECT_EQ(r1.launches, r4.launches);
    // But the fleet's average power scales with the parallelism.
    EXPECT_GT(r4.avg_power, 3.0 * r1.avg_power);
}

TEST(FleetTest, ReadsAccountedPerTrack)
{
    DhlConfig cfg = defaultConfig();
    DhlFleet fleet(cfg, 2);
    BulkRunOptions opts;
    opts.include_read_time = true;
    const double dataset = 4.0 * cfg.cartCapacity().value();
    const auto r = fleet.runBulkTransfer(dataset, opts);
    EXPECT_DOUBLE_EQ(r.bytes_read, dataset);
    EXPECT_EQ(r.carts, 4u);
}

TEST(FleetTest, PerTrackSeedsDeriveFromTheFleetSeed)
{
    // Track i's controller RNG is deriveSeed(seed, i) — the same
    // derivation enableFaults applies to the fault streams.  Same seed
    // must replay exactly (including stochastic SSD failures);
    // a different seed must decorrelate the failure pattern.
    const DhlConfig cfg = defaultConfig();
    BulkRunOptions opts;
    opts.failure_per_trip = 0.4;
    const double dataset = 16.0 * cfg.cartCapacity().value();
    auto run = [&](std::uint64_t seed) {
        DhlFleet f(cfg, 2, seed);
        return f.runBulkTransfer(dataset, opts).ssd_failures;
    };
    EXPECT_EQ(run(1), run(1)) << "same seed replays exactly";
    EXPECT_NE(run(1), run(1234567))
        << "the per-track streams follow the fleet seed";
}

TEST(FleetTest, SsdFailuresCountTheRunNotTheLifetime)
{
    // Two runs on one fleet: each reports its own failures, not the
    // controllers' running totals.
    auto prev = dhl::Logger::global().setLevel(dhl::LogLevel::Silent);
    const DhlConfig cfg = defaultConfig();
    DhlFleet fleet(cfg, 2, 7);
    BulkRunOptions opts;
    opts.failure_per_trip = 0.05;
    auto lifetime = [&fleet] {
        std::uint64_t total = 0;
        for (std::size_t t = 0; t < fleet.numTracks(); ++t)
            total += fleet.track(t).ssdFailures();
        return total;
    };
    for (int run = 0; run < 2; ++run) {
        const std::uint64_t before = lifetime();
        const auto r =
            fleet.runBulkTransfer(6.0 * cfg.cartCapacity().value(), opts);
        EXPECT_GT(r.ssd_failures, 0u) << "run " << run;
        EXPECT_EQ(r.ssd_failures, lifetime() - before) << "run " << run;
    }
    dhl::Logger::global().setLevel(prev);
}

TEST(FleetTest, Accessors)
{
    DhlFleet fleet(defaultConfig(), 3);
    EXPECT_EQ(fleet.numTracks(), 3u);
    EXPECT_NO_THROW(fleet.track(2));
    EXPECT_THROW(fleet.track(3), dhl::FatalError);
    EXPECT_THROW(DhlFleet(defaultConfig(), 0), dhl::FatalError);
    EXPECT_THROW(fleet.runBulkTransfer(0.0), dhl::FatalError);
}

TEST(FleetTest, FigureSixLeftmostPoint)
{
    // One DHL at its own average power: the Figure 6 leftmost point.
    const DhlConfig cfg = defaultConfig();
    DhlFleet fleet(cfg, 1);
    const auto r = fleet.runBulkTransfer(u::petabytes(29));
    EXPECT_NEAR(u::toKilowatts(r.avg_power), 1.75, 0.01);
    EXPECT_NEAR(r.total_time, 2 * 114 * 8.6, 1e-6);
}

TEST(FleetTest, RejectsPipelinedRuns)
{
    // The tracks run serial chains; a pipelined request must fail
    // instead of silently running serial.
    DhlFleet fleet(defaultConfig(), 2);
    BulkRunOptions opts;
    opts.pipelined = true;
    EXPECT_THROW(fleet.runBulkTransfer(u::petabytes(1), opts),
                 dhl::FatalError);
}
