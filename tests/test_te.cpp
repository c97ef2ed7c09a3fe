/**
 * @file
 * Tests for the traffic-engineering subsystem (src/te) and its serve
 * integration: demand estimation, controller epochs, hybrid
 * admit/downgrade decisions, snapshot round-trips, and the serving-loop
 * checkpoint oracle with TE enabled.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/units.hpp"
#include "exp/slo.hpp"
#include "serve/serving.hpp"
#include "te/controller.hpp"
#include "te/demand.hpp"

using namespace dhl;
namespace u = dhl::units;

namespace {

te::TeConfig
baseTeConfig()
{
    te::TeConfig tc;
    tc.enabled = true;
    tc.mode = te::TeMode::Hybrid;
    tc.control_period = 10.0;
    tc.small_bytes = u::gigabytes(8.0);
    tc.optical_capacity = u::gigabitsPerSecond(100.0);
    tc.dhl_capacity = 100.0; // B/s; tiny so contention is easy to force
    tc.headroom = 0.9;
    tc.usage_multiplier = 1.0;
    tc.history = 4;
    tc.min_priority_contended = 1;
    return tc;
}

} // namespace

TEST(DemandEstimatorTest, ProjectsMultiplierTimesWindowMax)
{
    te::DemandEstimator est({3, 1.5}, 2);
    EXPECT_DOUBLE_EQ(est.estimate(0), 0.0); // empty window
    est.record(0, 4.0);
    est.record(0, 10.0);
    est.record(0, 2.0);
    EXPECT_DOUBLE_EQ(est.estimate(0), 1.5 * 10.0);
    EXPECT_DOUBLE_EQ(est.estimate(1), 0.0); // independent series
}

TEST(DemandEstimatorTest, HistoryIsBounded)
{
    te::DemandEstimator est({2, 1.0}, 1);
    est.record(0, 10.0);
    est.record(0, 1.0);
    est.record(0, 1.0); // evicts the 10
    EXPECT_DOUBLE_EQ(est.estimate(0), 1.0);
}

TEST(DemandEstimatorTest, SnapshotRoundTrips)
{
    te::DemandEstimator est({4, 1.25}, 2);
    est.record(0, 3.0);
    est.record(1, 7.0);
    est.record(1, 2.0);

    std::stringstream buf;
    {
        sim::SnapshotWriter w(buf);
        est.snapshot(w);
    }
    te::DemandEstimator fresh({4, 1.25}, 2);
    {
        sim::SnapshotReader r(buf);
        fresh.snapshot(r);
    }
    EXPECT_DOUBLE_EQ(fresh.estimate(0), est.estimate(0));
    EXPECT_DOUBLE_EQ(fresh.estimate(1), est.estimate(1));
}

TEST(TeControllerTest, PureModesIgnoreContention)
{
    sim::Simulator sim;
    auto tc = baseTeConfig();
    tc.mode = te::TeMode::DhlOnly;
    te::TeController dhl_only(sim, tc, {{"t", 1.0}});
    const auto d1 = dhl_only.decide(0, u::gigabytes(100), 0);
    EXPECT_EQ(d1.substrate, te::Substrate::Dhl);
    EXPECT_TRUE(d1.admit);

    tc.mode = te::TeMode::OpticalOnly;
    te::TeController optical_only(sim, tc, {{"t", 1.0}});
    const auto d2 = optical_only.decide(0, u::gigabytes(100), 0);
    EXPECT_EQ(d2.substrate, te::Substrate::Optical);
    EXPECT_TRUE(d2.admit);
}

TEST(TeControllerTest, HybridSplitsBySizeThreshold)
{
    sim::Simulator sim;
    te::TeController ctl(sim, baseTeConfig(), {{"t", 1.0}});
    EXPECT_EQ(ctl.decide(0, u::gigabytes(2), 0).substrate,
              te::Substrate::Optical);
    EXPECT_EQ(ctl.decide(0, u::gigabytes(64), 0).substrate,
              te::Substrate::Dhl);
}

TEST(TeControllerTest, TickComputesDemandAndContention)
{
    sim::Simulator sim;
    auto tc = baseTeConfig();
    te::TeController ctl(sim, tc, {{"a", 1.0}, {"b", 1.0}});
    ctl.start();
    // Tenant a pushes 10 kB of bulk through the first epoch; capacity
    // is 100 B/s, so its 1 kB/s demand is contended.
    ctl.recordUsage(0, u::gigabytes(100));
    sim.runUntil(tc.control_period + 1.0);
    ctl.stop();

    EXPECT_EQ(ctl.ticks(), 1u);
    const double expect_bulk =
        u::gigabytes(100) / tc.control_period * tc.usage_multiplier;
    EXPECT_DOUBLE_EQ(ctl.demand(0, te::Substrate::Dhl), expect_bulk);
    EXPECT_DOUBLE_EQ(ctl.demand(1, te::Substrate::Dhl), 0.0);
    EXPECT_DOUBLE_EQ(ctl.allocation(0, te::Substrate::Dhl),
                     tc.dhl_capacity);
    EXPECT_TRUE(ctl.contended(0));
    EXPECT_FALSE(ctl.contended(1));
}

TEST(TeControllerTest, ContendedLowPriorityDowngradesHighPriorityStays)
{
    sim::Simulator sim;
    auto tc = baseTeConfig();
    te::TeController ctl(sim, tc, {{"t", 1.0}});
    ctl.start();
    ctl.recordUsage(0, u::gigabytes(100));
    sim.runUntil(tc.control_period + 1.0);
    ASSERT_TRUE(ctl.contended(0));
    ASSERT_TRUE(ctl.downgradeOk());

    const auto low = ctl.decide(0, u::gigabytes(64), 0);
    EXPECT_EQ(low.substrate, te::Substrate::Optical);
    EXPECT_TRUE(low.admit);
    EXPECT_TRUE(low.downgraded);

    const auto high = ctl.decide(0, u::gigabytes(64), 1);
    EXPECT_EQ(high.substrate, te::Substrate::Dhl);
    EXPECT_TRUE(high.admit);
    EXPECT_FALSE(high.downgraded);
    ctl.stop();

    // With no tick pending the contention branch is disabled: the
    // drain after the horizon admits everything.
    const auto after = ctl.decide(0, u::gigabytes(64), 0);
    EXPECT_EQ(after.substrate, te::Substrate::Dhl);
    EXPECT_TRUE(after.admit);
}

TEST(TeControllerTest, HoldsWhenOpticalHasNoHeadroom)
{
    sim::Simulator sim;
    auto tc = baseTeConfig();
    // Optical plan saturated by small-flow demand: 100 GB over a 10 s
    // epoch is ~10 GB/s against a ~1.1 GB/s planned capacity.
    te::TeController ctl(sim, tc, {{"t", 1.0}});
    ctl.start();
    ctl.recordUsage(0, u::gigabytes(100)); // bulk group
    for (int i = 0; i < 30; ++i)           // small group: 12 GB/s
        ctl.recordUsage(0, u::gigabytes(4));
    sim.runUntil(tc.control_period + 1.0);
    ASSERT_TRUE(ctl.contended(0));
    ASSERT_FALSE(ctl.downgradeOk());

    const auto d = ctl.decide(0, u::gigabytes(64), 0);
    EXPECT_FALSE(d.admit);
    ctl.stop();
}

TEST(TeControllerTest, SnapshotRoundTripPreservesDecisions)
{
    sim::Simulator sim;
    auto tc = baseTeConfig();
    te::TeController ctl(sim, tc, {{"t", 1.0}});
    ctl.start();
    ctl.recordUsage(0, u::gigabytes(100));
    sim.runUntil(tc.control_period + 1.0);
    ctl.stop();

    std::stringstream buf;
    {
        sim::SnapshotWriter w(buf);
        ctl.snapshot(w);
    }
    sim::Simulator sim2;
    te::TeController fresh(sim2, tc, {{"t", 1.0}});
    {
        sim::SnapshotReader r(buf);
        fresh.snapshot(r);
    }
    EXPECT_EQ(fresh.ticks(), ctl.ticks());
    EXPECT_DOUBLE_EQ(fresh.demand(0, te::Substrate::Dhl),
                     ctl.demand(0, te::Substrate::Dhl));
    EXPECT_DOUBLE_EQ(fresh.allocation(0, te::Substrate::Dhl),
                     ctl.allocation(0, te::Substrate::Dhl));
    EXPECT_EQ(fresh.contended(0), ctl.contended(0));
    EXPECT_EQ(fresh.downgradeOk(), ctl.downgradeOk());

    // A restore needs the pending tick stopped first.
    sim::Simulator sim3;
    te::TeController running(sim3, tc, {{"t", 1.0}});
    running.start();
    std::istringstream again(buf.str());
    sim::SnapshotReader r(again);
    EXPECT_THROW(running.snapshot(r), FatalError);
}

//===========================================================================
// Serving-loop integration
//===========================================================================

namespace {

serve::ServeConfig
teServeConfig(te::TeMode mode)
{
    serve::ServeConfig cfg;
    cfg.dhl = core::defaultConfig();
    cfg.tracks = 2;
    cfg.seed = 11;
    cfg.epoch = 300.0;
    cfg.carts_per_track = 2;
    cfg.max_pending = 64;
    cfg.policy = ops::DispatchPolicy::LeastQueued;
    workloads::RequestClass small{"small", 2.0, u::gigabytes(2), 0.0, 1};
    workloads::RequestClass big{"big", 1.0, u::gigabytes(96), 0.0, 0};
    cfg.stages = {
        workloads::StageSpec{"ramp", 600.0, 0.0, 0.2, {small, big}},
        workloads::StageSpec{"hold", 600.0, 0.2, 0.2, {small, big}},
        workloads::StageSpec{"drain", 600.0, 0.2, 0.0, {small, big}},
    };
    cfg.te.enabled = true;
    cfg.te.mode = mode;
    cfg.te.control_period = 30.0;
    cfg.te.small_bytes = u::gigabytes(8.0);
    cfg.te.optical_capacity = u::gigabitsPerSecond(100.0);
    cfg.te.history = 4;
    cfg.te.min_priority_contended = 1;
    return cfg;
}

std::string
teDigest(serve::ServingSim &sim)
{
    std::ostringstream os;
    for (const exp::StageSlo &stage : sim.sloTable())
        for (const std::string &c : exp::sloRow(stage))
            os << c << "|";
    for (const exp::ClassSlo &c : sim.teTable())
        for (const std::string &cell : exp::classSloRow(c))
            os << cell << "|";
    os << sim.totalServed() << "|" << sim.totalShed() << "|"
       << sim.opticalServed() << "|" << sim.teDowngrades() << "|"
       << sim.totalEnergy() << "|" << sim.now();
    return os.str();
}

} // namespace

TEST(TeServingTest, HybridServesSmallOpticallyAndConserves)
{
    serve::ServingSim sim(teServeConfig(te::TeMode::Hybrid));
    sim.run();

    EXPECT_GT(sim.opticalServed(), 0u);
    EXPECT_GT(sim.opticalEnergy(), 0.0);

    std::uint64_t offered = 0, served = 0, shed = 0;
    std::uint64_t optical_served = 0;
    for (const exp::ClassSlo &row : sim.teTable()) {
        offered += row.offered;
        served += row.served;
        shed += row.shed;
        if (row.substrate == std::string("optical"))
            optical_served += row.served;
        // The drained loop leaves nothing in flight per class.
        EXPECT_EQ(row.offered, row.served + row.shed);
    }
    EXPECT_EQ(served, sim.totalServed());
    EXPECT_EQ(shed, sim.totalShed());
    EXPECT_EQ(optical_served, sim.opticalServed());
    EXPECT_GT(offered, 0u);
    // Small requests (2 GB <= 8 GB) always ride optical in hybrid.
    for (const exp::ClassSlo &row : sim.teTable()) {
        if (row.name == "small" && row.substrate == std::string("dhl")) {
            EXPECT_EQ(row.offered, 0u);
        }
    }
}

TEST(TeServingTest, DisabledTeMatchesBaseline)
{
    // A TE-disabled config must not change the non-TE outcome: the te
    // member defaults to disabled, so this is the plain serving loop.
    serve::ServeConfig cfg = teServeConfig(te::TeMode::Hybrid);
    cfg.te = te::TeConfig{};
    serve::ServingSim sim(cfg);
    sim.run();
    EXPECT_EQ(sim.teEnabled(), false);
    EXPECT_EQ(sim.opticalServed(), 0u);
    EXPECT_DOUBLE_EQ(sim.opticalEnergy(), 0.0);
}

TEST(TeServingTest, DeterministicAcrossInstances)
{
    serve::ServingSim a(teServeConfig(te::TeMode::Hybrid));
    serve::ServingSim b(teServeConfig(te::TeMode::Hybrid));
    a.run();
    b.run();
    EXPECT_EQ(teDigest(a), teDigest(b));
}

TEST(TeServingTest, CheckpointOracleWithTeEnabled)
{
    const auto cfg = teServeConfig(te::TeMode::Hybrid);

    serve::ServingSim oracle(cfg);
    oracle.run();
    const std::string want = teDigest(oracle);

    auto hopper = std::make_unique<serve::ServingSim>(cfg);
    while (hopper->stepEpoch()) {
        std::stringstream ck;
        hopper->checkpoint(ck);
        auto fresh = std::make_unique<serve::ServingSim>(cfg);
        fresh->restore(ck);
        hopper = std::move(fresh);
    }
    EXPECT_EQ(teDigest(*hopper), want);
}
