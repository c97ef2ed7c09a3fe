/**
 * @file
 * Unit tests for the fleet-operations subsystem (src/ops): maintenance
 * windows, correlated plant failures, wear coupling, and policy-driven
 * dispatch — including the byte-identical round-robin contract between
 * FleetOps and DhlFleet::runBulkTransfer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "dhl/fleet.hpp"
#include "faults/fault_state.hpp"
#include "ops/correlated.hpp"
#include "ops/dispatcher.hpp"
#include "ops/fleet_ops.hpp"
#include "ops/maintenance.hpp"
#include "ops/wear.hpp"
#include "sim/simulator.hpp"

using namespace dhl;
using namespace dhl::ops;
namespace core = dhl::core;
namespace faults = dhl::faults;

namespace {

/** A fault config whose injector never fires outages (tiny horizon),
 *  so the ops processes own the whole downtime story. */
faults::FaultConfig
quietFaults(double cart_repair_per_trip = 0.0)
{
    faults::FaultConfig fc;
    fc.enabled = true;
    fc.horizon = 1e-9;
    fc.cart_repair_per_trip = cart_repair_per_trip;
    fc.cart_repair_hours = 0.001;
    return fc;
}

/** Compare every BulkRunResult field bit-for-bit. */
void
expectIdentical(const core::BulkRunResult &a, const core::BulkRunResult &b)
{
    EXPECT_EQ(a.total_time, b.total_time);
    EXPECT_EQ(a.total_energy, b.total_energy);
    EXPECT_EQ(a.launches, b.launches);
    EXPECT_EQ(a.carts, b.carts);
    EXPECT_EQ(a.ssd_failures, b.ssd_failures);
    EXPECT_EQ(a.avg_power, b.avg_power);
    EXPECT_EQ(a.effective_bandwidth, b.effective_bandwidth);
    EXPECT_EQ(a.bytes_read, b.bytes_read);
}

} // namespace

//===========================================================================
// MaintenanceScheduler
//===========================================================================

TEST(MaintenanceTest, ValidationRejectsNonsense)
{
    MaintenanceConfig bad;
    bad.windows.push_back({-1.0, 10.0, 0.0, -1});
    EXPECT_THROW(validate(bad, 2), FatalError);
    bad.windows[0] = {0.0, 0.0, 0.0, -1}; // zero duration
    EXPECT_THROW(validate(bad, 2), FatalError);
    bad.windows[0] = {0.0, 10.0, 5.0, -1}; // period <= duration
    EXPECT_THROW(validate(bad, 2), FatalError);
    bad.windows[0] = {0.0, 10.0, 0.0, 2}; // unknown track
    EXPECT_THROW(validate(bad, 2), FatalError);
    MaintenanceConfig ok;
    ok.windows.push_back({0.0, 10.0, 20.0, 1});
    EXPECT_NO_THROW(validate(ok, 2));
}

TEST(MaintenanceTest, WindowsDriveTheLaunchGates)
{
    sim::Simulator sim;
    faults::FaultState s0(sim);
    faults::FaultState s1(sim);

    MaintenanceConfig mc;
    mc.windows.push_back({10.0, 5.0, 0.0, 1});   // one-shot, track 1
    mc.windows.push_back({20.0, 2.0, 10.0, -1}); // periodic, fleet-wide
    mc.horizon = 45.0;
    MaintenanceScheduler sched(sim, {&s0, &s1}, mc);

    struct Probe
    {
        bool t0_ok, t1_ok, w0_open;
    };
    std::vector<std::pair<double, Probe>> probes;
    for (double t : {12.0, 16.0, 21.0, 23.0}) {
        sim.schedule(t, [&, t] {
            probes.push_back(
                {t, {s0.launchOk(), s1.launchOk(), sched.windowOpen(0)}});
        });
    }
    sim.run();

    ASSERT_EQ(probes.size(), 4u);
    // t=12: only the track-1 window is open.
    EXPECT_TRUE(probes[0].second.t0_ok);
    EXPECT_FALSE(probes[0].second.t1_ok);
    EXPECT_TRUE(probes[0].second.w0_open);
    // t=16: everything released again.
    EXPECT_TRUE(probes[1].second.t0_ok);
    EXPECT_TRUE(probes[1].second.t1_ok);
    EXPECT_FALSE(probes[1].second.w0_open);
    // t=21: the fleet-wide window blocks both tracks.
    EXPECT_FALSE(probes[2].second.t0_ok);
    EXPECT_FALSE(probes[2].second.t1_ok);
    // t=23: released.
    EXPECT_TRUE(probes[3].second.t0_ok);
    EXPECT_TRUE(probes[3].second.t1_ok);

    // One-shot once + periodic at 20, 30, 40 (start 50 >= horizon 45).
    EXPECT_EQ(sched.windowsStarted(), 4u);
    EXPECT_EQ(sched.windowsCompleted(), 4u);
    EXPECT_EQ(s0.launchInhibits(), 0u);
    EXPECT_EQ(s1.launchInhibits(), 0u);
}

//===========================================================================
// CorrelatedFaultModel
//===========================================================================

TEST(CorrelatedTest, DomainGroupingTakesTheRemainder)
{
    sim::Simulator sim;
    faults::FaultState a(sim), b(sim), c(sim), d(sim), e(sim);
    SharedDomainConfig cfg;
    cfg.enabled = true;
    cfg.domain_size = 2;
    cfg.horizon = 1e-9; // grouping only; no outages
    CorrelatedFaultModel model(sim, {&a, &b, &c, &d, &e}, cfg);
    EXPECT_EQ(model.domains(), 3u) << "5 tracks / 2 per plant";
    EXPECT_EQ(model.domainOf(0), 0u);
    EXPECT_EQ(model.domainOf(1), 0u);
    EXPECT_EQ(model.domainOf(4), 2u) << "last domain takes the remainder";
    EXPECT_THROW(model.domainOf(5), FatalError);
    EXPECT_FALSE(model.plantDown(0));
}

TEST(CorrelatedTest, OutagesTakeWholeDomainsDownDeterministically)
{
    auto run = [](std::uint64_t seed) {
        sim::Simulator sim;
        faults::FaultState s0(sim), s1(sim), s2(sim);
        SharedDomainConfig cfg;
        cfg.enabled = true;
        cfg.domain_size = 2;
        cfg.plant_mtbf = 0.05; // 180 s mean uptime
        cfg.plant_mttr = 0.01;
        cfg.seed = seed;
        cfg.horizon = 3600.0;
        CorrelatedFaultModel model(sim, {&s0, &s1, &s2}, cfg);

        // While plant 0 is down, BOTH its member tracks are inhibited
        // (the model pushes inhibits in member order, so by the time
        // s1's listener fires, s0 is already down) and the odd track
        // out (its own domain) is untouched unless its plant tripped.
        bool correlated_seen = false;
        s1.onOutage([&] {
            if (model.plantDown(0)) {
                correlated_seen = true;
                EXPECT_FALSE(s0.launchOk());
                EXPECT_FALSE(s1.launchOk());
            }
        });
        sim.run();
        EXPECT_GT(model.outages(), 0u);
        EXPECT_TRUE(correlated_seen);
        return model.outages();
    };
    EXPECT_EQ(run(7), run(7)) << "same seed, same outage count";
}

//===========================================================================
// WearCoupling
//===========================================================================

TEST(WearTest, ValidationAndWearReadout)
{
    WearCouplingConfig bad;
    bad.breakdown_gain = -1.0;
    EXPECT_THROW(validate(bad), FatalError);

    // A fresh library has zero wear everywhere.
    sim::Simulator sim;
    core::DhlController ctl(sim, core::defaultConfig());
    ctl.addCart(0.0);
    EXPECT_DOUBLE_EQ(cartWear(ctl.library(), 0), 0.0);
    EXPECT_DOUBLE_EQ(libraryWear(ctl.library()), 0.0);
}

TEST(WearTest, BreakdownGainCouplesRepairRateToWear)
{
    // Same seed, same trips; the only difference is the wear gain.  A
    // huge gain drives the per-trip probability to 1 as soon as the
    // connectors accumulate any wear, so breakdowns must strictly
    // exceed the uncoupled run's.
    const core::DhlConfig cfg = core::defaultConfig();
    auto breakdowns = [&](double gain) {
        OpsConfig oc;
        oc.faults = quietFaults(0.01);
        oc.wear.breakdown_gain = gain;
        FleetOps fo(cfg, 1, oc);
        fo.runBulkTransfer(8.0 * cfg.cartCapacity().value());
        return fo.fleet().track(0).cartBreakdowns();
    };
    const auto uncoupled = breakdowns(0.0);
    const auto coupled = breakdowns(1e9);
    EXPECT_GT(coupled, uncoupled);
    EXPECT_EQ(breakdowns(1e9), coupled) << "coupling replays exactly";
}

TEST(WearTest, CouplingRequiresFaultInjection)
{
    OpsConfig oc;
    oc.wear.breakdown_gain = 1.0; // but oc.faults.enabled == false
    EXPECT_THROW(validate(oc, 1), FatalError);
}

//===========================================================================
// FleetOps dispatch
//===========================================================================

TEST(DispatcherTest, PolicyNamesRoundTrip)
{
    for (auto p : {DispatchPolicy::RoundRobin, DispatchPolicy::LeastQueued,
                   DispatchPolicy::AvailabilityAware})
        EXPECT_EQ(parseDispatchPolicy(to_string(p)), p);
    EXPECT_THROW(parseDispatchPolicy("random"), FatalError);
    EXPECT_THROW(parseDispatchPolicy("te"), FatalError);
    DispatchConfig bad;
    bad.overcommit = 0;
    EXPECT_THROW(validate(bad), FatalError);
}

TEST(DispatcherTest, RoundRobinIsByteIdenticalToTheFleet)
{
    const core::DhlConfig cfg = core::defaultConfig();
    const double dataset = 11.0 * cfg.cartCapacity().value();
    core::BulkRunOptions opts;
    opts.include_read_time = true;

    core::DhlFleet plain(cfg, 3);
    const auto expected = plain.runBulkTransfer(dataset, opts);

    OpsConfig oc; // everything off, RoundRobin policy
    FleetOps fo(cfg, 3, oc);
    const auto r = fo.runBulkTransfer(dataset, opts);
    expectIdentical(r.base, expected);
    EXPECT_EQ(r.reroutes, 0u);
    EXPECT_EQ(r.maintenance_windows, 0u);
    EXPECT_EQ(r.plant_outages, 0u);
    EXPECT_DOUBLE_EQ(r.fleet_availability, 1.0);
    EXPECT_EQ(fo.maintenance(), nullptr);
    EXPECT_EQ(fo.correlated(), nullptr);
}

TEST(DispatcherTest, RoundRobinIsByteIdenticalUnderFaults)
{
    // The strong form of the contract: with per-track fault injection
    // running (outages, parked trips, breakdowns), the ops path must
    // still replay DhlFleet::runBulkTransfer event for event.
    const core::DhlConfig cfg = core::defaultConfig();
    const double dataset = 12.0 * cfg.cartCapacity().value();
    faults::FaultConfig fc;
    fc.enabled = true;
    fc.lim_mtbf = 0.05;
    fc.lim_mttr = 0.01;
    fc.track_mtbf = 0.1;
    fc.track_mttr = 0.012;
    fc.station_mtbf = 0.03;
    fc.station_mttr = 0.008;
    fc.cart_repair_per_trip = 0.05;
    fc.cart_repair_hours = 0.002;
    fc.seed = 21;

    core::DhlFleet plain(cfg, 2);
    plain.enableFaults(fc);
    const auto expected = plain.runBulkTransfer(dataset);

    OpsConfig oc;
    oc.faults = fc;
    FleetOps fo(cfg, 2, oc);
    const auto r = fo.runBulkTransfer(dataset);
    expectIdentical(r.base, expected);
    EXPECT_LT(r.fleet_availability, 1.0) << "outages were observed";
}

TEST(DispatcherTest, LeastQueuedMatchesRoundRobinOnAHealthyFleet)
{
    // Homogeneous tracks, no faults: pulling from one queue lands on
    // the same ceil(n/k) split as the static assignment.
    const core::DhlConfig cfg = core::defaultConfig();
    const double dataset = 10.0 * cfg.cartCapacity().value();

    OpsConfig rr;
    FleetOps fleet_rr(cfg, 3, rr);
    const auto r_rr = fleet_rr.runBulkTransfer(dataset);

    OpsConfig lq;
    lq.dispatch.policy = DispatchPolicy::LeastQueued;
    FleetOps fleet_lq(cfg, 3, lq);
    const auto r_lq = fleet_lq.runBulkTransfer(dataset);

    EXPECT_EQ(r_lq.base.carts, r_rr.base.carts);
    EXPECT_EQ(r_lq.base.launches, r_rr.base.launches);
    EXPECT_NEAR(r_lq.base.total_time, r_rr.base.total_time, 1e-9);
}

TEST(DispatcherTest, AvailabilityAwareReroutesOffABlockedTrack)
{
    // Track 1 enters a long maintenance window mid-run.  Under
    // round-robin its pre-assigned share queues behind the window;
    // availability-aware drains the queued open, re-routes the jobs,
    // and only the single in-flight trip rides out the downtime — so
    // it must finish sooner with a lower open-latency tail.
    const core::DhlConfig cfg = core::defaultConfig(); // one station
    const double dataset = 12.0 * cfg.cartCapacity().value();
    const MaintenanceWindow window{10.0, 4000.0, 0.0, 1};

    auto run = [&](DispatchPolicy policy) {
        OpsConfig oc;
        oc.dispatch.policy = policy;
        oc.maintenance.windows.push_back(window);
        FleetOps fo(cfg, 2, oc);
        return fo.runBulkTransfer(dataset);
    };
    const auto rr = run(DispatchPolicy::RoundRobin);
    const auto aa = run(DispatchPolicy::AvailabilityAware);

    EXPECT_EQ(aa.base.carts, 12u);
    EXPECT_GE(aa.reroutes, 1u) << "the drained open was re-routed";
    EXPECT_GE(aa.drains, 1u);
    EXPECT_EQ(aa.maintenance_windows, 1u);
    EXPECT_EQ(rr.reroutes, 0u) << "round-robin never re-routes";
    EXPECT_LT(aa.base.total_time, rr.base.total_time);
    EXPECT_LT(aa.fleet_availability, 1.0);
}

TEST(DispatcherTest, AdmissionControlDefersLowPriorityWhileDegraded)
{
    const core::DhlConfig cfg = core::defaultConfig();
    const double dataset = 8.0 * cfg.cartCapacity().value();

    OpsConfig oc;
    oc.dispatch.policy = DispatchPolicy::AvailabilityAware;
    oc.dispatch.min_priority_degraded = 1;
    oc.maintenance.windows.push_back({5.0, 100.0, 0.0, 1});
    FleetOps fo(cfg, 2, oc);

    std::vector<RequestMeta> meta(8);
    for (std::size_t j = 0; j < meta.size(); ++j)
        meta[j].priority = static_cast<int>(j % 2);
    const auto r = fo.runBulkTransfer(dataset, {}, meta);

    EXPECT_EQ(r.base.carts, 8u) << "deferred jobs still complete";
    EXPECT_GT(r.deferrals, 0u)
        << "priority-0 jobs were deferred while degraded";
}

TEST(DispatcherTest, FullStackReplaysExactly)
{
    // Everything on at once: independent faults, correlated plants, a
    // periodic window, wear coupling, availability-aware dispatch.
    // Two identical builds must produce bit-identical results.
    const core::DhlConfig cfg = core::defaultConfig();
    const double dataset = 10.0 * cfg.cartCapacity().value();
    auto run = [&] {
        OpsConfig oc;
        oc.dispatch.policy = DispatchPolicy::AvailabilityAware;
        oc.maintenance.windows.push_back({20.0, 10.0, 60.0, -1});
        oc.domains.enabled = true;
        oc.domains.domain_size = 2;
        oc.domains.plant_mtbf = 0.02;
        oc.domains.plant_mttr = 0.005;
        oc.domains.seed = 5;
        oc.faults = quietFaults(0.02);
        oc.wear.breakdown_gain = 10.0;
        oc.wear.station_gain = 10.0;
        FleetOps fo(cfg, 4, oc);
        return fo.runBulkTransfer(dataset);
    };
    const auto a = run();
    const auto b = run();
    expectIdentical(a.base, b.base);
    EXPECT_EQ(a.reroutes, b.reroutes);
    EXPECT_EQ(a.drains, b.drains);
    EXPECT_EQ(a.deferrals, b.deferrals);
    EXPECT_EQ(a.maintenance_windows, b.maintenance_windows);
    EXPECT_EQ(a.plant_outages, b.plant_outages);
    EXPECT_EQ(a.open_latency_mean, b.open_latency_mean);
    EXPECT_EQ(a.open_latency_p99, b.open_latency_p99);
    EXPECT_EQ(a.fleet_availability, b.fleet_availability);
}

TEST(DispatcherTest, FleetStopsAtTheLastReturn)
{
    // A maintenance window long after the transfer keeps the event
    // queue non-empty; the fleet must stop when its last cart returns
    // instead of running on to the window.
    const core::DhlConfig cfg = core::defaultConfig();
    const double dataset = 6.0 * cfg.cartCapacity().value();

    core::DhlFleet clean(cfg, 2);
    const auto expected = clean.runBulkTransfer(dataset);

    core::DhlFleet fleet(cfg, 2);
    fleet.ensureFaultStates();
    MaintenanceConfig mc;
    mc.windows.push_back({1e6, 10.0, 0.0, -1});
    MaintenanceScheduler sched(fleet.simulator(),
                               {fleet.faultState(0), fleet.faultState(1)},
                               mc);
    const auto r = fleet.runBulkTransfer(dataset);
    EXPECT_EQ(r.total_time, expected.total_time);
    EXPECT_GT(fleet.simulator().pendingEvents(), 0u)
        << "the window is still pending";
}

TEST(DispatcherTest, LeastQueuedSsdFailuresCountTheRun)
{
    // Two pull-engine runs on one FleetOps: each reports its own
    // failures, not the controllers' running totals.
    auto prev = Logger::global().setLevel(LogLevel::Silent);
    const core::DhlConfig cfg = core::defaultConfig();
    OpsConfig oc;
    oc.dispatch.policy = DispatchPolicy::LeastQueued;
    FleetOps fo(cfg, 2, oc, 7);
    core::BulkRunOptions opts;
    opts.failure_per_trip = 0.05;
    auto lifetime = [&fo] {
        std::uint64_t total = 0;
        for (std::size_t t = 0; t < fo.fleet().numTracks(); ++t)
            total += fo.fleet().track(t).ssdFailures();
        return total;
    };
    for (int run = 0; run < 2; ++run) {
        const std::uint64_t before = lifetime();
        const auto r =
            fo.runBulkTransfer(6.0 * cfg.cartCapacity().value(), opts);
        EXPECT_GT(r.base.ssd_failures, 0u) << "run " << run;
        EXPECT_EQ(r.base.ssd_failures, lifetime() - before)
            << "run " << run;
    }
    Logger::global().setLevel(prev);
}

TEST(DispatcherTest, FleetOpsRejectsPipelinedRuns)
{
    const core::DhlConfig cfg = core::defaultConfig();
    core::BulkRunOptions opts;
    opts.pipelined = true;
    for (auto p : {DispatchPolicy::RoundRobin, DispatchPolicy::LeastQueued}) {
        OpsConfig oc;
        oc.dispatch.policy = p;
        FleetOps fo(cfg, 2, oc);
        EXPECT_THROW(
            fo.runBulkTransfer(4.0 * cfg.cartCapacity().value(), opts),
            FatalError);
    }
}
