/**
 * @file
 * Unit tests for the fault subsystem: the FaultState registry, the
 * seeded FaultInjector, and the controller's degraded-mode behaviour.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "dhl/fleet.hpp"
#include "dhl/reliability.hpp"
#include "dhl/simulation.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_state.hpp"

using namespace dhl;
using namespace dhl::faults;
namespace core = dhl::core;

namespace {

/** A fault config whose injector never fires (tiny horizon), so tests
 *  can drive the registry by hand, deterministically. */
FaultConfig
manualConfig()
{
    FaultConfig fc;
    fc.enabled = true;
    fc.horizon = 1e-9;
    fc.cart_repair_per_trip = 0.0;
    return fc;
}

} // namespace

//===========================================================================
// FaultState
//===========================================================================

TEST(FaultStateTest, UnregisteredComponentsAreUp)
{
    sim::Simulator sim;
    FaultState state(sim);
    EXPECT_TRUE(state.up(Component::Lim, 0));
    EXPECT_TRUE(state.up(Component::Station, 7));
    EXPECT_TRUE(state.launchOk());
    EXPECT_TRUE(state.serviceUp());
    EXPECT_FALSE(state.cartInRepair(3));
    EXPECT_DOUBLE_EQ(state.observedAvailability(100.0), 1.0);
}

TEST(FaultStateTest, FailAndRepairTransitions)
{
    sim::Simulator sim;
    FaultState state(sim);
    state.addComponent(Component::Lim, 0);
    state.addComponent(Component::Lim, 1);
    state.addComponent(Component::Track, 0);

    EXPECT_TRUE(state.launchOk());
    state.fail(Component::Lim, 1);
    EXPECT_FALSE(state.up(Component::Lim, 1));
    EXPECT_TRUE(state.up(Component::Lim, 0));
    EXPECT_FALSE(state.launchOk());
    EXPECT_FALSE(state.serviceUp());
    EXPECT_EQ(state.failures(Component::Lim), 1u);

    state.repair(Component::Lim, 1);
    EXPECT_TRUE(state.launchOk());
    EXPECT_EQ(state.repairs(Component::Lim), 1u);

    // Double fail / repair of a healthy component are driver bugs.
    state.fail(Component::Track, 0);
    EXPECT_THROW(state.fail(Component::Track, 0), PanicError);
    state.repair(Component::Track, 0);
    EXPECT_THROW(state.repair(Component::Track, 0), PanicError);
}

TEST(FaultStateTest, StationRedundancy)
{
    sim::Simulator sim;
    FaultState state(sim);
    state.addComponent(Component::Station, 0);
    state.addComponent(Component::Station, 1);
    EXPECT_EQ(state.stationsUp(), 2u);

    state.fail(Component::Station, 0);
    EXPECT_TRUE(state.serviceUp()) << "one station left";
    state.fail(Component::Station, 1);
    EXPECT_FALSE(state.serviceUp()) << "no stations left";
    state.repair(Component::Station, 0);
    EXPECT_TRUE(state.serviceUp());
}

TEST(FaultStateTest, DowntimeIntegration)
{
    sim::Simulator sim;
    FaultState state(sim);
    state.addComponent(Component::Track, 0);

    // Down over [10, 30) and [50, 60): 30 s of downtime in [0, 100].
    sim.schedule(10.0, [&] { state.fail(Component::Track, 0); });
    sim.schedule(30.0, [&] { state.repair(Component::Track, 0); });
    sim.schedule(50.0, [&] { state.fail(Component::Track, 0); });
    sim.schedule(60.0, [&] { state.repair(Component::Track, 0); });
    sim.schedule(100.0, [] {});
    sim.run();

    EXPECT_DOUBLE_EQ(state.serviceDowntime(100.0), 30.0);
    EXPECT_DOUBLE_EQ(state.observedAvailability(100.0), 0.7);
    // Clipped integration.
    EXPECT_DOUBLE_EQ(state.serviceDowntime(20.0), 10.0);
    EXPECT_EQ(state.serviceTransitions(), 4u);
}

TEST(FaultStateTest, CartRepairShop)
{
    sim::Simulator sim;
    FaultState state(sim);
    EXPECT_FALSE(state.cartInRepair(5));

    state.sendCartToRepair(5, 120.0);
    EXPECT_TRUE(state.cartInRepair(5));
    EXPECT_FALSE(state.cartInRepair(6));
    EXPECT_DOUBLE_EQ(state.cartRepairEnd(5), 120.0);
    EXPECT_EQ(state.cartsInRepair(), 1u);
    EXPECT_EQ(state.cartRepairs(), 1u);
    EXPECT_FALSE(state.up(Component::Cart, 5));

    // A zero-turnaround repair is over the moment it starts.
    state.sendCartToRepair(6, 0.0);
    EXPECT_FALSE(state.cartInRepair(6));

    // Time passes; the repair completes.
    sim.schedule(121.0, [] {});
    sim.run();
    EXPECT_FALSE(state.cartInRepair(5));
    EXPECT_EQ(state.cartsInRepair(), 0u);
}

TEST(FaultStateTest, RepairListenersFire)
{
    sim::Simulator sim;
    FaultState state(sim);
    state.addComponent(Component::Lim, 0);
    int fired = 0;
    state.onRepair([&] { ++fired; });
    state.fail(Component::Lim, 0);
    EXPECT_EQ(fired, 0);
    state.repair(Component::Lim, 0);
    EXPECT_EQ(fired, 1);
}

TEST(FaultStateTest, BackoffPolicy)
{
    RetryPolicy p;
    p.initial_backoff = 2.0;
    p.multiplier = 3.0;
    p.max_backoff = 25.0;
    EXPECT_DOUBLE_EQ(nextBackoff(p, 0.0), 2.0);
    EXPECT_DOUBLE_EQ(nextBackoff(p, 2.0), 6.0);
    EXPECT_DOUBLE_EQ(nextBackoff(p, 6.0), 18.0);
    EXPECT_DOUBLE_EQ(nextBackoff(p, 18.0), 25.0) << "bounded";
    EXPECT_DOUBLE_EQ(nextBackoff(p, 25.0), 25.0);
}

TEST(FaultConfigTest, Equality)
{
    FaultConfig a, b;
    EXPECT_TRUE(a == b);
    b.seed = 2;
    EXPECT_FALSE(a == b);
    b = a;
    b.retry.max_backoff = 1234.0;
    EXPECT_FALSE(a == b);
}

//===========================================================================
// FaultInjector
//===========================================================================

TEST(FaultInjectorTest, Validation)
{
    FaultConfig ok;
    EXPECT_NO_THROW(validate(ok));

    // The edge cases the analytical ReliabilityConfig accepts must be
    // accepted here too (the two models share parameters).
    FaultConfig edge;
    edge.lim_mttr = 0.0;
    edge.track_mttr = 0.0;
    edge.station_mttr = 0.0;
    edge.cart_repair_per_trip = 0.0;
    edge.cart_repair_hours = 0.0;
    EXPECT_NO_THROW(validate(edge));

    FaultConfig bad;
    bad.lim_mtbf = 0.0;
    EXPECT_THROW(validate(bad), FatalError);
    bad = FaultConfig{};
    bad.station_mttr = -1.0;
    EXPECT_THROW(validate(bad), FatalError);
    bad = FaultConfig{};
    bad.cart_repair_per_trip = 1.5;
    EXPECT_THROW(validate(bad), FatalError);
    bad = FaultConfig{};
    bad.horizon = 0.0;
    EXPECT_THROW(validate(bad), FatalError);
    bad = FaultConfig{};
    bad.retry.multiplier = 0.5;
    EXPECT_THROW(validate(bad), FatalError);
    bad = FaultConfig{};
    bad.retry.max_backoff = 0.1; // below initial
    EXPECT_THROW(validate(bad), FatalError);
}

TEST(FaultInjectorTest, DisabledConfigIsInert)
{
    sim::Simulator sim;
    FaultState state(sim);
    FaultConfig fc; // enabled = false
    FaultInjector injector(sim, state, fc, 2);
    sim.run();
    EXPECT_EQ(injector.eventsInjected(), 0u);
    EXPECT_EQ(sim.eventsExecuted(), 0u);
    EXPECT_EQ(state.components(Component::Station), 0u);
    EXPECT_FALSE(state.rollCartBreakdown(0)) << "no roller installed";
    EXPECT_TRUE(state.serviceUp());
}

TEST(FaultInjectorTest, DeterministicTimeline)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.seed = 42;
    fc.lim_mtbf = 10.0;
    fc.lim_mttr = 1.0;
    fc.track_mtbf = 20.0;
    fc.track_mttr = 2.0;
    fc.station_mtbf = 5.0;
    fc.station_mttr = 0.5;
    fc.horizon = 5000.0 * 3600.0;

    auto run = [&](std::uint64_t seed) {
        FaultConfig cfg = fc;
        cfg.seed = seed;
        sim::Simulator sim;
        FaultState state(sim);
        FaultInjector injector(sim, state, cfg, 2);
        sim.run();
        return std::make_tuple(injector.eventsInjected(),
                               state.serviceTransitions(),
                               state.observedAvailability(cfg.horizon));
    };

    const auto a = run(42);
    const auto b = run(42);
    EXPECT_EQ(a, b) << "same seed, same timeline";
    EXPECT_GT(std::get<0>(a), 0u);

    const auto c = run(43);
    EXPECT_NE(std::get<2>(a), std::get<2>(c))
        << "different seeds decorrelate";
}

TEST(FaultInjectorTest, HorizonBoundsFailures)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.lim_mtbf = 0.01; // 36 s between failures
    fc.lim_mttr = 0.001;
    fc.track_mtbf = 0.01;
    fc.track_mttr = 0.001;
    fc.station_mtbf = 0.01;
    fc.station_mttr = 0.001;
    fc.horizon = 1000.0;

    sim::Simulator sim;
    FaultState state(sim);
    FaultInjector injector(sim, state, fc, 1);
    const double end = sim.run();

    // The queue drained: no failure at/after the horizon, and every
    // failure got its repair (everything healthy at the end).
    EXPECT_LT(end, fc.horizon + fc.lim_mttr * 3600.0 + 1.0);
    EXPECT_TRUE(state.serviceUp());
    EXPECT_EQ(state.failures(Component::Lim),
              state.repairs(Component::Lim));
    EXPECT_EQ(state.failures(Component::Track),
              state.repairs(Component::Track));
    EXPECT_EQ(state.failures(Component::Station),
              state.repairs(Component::Station));
    EXPECT_GT(injector.eventsInjected(), 0u);
}

TEST(FaultInjectorTest, ZeroMttrMeansZeroDowntime)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.lim_mtbf = 0.01;
    fc.lim_mttr = 0.0;
    fc.track_mtbf = 0.01;
    fc.track_mttr = 0.0;
    fc.station_mtbf = 0.01;
    fc.station_mttr = 0.0;
    fc.horizon = 1000.0;

    sim::Simulator sim;
    FaultState state(sim);
    FaultInjector injector(sim, state, fc, 1);
    sim.run();

    EXPECT_GT(state.failures(Component::Lim), 0u);
    EXPECT_DOUBLE_EQ(state.serviceDowntime(fc.horizon), 0.0);
    EXPECT_DOUBLE_EQ(state.observedAvailability(fc.horizon), 1.0);
}

TEST(FaultInjectorTest, CartBreakdownDice)
{
    sim::Simulator sim;
    FaultState state(sim);
    FaultConfig fc = manualConfig();
    fc.cart_repair_per_trip = 1.0; // every trip breaks the cart
    fc.cart_repair_hours = 0.5;
    FaultInjector injector(sim, state, fc, 1);

    EXPECT_TRUE(state.rollCartBreakdown(3));
    EXPECT_TRUE(state.cartInRepair(3));
    EXPECT_DOUBLE_EQ(state.cartRepairEnd(3), 0.5 * 3600.0);
    EXPECT_FALSE(state.cartInRepair(4));

    // Zero probability must not even touch the stream.
    sim::Simulator sim2;
    FaultState state2(sim2);
    FaultConfig zero = manualConfig();
    FaultInjector injector2(sim2, state2, zero, 1);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(state2.rollCartBreakdown(0));
    EXPECT_EQ(state2.cartRepairs(), 0u);
}

TEST(FaultInjectorTest, CartRollsFollowOneStreamPerCart)
{
    // Each cart's rolls are consecutive uniform() draws of one
    // Rng(deriveSeed(base, cart)), base = deriveSeed(seed, "CARTS"),
    // however the carts' rolls interleave.
    sim::Simulator sim;
    FaultState state(sim);
    FaultConfig fc = manualConfig();
    fc.seed = 9;
    fc.cart_repair_per_trip = 0.4;
    fc.cart_repair_hours = 0.0; // a broken cart is back at once
    FaultInjector injector(sim, state, fc, 1);

    const std::uint64_t base = deriveSeed(fc.seed, 0x4341525453ull);
    Rng cart3(deriveSeed(base, 3));
    Rng cart7(deriveSeed(base, 7));
    std::uint64_t broken = 0;
    for (int i = 0; i < 300; ++i) {
        const bool want7 = cart7.uniform() < fc.cart_repair_per_trip;
        EXPECT_EQ(state.rollCartBreakdown(7), want7) << "roll " << i;
        broken += want7 ? 1 : 0;
        if (i % 3 == 0) {
            const bool want3 = cart3.uniform() < fc.cart_repair_per_trip;
            EXPECT_EQ(state.rollCartBreakdown(3), want3) << "roll " << i;
            broken += want3 ? 1 : 0;
        }
    }
    EXPECT_EQ(state.cartRepairs(), broken);
    EXPECT_GT(broken, 0u);
}

TEST(FaultInjectorTest, AgreesWithAnalyticalBridge)
{
    core::ReliabilityConfig rel;
    rel.lim_mtbf = 123.0;
    rel.lim_mttr = 4.5;
    rel.track_mtbf = 678.0;
    rel.track_mttr = 9.0;
    rel.station_mtbf = 55.0;
    rel.station_mttr = 0.0;
    rel.cart_repair_per_trip = 0.25;
    rel.cart_repair_hours = 1.5;

    const FaultConfig fc = core::toFaultConfig(rel, 7, 1000.0);
    EXPECT_TRUE(fc.enabled);
    EXPECT_EQ(fc.seed, 7u);
    EXPECT_DOUBLE_EQ(fc.horizon, 1000.0);
    EXPECT_DOUBLE_EQ(fc.lim_mtbf, rel.lim_mtbf);
    EXPECT_DOUBLE_EQ(fc.lim_mttr, rel.lim_mttr);
    EXPECT_DOUBLE_EQ(fc.track_mtbf, rel.track_mtbf);
    EXPECT_DOUBLE_EQ(fc.track_mttr, rel.track_mttr);
    EXPECT_DOUBLE_EQ(fc.station_mtbf, rel.station_mtbf);
    EXPECT_DOUBLE_EQ(fc.station_mttr, rel.station_mttr);
    EXPECT_DOUBLE_EQ(fc.cart_repair_per_trip, rel.cart_repair_per_trip);
    EXPECT_DOUBLE_EQ(fc.cart_repair_hours, rel.cart_repair_hours);
}

//===========================================================================
// Controller degraded-mode behaviour
//===========================================================================

TEST(ControllerFaultsTest, OpenReroutesAroundFailedStation)
{
    core::DhlConfig cfg = core::defaultConfig();
    cfg.docking_stations = 2;
    core::DhlSimulation des(cfg);
    des.enableFaults(manualConfig());
    des.controller().addCart(0.0);

    des.faultState()->fail(Component::Station, 0);
    core::DockingStation *docked_at = nullptr;
    des.controller().open(
        0, [&](core::Cart &, core::DockingStation &st) {
            docked_at = &st;
        });
    des.simulator().run();
    ASSERT_NE(docked_at, nullptr);
    EXPECT_EQ(docked_at, &des.controller().station(1))
        << "the open re-routed to the surviving station";
}

TEST(ControllerFaultsTest, OpensQueueUntilStationRepair)
{
    core::DhlConfig cfg = core::defaultConfig(); // one station
    core::DhlSimulation des(cfg);
    des.enableFaults(manualConfig());
    des.controller().addCart(0.0);

    des.faultState()->fail(Component::Station, 0);
    double opened_at = -1.0;
    des.controller().open(0, [&](core::Cart &, core::DockingStation &) {
        opened_at = des.simulator().now();
    });
    des.simulator().step(100);
    EXPECT_LT(opened_at, 0.0) << "no station: the open must wait";
    EXPECT_EQ(des.controller().queuedOpens(), 1u);

    des.simulator().schedule(500.0, [&] {
        des.faultState()->repair(Component::Station, 0);
    });
    des.simulator().run();
    EXPECT_GE(opened_at, 500.0)
        << "the open dispatched after the repair";
}

TEST(ControllerFaultsTest, LimOutageParksTripWithBoundedBackoff)
{
    core::DhlConfig cfg = core::defaultConfig();
    core::DhlSimulation des(cfg);
    des.enableFaults(manualConfig());
    des.controller().addCart(0.0);

    // Fail a LIM while the cart is undocking (after admission, before
    // launch), so the trip parks instead of queueing.
    des.simulator().schedule(1.0, [&] {
        des.faultState()->fail(Component::Lim, 0);
    });
    des.simulator().schedule(200.0, [&] {
        des.faultState()->repair(Component::Lim, 0);
    });
    double opened_at = -1.0;
    des.controller().open(0, [&](core::Cart &, core::DockingStation &) {
        opened_at = des.simulator().now();
    });
    des.simulator().run();

    EXPECT_GE(opened_at, 200.0);
    EXPECT_GT(des.controller().parkedLaunches(), 0u)
        << "the trip parked and retried";
}

TEST(ControllerFaultsTest, DockedCartServedAtFailedStation)
{
    core::DhlConfig cfg = core::defaultConfig();
    core::DhlSimulation des(cfg);
    des.enableFaults(manualConfig());
    auto &cart = des.controller().addCart(1e9);
    const core::CartId id = cart.id();

    bool closed = false;
    des.controller().open(
        id, [&](core::Cart &, core::DockingStation &) {
            // The station fails with the cart docked: reads and the
            // close must still be served; only new reservations stop.
            des.faultState()->fail(Component::Station, 0);
            des.controller().read(id, 1e9, [&](double) {
                des.controller().close(id,
                                       [&](core::Cart &) {
                                           closed = true;
                                       });
            });
        });
    des.simulator().run();
    EXPECT_TRUE(closed);
    EXPECT_EQ(des.faultState()->stationsUp(), 0u);
}

TEST(ControllerFaultsTest, BreakdownHoldsNextOpenUntilRepair)
{
    core::DhlConfig cfg = core::defaultConfig();
    core::DhlSimulation des(cfg);
    FaultConfig fc = manualConfig();
    fc.cart_repair_per_trip = 1.0; // break down on every return
    fc.cart_repair_hours = 0.1;    // 360 s turnaround
    des.enableFaults(fc);
    auto &cart = des.controller().addCart(0.0);
    const core::CartId id = cart.id();

    double reopened_at = -1.0;
    des.controller().open(id, [&](core::Cart &, core::DockingStation &) {
        des.controller().close(id, [&](core::Cart &c) {
            EXPECT_EQ(c.breakdowns(), 1u);
            EXPECT_TRUE(des.faultState()->cartInRepair(id));
            // Re-open while the cart is in the shop: held.
            des.controller().open(
                id, [&](core::Cart &, core::DockingStation &) {
                    reopened_at = des.simulator().now();
                    des.controller().close(id, [](core::Cart &c2) {
                        EXPECT_EQ(c2.breakdowns(), 2u);
                    });
                });
        });
    });
    des.simulator().run();

    EXPECT_EQ(des.controller().cartBreakdowns(), 2u)
        << "both round trips rolled a breakdown";
    EXPECT_EQ(des.controller().heldOpens(), 1u);
    EXPECT_GE(reopened_at, 360.0)
        << "the held open waited for the repair turnaround";
}

TEST(ControllerFaultsTest, QueuedOpensDockInArrivalOrderAfterRepair)
{
    // Four opens queue behind a failed station; the repair re-dispatch
    // docks them in the order they arrived (not cart-id order).
    core::DhlConfig cfg = core::defaultConfig(); // one station
    core::DhlSimulation des(cfg);
    des.enableFaults(manualConfig());
    for (int i = 0; i < 4; ++i)
        des.controller().addCart(0.0);

    des.faultState()->fail(Component::Station, 0);
    std::vector<core::CartId> dock_order;
    auto record = [&](core::Cart &c, core::DockingStation &) {
        dock_order.push_back(c.id());
        des.controller().close(c.id(), nullptr);
    };
    const std::vector<core::CartId> arrivals = {2, 0, 3, 1};
    for (const core::CartId id : arrivals)
        des.controller().open(id, record);
    EXPECT_EQ(des.controller().queuedOpens(), 4u);
    des.simulator().schedule(500.0, [&] {
        des.faultState()->repair(Component::Station, 0);
    });
    des.simulator().run();

    EXPECT_EQ(dock_order, arrivals);
    EXPECT_EQ(des.controller().queuedOpens(), 0u);
}

TEST(ControllerFaultsTest, FaultEventsFlowThroughTrace)
{
    core::DhlConfig cfg = core::defaultConfig();
    core::DhlSimulation des(cfg);
    des.enableFaults(manualConfig());
    des.trace().enable();
    des.controller().addCart(0.0);

    des.simulator().schedule(1.0, [&] {
        des.faultState()->fail(Component::Lim, 0);
    });
    des.simulator().schedule(100.0, [&] {
        des.faultState()->repair(Component::Lim, 0);
    });
    bool opened = false;
    des.controller().open(0, [&](core::Cart &, core::DockingStation &) {
        opened = true;
    });
    des.simulator().run();
    ASSERT_TRUE(opened);

    const auto faults = des.trace().filter("fault");
    ASSERT_GE(faults.size(), 3u)
        << "expected fail, park(s), and repair records";
    EXPECT_EQ(faults.front().object, "lim0");
}

TEST(ControllerFaultsTest, ReserveLaunchWhileDownPanics)
{
    core::DhlConfig cfg = core::defaultConfig();
    core::DhlSimulation des(cfg);
    des.enableFaults(manualConfig());
    des.faultState()->fail(Component::Track, 0);
    EXPECT_THROW(des.controller().track().reserveLaunch(
                     core::Direction::Outbound),
                 PanicError)
        << "components refuse service while down";
}

TEST(FleetFaultsTest, TracksFailIndependently)
{
    core::DhlConfig cfg = core::defaultConfig();
    core::DhlFleet fleet(cfg, 2);
    fleet.enableFaults(manualConfig());

    fleet.faultState(0)->fail(Component::Lim, 0);
    EXPECT_FALSE(fleet.faultState(0)->launchOk());
    EXPECT_TRUE(fleet.faultState(1)->launchOk())
        << "each track has its own registry";
    fleet.faultState(0)->repair(Component::Lim, 0);

    // A faulted fleet transfer completes and derates, deterministically.
    core::ReliabilityConfig rel;
    rel.lim_mtbf = 0.05;
    rel.lim_mttr = 0.01;
    rel.track_mtbf = 0.1;
    rel.track_mttr = 0.012;
    rel.station_mtbf = 0.03;
    rel.station_mttr = 0.008;
    rel.cart_repair_per_trip = 0.0;
    auto run = [&] {
        core::DhlFleet f(cfg, 2);
        f.enableFaults(core::toFaultConfig(rel, 21));
        return f.runBulkTransfer(12.0 * cfg.cartCapacity().value())
            .total_time;
    };
    const double a = run();
    EXPECT_EQ(a, run()) << "fleet fault runs replay exactly";
}

TEST(SimulationFaultsTest, EnableFaultsIsIdempotentForSameConfig)
{
    core::DhlSimulation des(core::defaultConfig());
    const FaultConfig fc = manualConfig();
    des.enableFaults(fc);
    EXPECT_NO_THROW(des.enableFaults(fc));
    FaultConfig other = fc;
    other.seed = 99;
    EXPECT_THROW(des.enableFaults(other), FatalError);
    FaultConfig off;
    EXPECT_THROW(des.enableFaults(off), FatalError);
}
