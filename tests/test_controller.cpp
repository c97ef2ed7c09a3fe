/**
 * @file
 * Unit tests for the DHL controller's Open/Close/Read/Write API.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hpp"
#include "common/units.hpp"
#include "dhl/controller.hpp"
#include "faults/fault_state.hpp"

using namespace dhl::core;
using dhl::sim::Simulator;
namespace u = dhl::units;

namespace {

struct Rig
{
    explicit Rig(DhlConfig c = defaultConfig()) : cfg(c), ctl(sim, cfg) {}

    DhlConfig cfg;
    Simulator sim;
    DhlController ctl;
};

} // namespace

TEST(ControllerTest, OpenDeliversCartInOneTripTime)
{
    Rig r;
    Cart &cart = r.ctl.addCart(u::terabytes(100));
    double docked_at = -1.0;
    r.ctl.open(cart.id(), [&](Cart &c, DockingStation &) {
        docked_at = r.sim.now();
        EXPECT_EQ(c.state(), CartState::Docked);
        EXPECT_EQ(c.place(), CartPlace::Rack);
    });
    r.sim.run();
    // Undock (3) + travel (2.6) + dock (3) = 8.6 s.
    EXPECT_NEAR(docked_at, 8.6, 1e-9);
    EXPECT_EQ(r.ctl.launches(), 1u);
    EXPECT_NEAR(r.ctl.totalEnergy(), 15040.0, 10.0);
}

TEST(ControllerTest, CloseReturnsCartToLibrary)
{
    Rig r;
    Cart &cart = r.ctl.addCart();
    double stored_at = -1.0;
    r.ctl.open(cart.id(), [&](Cart &c, DockingStation &) {
        r.ctl.close(c.id(), [&](Cart &back) {
            stored_at = r.sim.now();
            EXPECT_EQ(back.state(), CartState::Stored);
            EXPECT_EQ(back.place(), CartPlace::Library);
        });
    });
    r.sim.run();
    EXPECT_NEAR(stored_at, 17.2, 1e-9); // two full trips
    EXPECT_EQ(r.ctl.launches(), 2u);
    EXPECT_EQ(cart.trips(), 2u);
}

TEST(ControllerTest, ReadServedAtDockedBandwidth)
{
    Rig r;
    Cart &cart = r.ctl.addCart(u::terabytes(10));
    double read_done = -1.0;
    r.ctl.open(cart.id(), [&](Cart &c, DockingStation &) {
        const double t0 = r.sim.now();
        r.ctl.read(c.id(), u::terabytes(10), [&, t0](double b) {
            EXPECT_DOUBLE_EQ(b, u::terabytes(10));
            read_done = r.sim.now() - t0;
        });
    });
    r.sim.run();
    EXPECT_NEAR(read_done, 10e12 / (32 * 7.1e9), 1e-6);
}

TEST(ControllerTest, WriteFillsTheCart)
{
    Rig r;
    Cart &cart = r.ctl.addCart();
    r.ctl.open(cart.id(), [&](Cart &c, DockingStation &) {
        r.ctl.write(c.id(), u::terabytes(64), nullptr);
    });
    r.sim.run();
    EXPECT_DOUBLE_EQ(cart.storedBytes(), u::terabytes(64));
}

TEST(ControllerTest, OpensQueueWhenStationsBusy)
{
    DhlConfig cfg = defaultConfig();
    cfg.docking_stations = 1;
    Rig r(cfg);
    Cart &a = r.ctl.addCart();
    Cart &b = r.ctl.addCart();

    double b_docked = -1.0;
    r.ctl.open(a.id(), [&](Cart &c, DockingStation &) {
        // b's open is already queued; release the station by closing a.
        r.ctl.close(c.id(), nullptr);
    });
    r.ctl.open(b.id(), [&](Cart &, DockingStation &) {
        b_docked = r.sim.now();
    });
    EXPECT_EQ(r.ctl.queuedOpens(), 1u);
    r.sim.run();
    EXPECT_GT(b_docked, 8.6); // had to wait for a's departure
    EXPECT_EQ(r.ctl.queuedOpens(), 0u);
    EXPECT_EQ(r.ctl.launches(), 3u); // a out, a back, b out
}

TEST(ControllerTest, DrainQueuedOpensReturnsArrivalOrder)
{
    DhlConfig cfg = defaultConfig();
    cfg.docking_stations = 1;
    Rig r(cfg);
    for (int i = 0; i < 4; ++i)
        r.ctl.addCart();

    int queued_fired = 0;
    r.ctl.open(0, nullptr); // takes the only station
    const std::vector<CartId> arrivals = {3, 1, 2};
    for (const CartId id : arrivals) {
        r.ctl.open(id, [&](Cart &, DockingStation &) { ++queued_fired; });
    }
    ASSERT_EQ(r.ctl.queuedOpens(), 3u);

    const std::vector<QueuedOpen> drained = r.ctl.drainQueuedOpens();
    EXPECT_EQ(r.ctl.queuedOpens(), 0u);
    ASSERT_EQ(drained.size(), arrivals.size());
    for (std::size_t i = 0; i < drained.size(); ++i) {
        EXPECT_EQ(drained[i].id, arrivals[i]);
        EXPECT_DOUBLE_EQ(drained[i].enqueue_time, 0.0);
        if (i > 0) {
            EXPECT_LT(drained[i - 1].seq, drained[i].seq);
        }
    }
    EXPECT_TRUE(r.ctl.drainQueuedOpens().empty());

    // Drained opens are gone: only cart 0 docks.
    r.sim.run();
    EXPECT_EQ(queued_fired, 0);
    EXPECT_EQ(r.ctl.launches(), 1u);
}

TEST(ControllerTest, HeldOpenReissuesAtRepairEnd)
{
    Rig r;
    dhl::faults::FaultState faults(r.sim);
    r.ctl.attachFaults(&faults);
    Cart &cart = r.ctl.addCart(u::terabytes(1));
    faults.sendCartToRepair(cart.id(), 100.0);

    double docked_at = -1.0;
    r.ctl.open(cart.id(), [&](Cart &c, DockingStation &) {
        docked_at = r.sim.now();
        r.ctl.close(c.id(), nullptr);
    });
    EXPECT_EQ(r.ctl.heldOpens(), 1u);
    EXPECT_EQ(r.ctl.queuedOpens(), 0u);
    r.sim.run();
    // Re-issued at the repair end, then one trip (8.6 s).
    EXPECT_NEAR(docked_at, 108.6, 1e-9);
    EXPECT_EQ(cart.state(), CartState::Stored);
    EXPECT_EQ(r.ctl.heldOpens(), 1u);
    r.ctl.attachFaults(nullptr);
}

TEST(ControllerTest, TwoStationsDockTwoCarts)
{
    DhlConfig cfg = defaultConfig();
    cfg.docking_stations = 2;
    cfg.track_mode = TrackMode::Pipelined;
    Rig r(cfg);
    Cart &a = r.ctl.addCart();
    Cart &b = r.ctl.addCart();
    int docked = 0;
    auto cb = [&](Cart &, DockingStation &) { ++docked; };
    r.ctl.open(a.id(), cb);
    r.ctl.open(b.id(), cb);
    EXPECT_EQ(r.ctl.queuedOpens(), 0u);
    r.sim.run();
    EXPECT_EQ(docked, 2);
    // Pipelined: second cart departs one headway later.
    EXPECT_NEAR(r.sim.now(), 8.6 + cfg.headway, 1e-9);
}

TEST(ControllerTest, OpenNonStoredCartRejected)
{
    Rig r;
    Cart &cart = r.ctl.addCart();
    r.ctl.open(cart.id(), nullptr);
    EXPECT_THROW(r.ctl.open(cart.id(), nullptr), dhl::FatalError);
    r.sim.run();
    // Docked at the rack now; open is still invalid, close is valid.
    EXPECT_THROW(r.ctl.open(cart.id(), nullptr), dhl::FatalError);
}

TEST(ControllerTest, CloseRequiresDockedCart)
{
    Rig r;
    Cart &cart = r.ctl.addCart();
    EXPECT_THROW(r.ctl.close(cart.id(), nullptr), dhl::FatalError);
    EXPECT_THROW(r.ctl.read(cart.id(), 1.0, nullptr), dhl::FatalError);
    EXPECT_THROW(r.ctl.write(cart.id(), 1.0, nullptr), dhl::FatalError);
}

TEST(ControllerTest, FailureInjectionReportsAndRecovers)
{
    Rig r;
    r.ctl.setFailureProbability(1.0); // every SSD fails every trip
    Cart &cart = r.ctl.addCart(u::terabytes(10));

    // Silence the expected warnings.
    auto prev = dhl::Logger::global().setLevel(dhl::LogLevel::Silent);
    r.ctl.open(cart.id(), [&](Cart &c, DockingStation &) {
        EXPECT_EQ(c.unhealthySsds(), 0u); // already repaired on arrival
        r.ctl.close(c.id(), nullptr);
    });
    r.sim.run();
    dhl::Logger::global().setLevel(prev);

    EXPECT_EQ(r.ctl.ssdFailures(), 64u); // 32 out + 32 back
    EXPECT_DOUBLE_EQ(cart.storedBytes(), u::terabytes(10)); // data intact
}

TEST(ControllerTest, StationAccessors)
{
    DhlConfig cfg = defaultConfig();
    cfg.docking_stations = 3;
    Rig r(cfg);
    EXPECT_EQ(r.ctl.numStations(), 3u);
    EXPECT_NO_THROW(r.ctl.station(2));
    EXPECT_THROW(r.ctl.station(3), dhl::FatalError);
}
