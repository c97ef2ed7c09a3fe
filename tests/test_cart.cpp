/**
 * @file
 * Unit tests for the cart entity's state machine and payload handling,
 * and a differential test of its cart-level SSD state against the
 * per-SSD model it replaced (tests/cart_reference.hpp).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "cart_reference.hpp"
#include "common/logging.hpp"
#include "common/units.hpp"
#include "dhl/cart.hpp"
#include "dhl/library.hpp"
#include "ops/wear.hpp"
#include "sim/simulator.hpp"

using namespace dhl::core;
namespace u = dhl::units;

namespace {

DhlConfig cfg = defaultConfig();

Cart
freshCart(double failure = 0.0)
{
    return Cart(0, cfg, dhl::storage::ConnectorKind::UsbC, failure);
}

} // namespace

TEST(CartTest, StartsStoredInLibrary)
{
    Cart c = freshCart();
    EXPECT_EQ(c.state(), CartState::Stored);
    EXPECT_EQ(c.place(), CartPlace::Library);
    EXPECT_DOUBLE_EQ(c.capacity(), u::terabytes(256));
    EXPECT_DOUBLE_EQ(c.storedBytes(), 0.0);
    EXPECT_EQ(c.trips(), 0u);
    EXPECT_EQ(c.ssdCount(), 32u);
}

TEST(CartTest, LoadStripesEvenly)
{
    Cart c = freshCart();
    c.loadBytes(u::terabytes(32));
    EXPECT_DOUBLE_EQ(c.storedBytes(), u::terabytes(32));
    EXPECT_DOUBLE_EQ(c.ssdBytes(), u::terabytes(1));
    c.loadBytes(u::terabytes(16));
    EXPECT_DOUBLE_EQ(c.storedBytes(), u::terabytes(48));
    EXPECT_DOUBLE_EQ(c.ssdBytes(), u::terabytes(1.5));
}

TEST(CartTest, LoadOverflowRejected)
{
    Cart c = freshCart();
    EXPECT_THROW(c.loadBytes(u::terabytes(257)), dhl::FatalError);
    c.loadBytes(u::terabytes(256));
    EXPECT_THROW(c.loadBytes(1.0), dhl::FatalError);
}

TEST(CartTest, FullTripLifecycle)
{
    Cart c = freshCart();
    c.beginUndock();
    EXPECT_EQ(c.state(), CartState::Undocking);
    c.launch();
    EXPECT_EQ(c.state(), CartState::InFlight);
    EXPECT_EQ(c.place(), CartPlace::Track);
    c.beginDock(CartPlace::Rack);
    EXPECT_EQ(c.state(), CartState::Docking);
    EXPECT_EQ(c.trips(), 1u);
    c.finishDock();
    EXPECT_EQ(c.state(), CartState::Docked);
    EXPECT_EQ(c.place(), CartPlace::Rack);

    c.beginIo();
    EXPECT_EQ(c.state(), CartState::Busy);
    c.finishIo();
    EXPECT_EQ(c.state(), CartState::Docked);

    // Return journey ends Stored at the library.
    c.beginUndock();
    c.launch();
    c.beginDock(CartPlace::Library);
    c.finishDock();
    EXPECT_EQ(c.state(), CartState::Stored);
    EXPECT_EQ(c.place(), CartPlace::Library);
    EXPECT_EQ(c.trips(), 2u);
}

TEST(CartTest, IllegalTransitionsPanic)
{
    Cart c = freshCart();
    EXPECT_THROW(c.launch(), dhl::PanicError);        // not undocking
    EXPECT_THROW(c.beginDock(CartPlace::Rack), dhl::PanicError);
    EXPECT_THROW(c.finishDock(), dhl::PanicError);
    EXPECT_THROW(c.beginIo(), dhl::PanicError);       // not docked
    EXPECT_THROW(c.finishIo(), dhl::PanicError);

    c.beginUndock();
    EXPECT_THROW(c.beginUndock(), dhl::PanicError);   // already undocking
    c.launch();
    EXPECT_THROW(c.beginDock(CartPlace::Track), dhl::PanicError);
}

TEST(CartTest, MatingCyclesHitEverySsd)
{
    Cart c = freshCart();
    c.beginUndock(); // records one mating cycle
    EXPECT_EQ(c.matingCycles(), 1u);
    c.launch();
    c.beginDock(CartPlace::Rack);
    c.finishDock(); // and one more
    EXPECT_EQ(c.matingCycles(), 2u);
}

TEST(CartTest, FailureInjectionAndRepair)
{
    dhl::Rng rng(123);
    Cart c = freshCart(1.0); // every SSD fails every trip
    c.loadBytes(u::terabytes(10));
    EXPECT_EQ(c.rollTripFailures(rng), 32u);
    EXPECT_EQ(c.unhealthySsds(), 32u);
    c.repairAll();
    EXPECT_EQ(c.unhealthySsds(), 0u);
    EXPECT_DOUBLE_EQ(c.storedBytes(), u::terabytes(10));
}

TEST(CartEnums, Names)
{
    EXPECT_EQ(to_string(CartState::Stored), "stored");
    EXPECT_EQ(to_string(CartState::InFlight), "in-flight");
    EXPECT_EQ(to_string(CartPlace::Rack), "rack");
    EXPECT_EQ(to_string(CartPlace::Track), "track");
}

namespace {

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Every observable of the cart's SSDs equals the per-SSD oracle's. */
void
expectSameSsds(const Cart &c, const dhl::reference::RefCartSsds &ref,
               const Library &lib, int seed, int step)
{
    SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step);
    ASSERT_EQ(c.unhealthySsds(), ref.unhealthySsds());
    ASSERT_EQ(bits(c.storedBytes()), bits(ref.storedBytes()));
    ASSERT_EQ(bits(dhl::ops::cartWear(lib, c.id())), bits(ref.meanWear()));
    ASSERT_EQ(c.ssdCount(), ref.ssds().size());
    using dhl::reference::RefSsdState;
    for (std::size_t i = 0; i < ref.ssds().size(); ++i) {
        // A failure outranks wear, so a worn connector shows as
        // ConnectorWorn only on SSDs that had not failed.
        const RefSsdState state = ref.ssds()[i].state();
        if (c.connectorWorn())
            ASSERT_NE(state, RefSsdState::Healthy);
        else
            ASSERT_NE(state, RefSsdState::ConnectorWorn);
        ASSERT_EQ(c.matingCycles(), ref.ssds()[i].matingCycles());
        ASSERT_EQ(bits(c.ssdBytes()), bits(ref.ssds()[i].storedBytes()));
    }
}

} // namespace

TEST(CartSsdDifferential, MatchesPerSsdModel)
{
    using dhl::storage::ConnectorKind;
    const double probabilities[] = {0.0, 0.02, 0.3};
    const std::size_t ssd_counts[] = {1, 7, 32};
    for (int seed = 0; seed < 120; ++seed) {
        dhl::Rng script(static_cast<std::uint64_t>(seed) * 7919u + 1u);
        DhlConfig dc = defaultConfig();
        dc.ssds_per_cart = ssd_counts[seed % 3];
        const ConnectorKind connector =
            (seed / 3) % 2 == 0 ? ConnectorKind::M2 : ConnectorKind::UsbC;
        const double p = probabilities[(seed / 6) % 3];

        dhl::sim::Simulator sim;
        Library lib(sim, dc);
        Cart &c = lib.addCart(0.0, connector, p);
        dhl::reference::RefCartSsds ref(dc.ssd, dc.ssds_per_cart,
                                        connector, p);
        dhl::Rng rng(static_cast<std::uint64_t>(seed) + 100u);
        dhl::Rng ref_rng(static_cast<std::uint64_t>(seed) + 100u);

        for (int step = 0; step < 1500; ++step) {
            const double op = script.uniform();
            if (op < 0.29) {
                const double bytes = script.uniform() * c.freeBytes();
                if (c.unhealthySsds() == 0) {
                    c.loadBytes(bytes);
                    ref.load(bytes);
                } else {
                    // Writing to an unhealthy SSD fails and writes
                    // nothing.
                    const double before = c.storedBytes();
                    EXPECT_THROW(c.loadBytes(bytes), dhl::FatalError);
                    ASSERT_EQ(bits(c.storedBytes()), bits(before));
                }
            } else if (op < 0.65) {
                c.matingCycle(); // a dock or an undock
                ref.matingCycle();
            } else if (op < 0.66) {
                // A long stretch of trips, so USB-C connectors wear out
                // within the script too.
                for (int k = 0; k < 800; ++k) {
                    c.matingCycle();
                    ref.matingCycle();
                }
            } else if (op < 0.98) {
                ASSERT_EQ(c.rollTripFailures(rng),
                          ref.rollTripFailures(ref_rng));
            } else {
                c.repairAll();
                ref.repairAll();
            }
            expectSameSsds(c, ref, lib, seed, step);
        }
        // Same draws in the same order: the streams stand at one place.
        EXPECT_EQ(rng.next(), ref_rng.next()) << "seed " << seed;
    }
}

TEST(CartSsdDifferential, ZeroProbabilityDrawsNothing)
{
    Cart c = freshCart(0.0);
    dhl::Rng rng(5);
    dhl::Rng untouched(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(c.rollTripFailures(rng), 0u);
    EXPECT_EQ(rng.next(), untouched.next());
}
