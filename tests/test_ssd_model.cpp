/**
 * @file
 * Unit tests for the SSD behaviour a cart models: stored bytes, device
 * bandwidth, connector wear against the rated mating cycles, and
 * per-trip failure injection.  One-SSD carts isolate a single device.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "dhl/cart.hpp"
#include "storage/cart_array.hpp"
#include "storage/ssd_model.hpp"

using namespace dhl::storage;
using dhl::core::Cart;
using dhl::core::DhlConfig;
namespace u = dhl::units;

namespace {

/** A one-SSD cart configuration on the reference M.2 device. */
const DhlConfig &
oneSsdConfig()
{
    static const DhlConfig cfg = [] {
        DhlConfig c = dhl::core::defaultConfig();
        c.ssd = referenceM2Ssd();
        c.ssds_per_cart = 1;
        return c;
    }();
    return cfg;
}

Cart
freshSsd(double failure_per_trip = 0.0,
         ConnectorKind connector = ConnectorKind::UsbC)
{
    return Cart(0, oneSsdConfig(), connector, failure_per_trip);
}

void
mate(Cart &c, int cycles)
{
    for (int i = 0; i < cycles; ++i)
        c.matingCycle();
}

} // namespace

TEST(CartSsdTest, StartsEmptyAndHealthy)
{
    auto ssd = freshSsd();
    EXPECT_EQ(ssd.unhealthySsds(), 0u);
    EXPECT_FALSE(ssd.connectorWorn());
    EXPECT_DOUBLE_EQ(ssd.storedBytes(), 0.0);
    EXPECT_DOUBLE_EQ(ssd.freeBytes(), u::terabytes(8));
}

TEST(CartSsdTest, WriteAndReadTiming)
{
    // Device timing lives in the docked array's bandwidths.
    const CartArray one(referenceM2Ssd(), 1);
    const double bytes = u::terabytes(1);
    const double wt = bytes / one.writeBandwidth();
    EXPECT_NEAR(wt, bytes / u::megabytes(6000), 1e-9);
    auto ssd = freshSsd();
    ssd.loadBytes(bytes);
    EXPECT_DOUBLE_EQ(ssd.storedBytes(), bytes);
    const double rt = bytes / one.readBandwidth();
    EXPECT_NEAR(rt, bytes / u::megabytes(7100), 1e-9);
    EXPECT_LT(rt, wt); // reads are faster on this device
}

TEST(CartSsdTest, OverflowRejected)
{
    auto ssd = freshSsd();
    ssd.loadBytes(u::terabytes(8));
    EXPECT_THROW(ssd.loadBytes(u::gigabytes(1)), dhl::FatalError);
    EXPECT_THROW(ssd.loadBytes(-1.0), dhl::FatalError);
}

TEST(CartSsdTest, RatedCyclesMatchDiscussion)
{
    // Discussion §VI: USB-C 10k-20k cycles, M.2 hundreds.
    EXPECT_EQ(ratedCycles(ConnectorKind::UsbC), 10000u);
    EXPECT_EQ(ratedCycles(ConnectorKind::M2), 250u);
}

TEST(CartSsdTest, M2ConnectorWearsOutQuickly)
{
    auto ssd = freshSsd(0.0, ConnectorKind::M2);
    mate(ssd, 250);
    EXPECT_EQ(ssd.unhealthySsds(), 0u);
    EXPECT_FALSE(ssd.connectorWorn());
    ssd.matingCycle(); // 251st crosses the rating
    EXPECT_TRUE(ssd.connectorWorn());
    EXPECT_EQ(ssd.unhealthySsds(), 1u);
}

TEST(CartSsdTest, UsbCSurvivesManyMoreCycles)
{
    auto ssd = freshSsd();
    mate(ssd, 5000);
    EXPECT_EQ(ssd.unhealthySsds(), 0u);
    EXPECT_EQ(ssd.matingCycles(), 5000u);
    mate(ssd, 5000);
    EXPECT_FALSE(ssd.connectorWorn());
    EXPECT_EQ(ssd.unhealthySsds(), 0u);
    ssd.matingCycle(); // 10001st crosses the rating
    EXPECT_TRUE(ssd.connectorWorn());
    EXPECT_EQ(ssd.unhealthySsds(), 1u);
    EXPECT_DOUBLE_EQ(ssd.wearFraction(), 1.0001);
}

TEST(CartSsdTest, UnhealthyDeviceRefusesWrites)
{
    auto ssd = freshSsd(0.0, ConnectorKind::M2);
    ssd.loadBytes(u::gigabytes(1));
    mate(ssd, 251);
    EXPECT_THROW(ssd.loadBytes(u::gigabytes(1)), dhl::FatalError);
    EXPECT_DOUBLE_EQ(ssd.storedBytes(), u::gigabytes(1));
}

TEST(CartSsdTest, FailureInjectionRoughlyCalibrated)
{
    dhl::Rng rng(99);
    std::size_t failures = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
        auto ssd = freshSsd(0.1);
        failures += ssd.rollTripFailures(rng);
    }
    EXPECT_NEAR(static_cast<double>(failures) / trials, 0.1, 0.03);
}

TEST(CartSsdTest, ZeroProbabilityNeverFails)
{
    dhl::Rng rng(1);
    auto ssd = freshSsd(0.0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(ssd.rollTripFailures(rng), 0u);
}

TEST(CartSsdTest, RepairRestoresHealthAndKeepsData)
{
    dhl::Rng rng(7);
    auto ssd = freshSsd(1.0); // certain failure
    ssd.loadBytes(u::terabytes(2));
    ssd.matingCycle();
    EXPECT_EQ(ssd.rollTripFailures(rng), 1u);
    EXPECT_EQ(ssd.unhealthySsds(), 1u);
    ssd.repairAll();
    EXPECT_EQ(ssd.unhealthySsds(), 0u);
    // RAID/backup restoration: contents survive the repair.
    EXPECT_DOUBLE_EQ(ssd.storedBytes(), u::terabytes(2));
    EXPECT_EQ(ssd.matingCycles(), 0u);
}

TEST(CartSsdTest, FailedDeviceStopsRolling)
{
    dhl::Rng rng(7);
    auto ssd = freshSsd(1.0);
    EXPECT_EQ(ssd.rollTripFailures(rng), 1u);
    EXPECT_EQ(ssd.rollTripFailures(rng), 0u); // already failed
}

TEST(CartSsdTest, FailureAndLaterWearCountOnce)
{
    dhl::Rng rng(7);
    auto ssd = freshSsd(1.0, ConnectorKind::M2);
    EXPECT_EQ(ssd.rollTripFailures(rng), 1u);
    mate(ssd, 251);
    EXPECT_TRUE(ssd.connectorWorn());
    EXPECT_EQ(ssd.unhealthySsds(), 1u);
}

TEST(CartSsdTest, RejectsBadFailureProbability)
{
    EXPECT_THROW(freshSsd(-0.1), dhl::FatalError);
    EXPECT_THROW(freshSsd(1.1), dhl::FatalError);
}
