/**
 * @file
 * Test-only oracle: the per-SSD model a cart used to carry, one object
 * per SSD, kept in behaviour so core::Cart's cart-level SSD state can
 * be checked against it bit for bit (tests/test_cart.cpp).
 *
 * Every SSD keeps its own stored bytes, mating-cycle count and health
 * state; the cart walks all of them on every load, dock, undock,
 * failure roll and repair.  It is deliberately the slow definition the
 * cart-level state must reproduce.
 */

#ifndef DHL_TESTS_CART_REFERENCE_HPP
#define DHL_TESTS_CART_REFERENCE_HPP

#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "storage/catalog.hpp"
#include "storage/ssd_model.hpp"

namespace dhl {
namespace reference {

/** Health state of one reference SSD. */
enum class RefSsdState
{
    Healthy,
    Failed,        ///< Data loss in flight; needs RAID/backup recovery.
    ConnectorWorn, ///< Connector exceeded rated mating cycles.
};

/** One simulated SSD, as the per-SSD model kept it. */
class RefSsd
{
  public:
    RefSsd(const storage::DeviceSpec &spec, storage::ConnectorKind connector,
           double failure_per_trip)
        : capacity_(spec.capacity), connector_(connector),
          failure_per_trip_(failure_per_trip)
    {}

    RefSsdState state() const { return state_; }
    bool healthy() const { return state_ == RefSsdState::Healthy; }
    double storedBytes() const { return stored_; }
    std::uint64_t matingCycles() const { return cycles_; }

    void
    write(double bytes)
    {
        fatal_if(bytes < 0.0, "write size must be non-negative");
        fatal_if(!healthy(), "cannot write a non-healthy SSD");
        fatal_if(stored_ + bytes > capacity_ * (1.0 + 1e-9),
                 "write overflows SSD");
        stored_ += bytes;
        if (stored_ > capacity_)
            stored_ = capacity_;
    }

    void
    matingCycle()
    {
        ++cycles_;
        if (state_ == RefSsdState::Healthy &&
            cycles_ > storage::ratedCycles(connector_))
            state_ = RefSsdState::ConnectorWorn;
    }

    double
    wearFraction() const
    {
        return static_cast<double>(cycles_) /
               static_cast<double>(storage::ratedCycles(connector_));
    }

    bool
    rollTripFailure(Rng &rng)
    {
        if (failure_per_trip_ <= 0.0 || state_ != RefSsdState::Healthy)
            return false;
        if (rng.uniform() < failure_per_trip_) {
            state_ = RefSsdState::Failed;
            return true;
        }
        return false;
    }

    void
    repair()
    {
        state_ = RefSsdState::Healthy;
        cycles_ = 0;
    }

  private:
    double capacity_;
    storage::ConnectorKind connector_;
    double failure_per_trip_;
    double stored_ = 0.0;
    std::uint64_t cycles_ = 0;
    RefSsdState state_ = RefSsdState::Healthy;
};

/** A cart's SSDs as the per-SSD loops walked them. */
class RefCartSsds
{
  public:
    RefCartSsds(const storage::DeviceSpec &spec, std::size_t count,
                storage::ConnectorKind connector, double failure_per_trip)
        : ssds_(count, RefSsd(spec, connector, failure_per_trip))
    {}

    const std::vector<RefSsd> &ssds() const { return ssds_; }

    double
    storedBytes() const
    {
        double total = 0.0;
        for (const auto &s : ssds_)
            total += s.storedBytes();
        return total;
    }

    /** Cart::loadBytes's per-SSD part (after its cart-level checks). */
    void
    load(double bytes)
    {
        const double per = bytes / static_cast<double>(ssds_.size());
        for (auto &s : ssds_)
            s.write(per);
    }

    void
    matingCycle()
    {
        for (auto &s : ssds_)
            s.matingCycle();
    }

    std::size_t
    rollTripFailures(Rng &rng)
    {
        std::size_t failed = 0;
        for (auto &s : ssds_)
            if (s.rollTripFailure(rng))
                ++failed;
        return failed;
    }

    std::size_t
    unhealthySsds() const
    {
        std::size_t n = 0;
        for (const auto &s : ssds_)
            if (!s.healthy())
                ++n;
        return n;
    }

    void
    repairAll()
    {
        for (auto &s : ssds_)
            s.repair();
    }

    /** ops::cartWear as the per-SSD sum computed it. */
    double
    meanWear() const
    {
        if (ssds_.empty())
            return 0.0;
        double total = 0.0;
        for (const auto &s : ssds_)
            total += s.wearFraction();
        return total / static_cast<double>(ssds_.size());
    }

  private:
    std::vector<RefSsd> ssds_;
};

} // namespace reference
} // namespace dhl

#endif // DHL_TESTS_CART_REFERENCE_HPP
