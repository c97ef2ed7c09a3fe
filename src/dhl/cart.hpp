/**
 * @file
 * The maglev cart entity used by the event-driven DHL simulation: state
 * machine, location, payload accounting, and the state of its SSDs
 * (connector wear and failure injection).
 */

#ifndef DHL_DHL_CART_HPP
#define DHL_DHL_CART_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "dhl/config.hpp"
#include "storage/ssd_model.hpp"

namespace dhl {
namespace core {

/** Identifier of a cart within one DHL system. */
using CartId = std::uint32_t;

/** Where a cart currently is (or is heading). */
enum class CartPlace
{
    Library,  ///< Stored in (or docking at) the library.
    Track,    ///< In the tube.
    Rack,     ///< Docked at (or docking at) a rack docking station.
};

std::string to_string(CartPlace place);

/** Lifecycle state of a cart. */
enum class CartState
{
    Stored,    ///< At rest in a library slot.
    Undocking, ///< Being lowered onto the track (dock_time).
    InFlight,  ///< Travelling through the tube.
    Docking,   ///< Being lifted off the track (dock_time).
    Docked,    ///< Attached, SSDs idle and reachable over PCIe.
    Busy,      ///< Attached, SSDs serving a read or write.
};

std::string to_string(CartState state);

/** One cart. */
class Cart
{
  public:
    /**
     * @param id               Cart id.
     * @param cfg              Owning DHL configuration (outlives cart).
     * @param connector        Docking connector technology.
     * @param failure_per_trip Per-SSD failure probability per trip.
     */
    Cart(CartId id, const DhlConfig &cfg,
         storage::ConnectorKind connector = storage::ConnectorKind::UsbC,
         double failure_per_trip = 0.0);

    CartId id() const { return id_; }
    CartState state() const { return state_; }
    CartPlace place() const { return place_; }

    /** Total storage capacity, bytes. */
    double capacity() const;

    /** Bytes currently stored across the cart's SSDs. */
    double storedBytes() const;

    /** Free capacity, bytes. */
    double freeBytes() const { return capacity() - storedBytes(); }

    /**
     * Load @p bytes, striped evenly over the SSDs.  fatal() on
     * overflow.  Instantaneous (setup-time helper); timed writes go via
     * the docking station.
     */
    void loadBytes(double bytes);

    /** Transition helpers (validated: panic on illegal transitions). */
    void beginUndock();
    void launch();
    void beginDock(CartPlace destination);
    void finishDock();
    void beginIo();
    void finishIo();

    /**
     * Record one mating cycle on every SSD connector.  All of a cart's
     * connectors mate together, so one counter serves them all; a
     * connector is worn once the count exceeds its rating.
     */
    void matingCycle() { ++cycles_; }

    /**
     * Roll per-SSD trip-failure dice; returns # of SSDs that failed.
     * Draws one rng.uniform() per healthy SSD in index order, and none
     * while the failure probability is 0.
     */
    std::size_t rollTripFailures(Rng &rng);

    /** Number of SSDs currently not healthy. */
    std::size_t unhealthySsds() const
    {
        return connectorWorn() ? failed_.size() : failed_count_;
    }

    /** Repair all SSDs (library maintenance): clears failures and
     *  connector wear; stored bytes survive (RAID/backup restore). */
    void repairAll();

    /** Record a mechanical breakdown (cart pulled into the library's
     *  repair shop; the FaultState tracks the turnaround). */
    void recordBreakdown() { ++breakdowns_; }

    /** Mechanical breakdowns suffered so far. */
    std::uint64_t breakdowns() const { return breakdowns_; }

    /** Completed one-way trips. */
    std::uint64_t trips() const { return trips_; }

    /** SSDs in the cart. */
    std::size_t ssdCount() const { return failed_.size(); }

    /** Bytes on each SSD (loads stripe evenly over all of them). */
    double ssdBytes() const { return ssd_bytes_; }

    /** Connector mating cycles since the last repairAll(). */
    std::uint64_t matingCycles() const { return cycles_; }

    /** True once the connectors exceed their rated mating cycles. */
    bool connectorWorn() const
    {
        return cycles_ > storage::ratedCycles(connector_);
    }

    /**
     * Connector wear of each SSD as a fraction of the rated mating
     * cycles (1.0 = at rated life; can exceed 1.0 once worn).  The ops
     * layer's wear coupling scales cart breakdown probability and
     * station MTBF with this.
     */
    double
    wearFraction() const
    {
        return static_cast<double>(cycles_) /
               static_cast<double>(storage::ratedCycles(connector_));
    }

  private:
    CartId id_;
    const DhlConfig &cfg_;
    storage::ConnectorKind connector_;
    double failure_per_trip_;
    CartState state_;
    CartPlace place_;
    std::uint64_t trips_;
    std::uint64_t breakdowns_ = 0;
    std::uint64_t cycles_ = 0;
    double ssd_bytes_ = 0.0;
    std::vector<bool> failed_; ///< Per SSD: failed in flight.
    std::size_t failed_count_ = 0;
};

} // namespace core
} // namespace dhl

#endif // DHL_DHL_CART_HPP
