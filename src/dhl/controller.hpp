/**
 * @file
 * The DHL management software layer (paper §III-D): implements the
 * four-command API — Open, Close, Read, Write — over the event-driven
 * library / track / docking-station substrate, with FIFO queueing when
 * the rack's docking stations are all claimed, per-launch energy
 * accounting, and in-flight SSD failure injection with the paper's
 * RAID-ameliorates-it recovery story.
 */

#ifndef DHL_DHL_CONTROLLER_HPP
#define DHL_DHL_CONTROLLER_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "dhl/cart.hpp"
#include "dhl/config.hpp"
#include "dhl/docking_station.hpp"
#include "dhl/library.hpp"
#include "dhl/track.hpp"
#include "faults/fault_state.hpp"
#include "sim/sim_object.hpp"
#include "sim/trace.hpp"

namespace dhl {
namespace core {

/** One open waiting for a docking station. */
struct QueuedOpen
{
    CartId id;
    double enqueue_time;
    std::uint64_t seq; ///< Arrival order.
    std::function<void(Cart &, DockingStation &)> cb;
};

/** The DHL controller: owns the whole simulated system of one DHL. */
class DhlController : public sim::SimObject
{
  public:
    /** Fires once an opened cart is docked at a rack station. */
    using OpenCb = std::function<void(Cart &, DockingStation &)>;

    /** Fires once a closed cart is stored back in the library. */
    using CloseCb = std::function<void(Cart &)>;

    /** Fires when a read/write completes, with the byte count. */
    using IoCb = std::function<void(double)>;

    DhlController(sim::Simulator &sim, const DhlConfig &cfg,
                  std::string name = "dhl", std::uint64_t seed = 1);

    const DhlConfig &config() const { return cfg_; }
    Library &library() { return *library_; }
    Track &track() { return *track_; }
    std::size_t numStations() const { return stations_.size(); }
    DockingStation &station(std::size_t i);

    //------------------------------------------------------------------
    // The software API (paper §III-D)
    //------------------------------------------------------------------

    /**
     * Open: request a cart from the library.  If all rack docking
     * stations are claimed the request queues in arrival order; once a
     * station frees, the cart is undocked, shuttled, docked, and @p cb
     * fires.
     */
    void open(CartId id, OpenCb cb);

    /**
     * Close: disconnect a docked cart and shuttle it back to the
     * library; @p cb fires once it is stored.  Frees the station when
     * the cart departs, which may dispatch a queued open.
     */
    void close(CartId id, CloseCb cb);

    /** Read @p bytes from a docked cart (local PCIe bandwidth). */
    void read(CartId id, double bytes, IoCb cb);

    /** Write @p bytes to a docked cart. */
    void write(CartId id, double bytes, IoCb cb);

    //------------------------------------------------------------------
    // Accounting
    //------------------------------------------------------------------

    /** Total LIM energy drawn so far, J. */
    double totalEnergy() const { return track_->totalEnergy(); }

    /** Launches performed so far. */
    std::uint64_t launches() const { return track_->launches(); }

    /** SSD failures injected in flight so far. */
    std::uint64_t ssdFailures() const { return ssd_failures_; }

    /** Open requests currently waiting for a docking station. */
    std::size_t queuedOpens() const { return queue_.size(); }

    /** Set the per-SSD per-trip failure probability for new carts. */
    void setFailureProbability(double p) { failure_per_trip_ = p; }

    /** Convenience: create a preloaded cart in the library. */
    Cart &addCart(double preload_bytes = 0.0);

    /**
     * Attach a trace recorder; the controller emits "api" records for
     * every command, "track" records for every launch/arrival, and
     * "fault" records for degraded-mode decisions (parked trips, held
     * opens, cart breakdowns).  Pass nullptr to detach.  The recorder
     * must outlive the controller (or be detached first).
     */
    void attachTrace(sim::TraceRecorder *trace) { trace_ = trace; }

    //------------------------------------------------------------------
    // Degraded-mode operation (see DESIGN.md §8)
    //------------------------------------------------------------------

    /**
     * Attach the fault registry driven by a faults::FaultInjector.
     * While attached:
     *
     *  - Opens on carts rotating through the repair shop are held and
     *    re-issued at the repair turnaround.
     *  - Opens are queued (not started) while launches are blocked or
     *    no operational docking station is free; every repair
     *    completion re-dispatches the queue to surviving stations.
     *  - Trips whose launch is blocked by a LIM/track outage park in
     *    place and retry with bounded exponential backoff
     *    (FaultState::retryPolicy); carts already in the tube finish
     *    their trip.
     *  - Carts roll per-trip breakdown dice when they return to the
     *    library and derate the fleet while in the repair shop.
     *
     * The registry must outlive the controller (or be detached with
     * nullptr; listeners registered here die with the registry).
     */
    void attachFaults(faults::FaultState *faults);

    /** The attached fault registry (nullptr when fault-free). */
    faults::FaultState *faultState() { return faults_; }

    /**
     * Remove and return every queued (not yet started) open in arrival
     * order.  The ops-layer dispatcher pulls the queue off a track
     * whose service went down and re-routes the work fleet-wide; the
     * returned callbacks still expect this controller's Cart and
     * DockingStation, so re-routers resubmit at the job level rather
     * than replaying the callbacks elsewhere.
     */
    std::vector<QueuedOpen> drainQueuedOpens();

    /** Trips parked by a launch-blocking outage so far. */
    std::uint64_t parkedLaunches() const { return parked_launches_; }

    /** Opens held because the target cart was in repair. */
    std::uint64_t heldOpens() const { return held_opens_; }

    /** Per-trip cart breakdowns rolled at the library. */
    std::uint64_t cartBreakdowns() const { return cart_breakdowns_; }

    /**
     * Checkpoint/restore at a drained boundary: no open may be queued
     * or in flight and every cart must be stored (fatal otherwise) —
     * the serving loop guarantees this by draining request work before
     * snapshotting.  Captures the SSD-failure RNG position, the open
     * sequence counter, the degraded-mode tallies, and the track's
     * admission/energy state.
     */
    void saveState(sim::SnapshotWriter &w) const override;
    void restoreState(sim::SnapshotReader &r) override;

  private:
    DockingStation *findFreeStation();
    bool launchesBlocked() const
    {
        return faults_ != nullptr && !faults_->launchOk();
    }
    /**
     * One cart's trip in progress.  Every event of a trip captures only
     * {this, cart id} and finds the rest here, so each fits the
     * kernel's inline action buffer.
     */
    struct Trip
    {
        DockingStation *station = nullptr; ///< Reserved or docked at.
        bool docked = false;               ///< Open done, close pending.
        double requested = 0.0;            ///< When the open started, s.
        OpenCb on_open;
        CloseCb on_close;
    };

    /** The trip record of cart @p id (grown on first use). */
    Trip &trip(CartId id);

    void dispatchOpens();
    void startOpen(CartId id, OpenCb cb, DockingStation &st);
    void launchOutbound(CartId id, double backoff);
    void finishOpen(CartId id);
    void launchInbound(CartId id, double backoff);
    void finishClose(CartId id);
    bool anyDocked() const;
    void handleArrivalFailures(Cart &cart);
    bool tracingOn() const
    {
        return trace_ != nullptr && trace_->enabled();
    }
    void traceEvent(std::string_view category, std::string_view message);

    // dhl-analyze: transient(cfg_, library_, stations_): rebuilt
    // identically by the constructor from the same DhlConfig; the
    // Library and stations snapshot themselves as separate objects
    DhlConfig cfg_;
    std::unique_ptr<Library> library_;
    std::unique_ptr<Track> track_;
    std::vector<std::unique_ptr<DockingStation>> stations_;
    // dhl-analyze: transient(trips_): no trip is in progress at a legal
    // checkpoint boundary (saveState asserts no cart is docked)
    std::vector<Trip> trips_; ///< Index = cart id.
    std::deque<QueuedOpen> queue_; ///< Opens waiting, in arrival order.
    std::uint64_t next_seq_;
    // dhl-analyze: transient(trace_, faults_): wiring pointers,
    // re-attached by the harness before restore
    sim::TraceRecorder *trace_ = nullptr;
    faults::FaultState *faults_ = nullptr;
    Rng rng_;
    // dhl-analyze: transient(failure_per_trip_): derived from the
    // config by the constructor, never mutated afterwards
    double failure_per_trip_;
    std::uint64_t ssd_failures_;
    std::uint64_t parked_launches_ = 0;
    std::uint64_t held_opens_ = 0;
    std::uint64_t cart_breakdowns_ = 0;

    // dhl-analyze: transient(stat_opens_, stat_closes_, stat_reads_,
    // stat_writes_, stat_failures_, stat_parked_, stat_held_opens_,
    // stat_breakdowns_, stat_open_latency_): host-side stats tallies,
    // restart from the boundary
    stats::Counter *stat_opens_;
    stats::Counter *stat_closes_;
    stats::Counter *stat_reads_;
    stats::Counter *stat_writes_;
    stats::Counter *stat_failures_;
    stats::Counter *stat_parked_;
    stats::Counter *stat_held_opens_;
    stats::Counter *stat_breakdowns_;
    stats::Accumulator *stat_open_latency_;
};

} // namespace core
} // namespace dhl

#endif // DHL_DHL_CONTROLLER_HPP
