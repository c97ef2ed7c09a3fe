/**
 * @file
 * High-level facade wiring a complete event-driven DHL system and
 * running bulk dataset transfers on it — the executable counterpart of
 * the closed-form AnalyticalModel (they must agree; experiment E11).
 *
 * Also home of the bulk-transfer pipeline every batch driver
 * (DhlSimulation, DhlFleet, ops::FleetOps, the DES replay) runs on: the
 * cart split, one cart's round trip through the four-command API, and
 * the run meter that steps the loop and assembles the BulkRunResult.
 * The drivers keep only their dispatch decision.
 */

#ifndef DHL_DHL_SIMULATION_HPP
#define DHL_DHL_SIMULATION_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "dhl/analytical.hpp"
#include "dhl/config.hpp"
#include "dhl/controller.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_state.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace dhl {
namespace core {

/** Options for an event-driven bulk transfer run. */
struct BulkRunOptions
{
    /** Issue all opens up front so trips overlap (requires a Pipelined
     *  or DualTrack track mode and/or multiple docking stations to
     *  actually gain anything). */
    bool pipelined = false;

    /** Read each cart's contents at the rack before closing it. */
    bool include_read_time = false;

    /** Per-SSD per-trip failure probability (failure injection). */
    double failure_per_trip = 0.0;
};

/** Result of an event-driven bulk transfer run. */
struct BulkRunResult
{
    double total_time;          ///< s (simulated).
    double total_energy;        ///< J (LIM shots).
    std::uint64_t launches;     ///< one-way launches.
    std::uint64_t carts;        ///< carts used.
    std::uint64_t ssd_failures; ///< failures injected en route this run.
    double avg_power;           ///< W.
    double effective_bandwidth; ///< bytes/s.
    double bytes_read;          ///< bytes actually read at the rack.
};

/**
 * The cart loads of a bulk move: ceil(@p bytes / @p capacity) carts,
 * every one full except the last.  fatal() unless bytes is positive
 * and finite and the cart count is at most @p max_carts (the library
 * slots that can hold them), checked before anything is allocated.
 */
std::vector<double> splitIntoCarts(double bytes, double capacity,
                                   std::size_t max_carts);

/**
 * One cart's round trip through the four-command API: open, read
 * storedBytes() at the rack when @p read and the cart holds data,
 * close.  @p docked (optional) receives the open's issue ->
 * docked latency, s; @p stored fires once the cart is back in the
 * library, with the bytes read (0 without a read).  Whatever the hooks
 * capture must outlive the trip: the batch drivers return only after
 * every cart is stored.
 */
void roundTrip(DhlController &ctl, CartId id, bool read,
               std::function<void(double)> stored,
               std::function<void(double)> docked = nullptr);

/**
 * The accounting of one bulk run over a set of controllers sharing one
 * event loop.  Energy, launches and SSD failures are read as deltas
 * from construction, so a second run on the same controllers reports
 * only its own.
 */
class BulkRunMeter
{
  public:
    BulkRunMeter(sim::Simulator &sim,
                 std::vector<const DhlController *> controllers);

    // Round-trip hooks hold the meter's address.
    BulkRunMeter(const BulkRunMeter &) = delete;
    BulkRunMeter &operator=(const BulkRunMeter &) = delete;

    /** The stored hook of a round trip: one cart home, @p bytes read. */
    void
    stored(double bytes)
    {
        ++stored_;
        bytes_read_ += bytes;
    }

    /**
     * Step the loop until @p carts carts are stored; panic() if the
     * queue empties first.  A background process (fault injectors,
     * maintenance windows, plant outages) left pending stays queued.
     */
    void stepUntilStored(std::uint64_t carts);

    /** The run's result for a move of @p bytes, as of now. */
    BulkRunResult result(double bytes) const;

  private:
    /** Running totals summed over the controllers. */
    struct Totals
    {
        double energy = 0.0;
        std::uint64_t launches = 0;
        std::uint64_t ssd_failures = 0;
    };
    Totals totals() const;

    sim::Simulator &sim_;
    std::vector<const DhlController *> controllers_;
    double start_;
    Totals before_;
    std::uint64_t stored_ = 0;
    double bytes_read_ = 0.0;
};

/** A complete simulated DHL system. */
class DhlSimulation
{
  public:
    explicit DhlSimulation(const DhlConfig &cfg, std::uint64_t seed = 1);

    sim::Simulator &simulator() { return sim_; }
    DhlController &controller() { return *controller_; }
    const DhlConfig &config() const { return cfg_; }

    /**
     * Move @p bytes from the library to the rack endpoint: carts are
     * created preloaded, opened, optionally read, and closed.  Runs the
     * simulation to completion and reports the measured metrics.
     *
     * Serial mode (pipelined = false) reproduces the closed-form
     * BulkMetrics of AnalyticalModel::bulk() exactly.
     */
    BulkRunResult runBulkTransfer(double bytes,
                                  const BulkRunOptions &opts = {});

    /**
     * Turn on component fault injection (idempotent for an identical
     * config; fatal on an attempt to reconfigure).  Creates the
     * FaultState registry and the seeded FaultInjector and attaches
     * them to the controller; call it before the run it should fault.
     */
    void enableFaults(const faults::FaultConfig &cfg);

    /** True once fault injection is active. */
    bool faultsEnabled() const { return injector_ != nullptr; }

    /** The fault registry (nullptr until enableFaults). */
    faults::FaultState *faultState() { return fault_state_.get(); }

    /** The fault injector (nullptr until enableFaults). */
    faults::FaultInjector *faultInjector() { return injector_.get(); }

    /** The system trace (disabled until trace().enable()). */
    sim::TraceRecorder &trace() { return trace_; }

    /** Dump all statistics of every simulated object. */
    void dumpStats(std::ostream &os);

  private:
    DhlConfig cfg_;
    sim::Simulator sim_;
    sim::TraceRecorder trace_;
    std::unique_ptr<faults::FaultState> fault_state_;
    std::unique_ptr<faults::FaultInjector> injector_;
    std::unique_ptr<DhlController> controller_;
};

} // namespace core
} // namespace dhl

#endif // DHL_DHL_SIMULATION_HPP
