/**
 * @file
 * A fleet of parallel DHL tracks (paper §IV-E / Figure 6: "the time
 * taken to transfer data over a DHL can be reduced by operating
 * multiple DHL tracks in parallel").
 *
 * The fleet owns K identical, independent DHL systems (each with its
 * own library, tube and docking stations) sharing one simulation
 * clock; bulk transfers split their carts round-robin across the
 * tracks and the fleet finishes when the slowest track does.  The
 * event-driven result must agree with the quantised closed form used
 * by mlsim's DhlComm (ceil(trips/K) round trips per track) — tested.
 */

#ifndef DHL_DHL_FLEET_HPP
#define DHL_DHL_FLEET_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "dhl/config.hpp"
#include "dhl/controller.hpp"
#include "dhl/simulation.hpp"
#include "sim/simulator.hpp"

namespace dhl {
namespace core {

/** The fleet. */
class DhlFleet
{
  public:
    /**
     * @param cfg     Per-track configuration.
     * @param tracks  Parallel tracks (>= 1).
     * @param seed    RNG seed base (track i uses deriveSeed(seed, i),
     *                the same derivation enableFaults applies to the
     *                per-track fault streams).
     */
    DhlFleet(const DhlConfig &cfg, std::size_t tracks,
             std::uint64_t seed = 1);

    std::size_t numTracks() const { return controllers_.size(); }

    /** The one event loop every track runs on. */
    sim::Simulator &simulator() { return sim_; }

    DhlController &track(std::size_t i);

    /** Every track's controller, in track order. */
    std::vector<const DhlController *> tracks() const;

    /**
     * Move @p bytes using every track: carts are split round-robin and
     * each track runs its share as serial round trips (open, optional
     * read, close).  The loop steps until the last cart returns, so a
     * background process (fault injectors, maintenance windows, plant
     * outages) left pending stays queued.  Returns the fleet-level
     * metrics; `total_time` is the slowest track's completion.
     *
     * @param open_latency  If non-null, receives each open's issue ->
     *                      docked latency, s, in completion order.
     *
     * The tracks run serial chains, so opts.pipelined is rejected.
     */
    BulkRunResult runBulkTransfer(double bytes,
                                  const BulkRunOptions &opts = {},
                                  std::vector<double> *open_latency =
                                      nullptr);

    /**
     * Turn on per-track fault injection: every track gets its own
     * FaultState + FaultInjector, with track i's streams derived as
     * deriveSeed(cfg.seed, i) so the tracks fail independently but
     * deterministically.  Idempotent for an identical config; call it
     * before the run it should fault.
     */
    void enableFaults(const faults::FaultConfig &cfg);

    /** True once fault injection is active. */
    bool faultsEnabled() const { return !injectors_.empty(); }

    /**
     * Create and attach a FaultState per track *without* injectors —
     * every component stays up, so behaviour is identical to a
     * fault-free fleet until something drives the registries.  The ops
     * layer uses this to run maintenance windows and common-cause
     * outages on a fleet with no independent fault injection.
     * Idempotent; enableFaults implies it.
     */
    void ensureFaultStates();

    /** Track @p i's fault registry (nullptr until enableFaults or
     *  ensureFaultStates). */
    faults::FaultState *faultState(std::size_t i);

    /** Track @p i's fault injector (nullptr until enableFaults). */
    faults::FaultInjector *faultInjector(std::size_t i);

  private:
    sim::Simulator sim_;
    DhlConfig cfg_;
    std::vector<std::unique_ptr<faults::FaultState>> fault_states_;
    std::vector<std::unique_ptr<faults::FaultInjector>> injectors_;
    std::vector<std::unique_ptr<DhlController>> controllers_;
};

} // namespace core
} // namespace dhl

#endif // DHL_DHL_FLEET_HPP
