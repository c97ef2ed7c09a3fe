/**
 * @file
 * The batch fleet engine: one object wiring maintenance windows,
 * common-cause failures, wear coupling, and policy-driven dispatch
 * around a DhlFleet (DESIGN.md §10).
 *
 * Layering: ops sits *between* the fleet and the per-track fault
 * machinery.  It only drives the FaultState gates (launch inhibits) and
 * the FaultInjector scale hooks — controllers, tracks, and stations are
 * untouched and degrade through the exact machinery DESIGN.md §8
 * describes.  The RoundRobin policy *is* DhlFleet::runBulkTransfer, so
 * with everything else disabled (no windows, no domains, zero wear
 * gains) a FleetOps run is event-identical to the bare fleet (tested).
 * LeastQueued and AvailabilityAware run the pull engine below: tracks
 * take jobs from one fleet-level queue as they free up, and (for
 * AvailabilityAware) outages drain queued opens off a blocked track and
 * re-route the jobs.  Work is re-routed at the *job* level: carts are
 * track-local, so a drained QueuedOpen's cart stays in its library and
 * the job's payload is re-created on the receiving track.
 */

#ifndef DHL_OPS_FLEET_OPS_HPP
#define DHL_OPS_FLEET_OPS_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dhl/fleet.hpp"
#include "ops/correlated.hpp"
#include "ops/dispatcher.hpp"
#include "ops/maintenance.hpp"
#include "ops/wear.hpp"

namespace dhl {
namespace ops {

/** Everything the ops layer can run on a fleet. */
struct OpsConfig
{
    DispatchConfig dispatch{};

    /** Planned windows (empty = none). */
    MaintenanceConfig maintenance{};

    /** Shared-plant common-cause outages (enabled = false = none). */
    SharedDomainConfig domains{};

    /** Wear coupling gains (0 = none; requires faults.enabled). */
    WearCouplingConfig wear{};

    /** Independent per-track fault injection (enabled = false =
     *  none); forwarded to DhlFleet::enableFaults. */
    faults::FaultConfig faults{};

};

/** Per-job metadata the pull engine's dispatcher reads. */
struct RequestMeta
{
    /** Larger is more urgent: dispatched first, and kept under the
     *  AvailabilityAware degraded-mode floor. */
    int priority = 0;
};

/** Validate against a fleet of @p tracks tracks; fatal() on nonsense. */
void validate(const OpsConfig &cfg, std::size_t tracks);

/** Result of one ops-layer bulk transfer. */
struct OpsRunResult
{
    /** The fleet-level transfer metrics (same semantics as
     *  DhlFleet::runBulkTransfer). */
    core::BulkRunResult base{};

    std::uint64_t reroutes = 0;  ///< jobs re-routed off blocked tracks
    std::uint64_t drains = 0;    ///< outage drains that moved work
    std::uint64_t deferrals = 0; ///< jobs deferred by admission control
    std::uint64_t maintenance_windows = 0; ///< occurrences opened
    std::uint64_t plant_outages = 0;       ///< common-cause outages

    double open_latency_mean = 0.0; ///< s, issue -> docked
    double open_latency_p99 = 0.0;  ///< s

    /** Mean per-track observed service availability over the run
     *  (1.0 when no fault registries are attached). */
    double fleet_availability = 1.0;
};

/** The batch fleet engine. */
class FleetOps
{
  public:
    /**
     * Build a fleet plus its operations layer.
     *
     * @param cfg    Per-track DHL configuration.
     * @param tracks Parallel tracks (>= 1).
     * @param ops    Operations configuration.
     * @param seed   Fleet seed base (see DhlFleet).
     */
    FleetOps(const core::DhlConfig &cfg, std::size_t tracks,
             const OpsConfig &ops, std::uint64_t seed = 1);

    core::DhlFleet &fleet() { return fleet_; }
    const OpsConfig &config() const { return ops_; }

    /** The maintenance process (nullptr when no windows configured). */
    MaintenanceScheduler *maintenance() { return maintenance_.get(); }

    /** The common-cause model (nullptr when domains are disabled). */
    CorrelatedFaultModel *correlated() { return correlated_.get(); }

    /**
     * Move @p bytes through the fleet under the configured policy with
     * every configured ops process running, and report the combined
     * transfer + operations metrics.  @p meta optionally assigns
     * per-job metadata to the pull engine (indexed by job = cart;
     * missing entries default; RoundRobin dispatches in job order and
     * reads none).  Semantics otherwise match
     * DhlFleet::runBulkTransfer, which rejects opts.pipelined.
     */
    OpsRunResult
    runBulkTransfer(double bytes, const core::BulkRunOptions &opts = {},
                    const std::vector<RequestMeta> &meta = {});

  private:
    struct Job
    {
        double load;
        RequestMeta meta;
        bool deferral_counted = false;
    };

    core::BulkRunResult runPull(double bytes,
                                const core::BulkRunOptions &opts,
                                const std::vector<RequestMeta> &meta);
    void installListeners();
    bool trackUp(std::size_t t);
    bool anyTrackDown();
    std::size_t capacity(std::size_t t);
    void pump();
    void assign(std::size_t t, std::size_t j);
    void finishJob(std::size_t t, core::CartId id, double bytes_read);
    void drainTrack(std::size_t t);

    OpsConfig ops_;
    core::DhlFleet fleet_;
    std::unique_ptr<MaintenanceScheduler> maintenance_;
    std::unique_ptr<CorrelatedFaultModel> correlated_;

    /** The run in progress: its dispatch counters are written here. */
    OpsRunResult run_{};
    std::vector<double> open_latency_; ///< per open, issue -> docked, s

    // Pull-engine state, valid during a runPull (meter_ is set only
    // while one runs).
    std::optional<core::BulkRunMeter> meter_;
    bool listeners_installed_ = false;
    core::BulkRunOptions opts_{};
    std::vector<Job> jobs_;
    std::vector<std::size_t> queue_; ///< pending job indices
    std::vector<std::size_t> outstanding_;
    std::vector<std::unordered_map<core::CartId, std::size_t>> cart_job_;
};

} // namespace ops
} // namespace dhl

#endif // DHL_OPS_FLEET_OPS_HPP
