/**
 * @file
 * The fleet-operations facade: one object wiring maintenance windows,
 * common-cause failures, wear coupling, and policy-driven dispatch
 * around a DhlFleet (DESIGN.md §10).
 *
 * Layering: ops sits *between* the fleet and the per-track fault
 * machinery.  It only drives the FaultState gates (launch inhibits) and
 * the FaultInjector scale hooks — controllers, tracks, and stations are
 * untouched and degrade through the exact machinery DESIGN.md §8
 * describes.  With everything disabled (RoundRobin policy, no windows,
 * no domains, zero wear gains) a FleetOps run is event-identical to
 * DhlFleet::runBulkTransfer (tested).
 */

#ifndef DHL_OPS_FLEET_OPS_HPP
#define DHL_OPS_FLEET_OPS_HPP

#include <cstdint>
#include <memory>
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

    std::uint64_t offloads = 0;   ///< Te: jobs routed optical
    double optical_bytes = 0.0;   ///< Te: bytes moved optically
    double optical_energy = 0.0;  ///< Te: optical substrate energy, J

    double open_latency_mean = 0.0; ///< s, issue -> docked
    double open_latency_p99 = 0.0;  ///< s

    /** Mean per-track observed service availability over the run
     *  (1.0 when no fault registries are attached). */
    double fleet_availability = 1.0;
};

/** The facade. */
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
    FleetDispatcher &dispatcher() { return *dispatcher_; }

    /** The maintenance process (nullptr when no windows configured). */
    MaintenanceScheduler *maintenance() { return maintenance_.get(); }

    /** The common-cause model (nullptr when domains are disabled). */
    CorrelatedFaultModel *correlated() { return correlated_.get(); }

    /**
     * Move @p bytes through the fleet under the configured policy with
     * every configured ops process running, and report the combined
     * transfer + operations metrics.  @p meta optionally assigns
     * per-job scheduling metadata (see FleetDispatcher).
     */
    OpsRunResult
    runBulkTransfer(double bytes, const core::BulkRunOptions &opts = {},
                    const std::vector<core::RequestMeta> &meta = {});

  private:
    OpsConfig ops_;
    core::DhlFleet fleet_;
    std::unique_ptr<FleetDispatcher> dispatcher_;
    std::unique_ptr<MaintenanceScheduler> maintenance_;
    std::unique_ptr<CorrelatedFaultModel> correlated_;
};

} // namespace ops
} // namespace dhl

#endif // DHL_OPS_FLEET_OPS_HPP
