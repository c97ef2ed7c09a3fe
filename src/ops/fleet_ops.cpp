/**
 * @file
 * Implementation of the fleet-operations facade.
 */

#include "ops/fleet_ops.hpp"

#include "common/logging.hpp"
#include "common/stats.hpp"

namespace dhl {
namespace ops {

void
validate(const OpsConfig &cfg, std::size_t tracks)
{
    validate(cfg.dispatch);
    validate(cfg.maintenance, tracks);
    if (cfg.domains.enabled)
        validate(cfg.domains);
    validate(cfg.wear);
    fatal_if((cfg.wear.breakdown_gain > 0.0 ||
              cfg.wear.station_gain > 0.0) &&
                 !cfg.faults.enabled,
             "wear coupling scales the fault injector's processes; "
             "enable per-track fault injection to use it");
}

FleetOps::FleetOps(const core::DhlConfig &cfg, std::size_t tracks,
                   const OpsConfig &ops, std::uint64_t seed)
    : ops_(ops), fleet_(cfg, tracks, seed)
{
    validate(ops_, tracks);

    if (ops_.faults.enabled)
        fleet_.enableFaults(ops_.faults);

    const bool needs_states =
        !ops_.maintenance.windows.empty() || ops_.domains.enabled ||
        ops_.dispatch.policy == DispatchPolicy::AvailabilityAware;
    if (needs_states)
        fleet_.ensureFaultStates();

    if (ops_.wear.breakdown_gain > 0.0 || ops_.wear.station_gain > 0.0) {
        const WearCoupling coupling(ops_.wear);
        for (std::size_t t = 0; t < tracks; ++t) {
            coupling.attach(*fleet_.faultInjector(t),
                            fleet_.track(t).library());
        }
    }

    std::vector<faults::FaultState *> states;
    if (needs_states) {
        states.reserve(tracks);
        for (std::size_t t = 0; t < tracks; ++t)
            states.push_back(fleet_.faultState(t));
    }
    if (!ops_.maintenance.windows.empty()) {
        maintenance_ = std::make_unique<MaintenanceScheduler>(
            fleet_.simulator(), states, ops_.maintenance);
    }
    if (ops_.domains.enabled) {
        correlated_ = std::make_unique<CorrelatedFaultModel>(
            fleet_.simulator(), states, ops_.domains);
    }
    dispatcher_ =
        std::make_unique<FleetDispatcher>(fleet_, ops_.dispatch);
}

OpsRunResult
FleetOps::runBulkTransfer(double bytes, const core::BulkRunOptions &opts,
                          const std::vector<core::RequestMeta> &meta)
{
    OpsRunResult r{};
    r.base = dispatcher_->runBulkTransfer(bytes, opts, meta);

    const DispatchMetrics &m = dispatcher_->metrics();
    r.reroutes = m.reroutes;
    r.drains = m.drains;
    r.deferrals = m.deferrals;
    r.offloads = m.offloads;
    r.optical_bytes = m.optical_bytes;
    r.optical_energy = m.optical_energy;
    if (!m.open_latency.empty()) {
        double sum = 0.0;
        for (const double v : m.open_latency)
            sum += v;
        r.open_latency_mean =
            sum / static_cast<double>(m.open_latency.size());
        r.open_latency_p99 = stats::percentile(m.open_latency, 99.0);
    }
    if (maintenance_ != nullptr)
        r.maintenance_windows = maintenance_->windowsStarted();
    if (correlated_ != nullptr)
        r.plant_outages = correlated_->outages();

    const double end = fleet_.simulator().now();
    if (fleet_.faultState(0) != nullptr && end > 0.0) {
        double total = 0.0;
        for (std::size_t t = 0; t < fleet_.numTracks(); ++t)
            total += fleet_.faultState(t)->observedAvailability(end);
        r.fleet_availability =
            total / static_cast<double>(fleet_.numTracks());
    }
    return r;
}

} // namespace ops
} // namespace dhl
