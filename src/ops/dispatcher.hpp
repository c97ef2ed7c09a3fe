/**
 * @file
 * The fleet dispatch vocabulary shared by the batch fleet engine
 * (ops::FleetOps) and the serving loop (serve::ServingSim):
 *
 *  - RoundRobin:        static pre-assignment + serial per-track
 *                       chains — DhlFleet::runBulkTransfer itself, so
 *                       it is both the backwards-compatible default and
 *                       the E18 baseline.
 *  - LeastQueued:       tracks pull jobs from one fleet-level queue as
 *                       they free up, so a slow track automatically
 *                       takes less work.
 *  - AvailabilityAware: LeastQueued plus (a) down tracks (fault,
 *                       maintenance window, plant outage) are not
 *                       offered work, (b) queued opens are drained off
 *                       a track the moment its launches block and the
 *                       jobs re-routed fleet-wide, and (c) while the
 *                       fleet is degraded, jobs below a priority floor
 *                       are deferred (admission control on
 *                       ops::RequestMeta::priority).
 *
 * Traffic engineering is not a dispatch policy: the serving loop runs
 * it through serve::ServeConfig::te.
 */

#ifndef DHL_OPS_DISPATCHER_HPP
#define DHL_OPS_DISPATCHER_HPP

#include <cstddef>
#include <string>

namespace dhl {
namespace ops {

/** Fleet-level dispatch policy. */
enum class DispatchPolicy
{
    RoundRobin,       ///< Static pre-assignment (today's behaviour).
    LeastQueued,      ///< Dynamic pull from one fleet-level queue.
    AvailabilityAware ///< Pull + outage re-routing + admission control.
};

std::string to_string(DispatchPolicy policy);

/** Parse "round-robin" / "least-queued" / "availability"; fatal() on
 *  anything else. */
DispatchPolicy parseDispatchPolicy(const std::string &name);

/** Dispatch parameters. */
struct DispatchConfig
{
    DispatchPolicy policy = DispatchPolicy::RoundRobin;

    /** AvailabilityAware admission floor: while any track is down,
     *  only jobs with meta.priority >= this are dispatched. */
    int min_priority_degraded = 0;

    /** AvailabilityAware in-flight jobs per track beyond its docking
     *  stations; the excess queues in the track's controller (and is
     *  what an outage drains off it). */
    std::size_t overcommit = 1;
};

/** Validate; fatal() on nonsense. */
void validate(const DispatchConfig &cfg);

} // namespace ops
} // namespace dhl

#endif // DHL_OPS_DISPATCHER_HPP
