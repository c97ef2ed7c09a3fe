/**
 * @file
 * Implementation of the batch fleet engine.
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
}

OpsRunResult
FleetOps::runBulkTransfer(double bytes, const core::BulkRunOptions &opts,
                          const std::vector<RequestMeta> &meta)
{
    fatal_if(opts.pipelined,
             "a fleet runs serial per-track chains; pipelined bulk "
             "transfers need a single-track DhlSimulation");
    run_ = OpsRunResult{};
    open_latency_.clear();
    if (ops_.dispatch.policy == DispatchPolicy::RoundRobin)
        run_.base = fleet_.runBulkTransfer(bytes, opts, &open_latency_);
    else
        run_.base = runPull(bytes, opts, meta);

    if (!open_latency_.empty()) {
        double sum = 0.0;
        for (const double v : open_latency_)
            sum += v;
        run_.open_latency_mean =
            sum / static_cast<double>(open_latency_.size());
        run_.open_latency_p99 = stats::percentile(open_latency_, 99.0);
    }
    if (maintenance_ != nullptr)
        run_.maintenance_windows = maintenance_->windowsStarted();
    if (correlated_ != nullptr)
        run_.plant_outages = correlated_->outages();

    const double end = fleet_.simulator().now();
    if (fleet_.faultState(0) != nullptr && end > 0.0) {
        double total = 0.0;
        for (std::size_t t = 0; t < fleet_.numTracks(); ++t)
            total += fleet_.faultState(t)->observedAvailability(end);
        run_.fleet_availability =
            total / static_cast<double>(fleet_.numTracks());
    }
    return run_;
}

//===========================================================================
// LeastQueued / AvailabilityAware: the pull engine
//===========================================================================

bool
FleetOps::trackUp(std::size_t t)
{
    const auto *state = fleet_.faultState(t);
    return state == nullptr || state->serviceUp();
}

bool
FleetOps::anyTrackDown()
{
    for (std::size_t t = 0; t < fleet_.numTracks(); ++t) {
        if (!trackUp(t))
            return true;
    }
    return false;
}

std::size_t
FleetOps::capacity(std::size_t t)
{
    const std::size_t stations = fleet_.track(t).numStations();
    if (ops_.dispatch.policy == DispatchPolicy::AvailabilityAware)
        return stations + ops_.dispatch.overcommit;
    return stations;
}

void
FleetOps::installListeners()
{
    if (listeners_installed_ ||
        ops_.dispatch.policy != DispatchPolicy::AvailabilityAware)
        return;
    for (std::size_t t = 0; t < fleet_.numTracks(); ++t) {
        auto *state = fleet_.faultState(t);
        state->onOutage([this, t] {
            if (meter_)
                drainTrack(t);
        });
        state->onRepair([this] {
            if (meter_)
                pump();
        });
    }
    listeners_installed_ = true;
}

void
FleetOps::drainTrack(std::size_t t)
{
    // Station-only failures leave launches OK; the controller re-routes
    // its own queue to surviving stations.  Only a blocked launch path
    // strands queued work.
    if (fleet_.faultState(t)->launchOk())
        return;
    std::vector<core::QueuedOpen> drained =
        fleet_.track(t).drainQueuedOpens();
    if (drained.empty())
        return;
    ++run_.drains;
    for (const auto &q : drained) {
        auto it = cart_job_[t].find(q.id);
        panic_if(it == cart_job_[t].end(),
                 "drained an open the dispatcher never issued");
        // The cart stays stored in this track's library; the job's
        // payload is re-created wherever the queue sends it next.
        queue_.push_back(it->second);
        cart_job_[t].erase(it);
        --outstanding_[t];
        ++run_.reroutes;
    }
    pump();
}

void
FleetOps::pump()
{
    while (!queue_.empty()) {
        const bool degraded =
            ops_.dispatch.policy == DispatchPolicy::AvailabilityAware &&
            anyTrackDown();

        // Best admissible job: highest priority, then arrival order
        // (the job index).
        std::size_t best_pos = queue_.size();
        for (std::size_t pos = 0; pos < queue_.size(); ++pos) {
            Job &job = jobs_[queue_[pos]];
            if (degraded &&
                job.meta.priority < ops_.dispatch.min_priority_degraded) {
                if (!job.deferral_counted) {
                    job.deferral_counted = true;
                    ++run_.deferrals;
                }
                continue;
            }
            if (best_pos == queue_.size() ||
                job.meta.priority >
                    jobs_[queue_[best_pos]].meta.priority ||
                (job.meta.priority ==
                     jobs_[queue_[best_pos]].meta.priority &&
                 queue_[pos] < queue_[best_pos])) {
                best_pos = pos;
            }
        }
        if (best_pos == queue_.size())
            return; // everything queued is deferred

        // Least-loaded eligible track, lowest index on ties.
        std::size_t best_track = fleet_.numTracks();
        for (std::size_t t = 0; t < fleet_.numTracks(); ++t) {
            if (outstanding_[t] >= capacity(t))
                continue;
            if (ops_.dispatch.policy == DispatchPolicy::AvailabilityAware &&
                !trackUp(t))
                continue;
            if (best_track == fleet_.numTracks() ||
                outstanding_[t] < outstanding_[best_track])
                best_track = t;
        }
        if (best_track == fleet_.numTracks())
            return; // no track can take work right now

        const std::size_t j = queue_[best_pos];
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(best_pos));
        assign(best_track, j);
    }
}

void
FleetOps::assign(std::size_t t, std::size_t j)
{
    auto &ctl = fleet_.track(t);
    ctl.setFailureProbability(opts_.failure_per_trip);
    const core::CartId id = ctl.addCart(jobs_[j].load).id();
    cart_job_[t][id] = j;
    ++outstanding_[t];
    core::roundTrip(ctl, id, opts_.include_read_time,
                    [this, t, id](double b) { finishJob(t, id, b); },
                    [this](double l) { open_latency_.push_back(l); });
}

void
FleetOps::finishJob(std::size_t t, core::CartId id, double bytes_read)
{
    auto it = cart_job_[t].find(id);
    panic_if(it == cart_job_[t].end(),
             "finished a job the dispatcher never issued");
    cart_job_[t].erase(it);
    --outstanding_[t];
    meter_->stored(bytes_read);
    pump();
}

core::BulkRunResult
FleetOps::runPull(double bytes, const core::BulkRunOptions &opts,
                  const std::vector<RequestMeta> &meta)
{
    const core::DhlConfig &cfg = fleet_.track(0).config();
    const std::vector<double> loads = core::splitIntoCarts(
        bytes, cfg.cartCapacity().value(),
        fleet_.numTracks() * cfg.library_slots);
    jobs_.clear();
    jobs_.reserve(loads.size());
    queue_.clear();
    queue_.reserve(loads.size());
    for (std::size_t j = 0; j < loads.size(); ++j) {
        jobs_.push_back(
            Job{loads[j], j < meta.size() ? meta[j] : RequestMeta{}});
        queue_.push_back(j);
    }

    installListeners();
    opts_ = opts;
    outstanding_.assign(fleet_.numTracks(), 0);
    cart_job_.assign(fleet_.numTracks(), {});

    meter_.emplace(fleet_.simulator(), fleet_.tracks());
    pump();
    meter_->stepUntilStored(jobs_.size());
    const core::BulkRunResult r = meter_->result(bytes);
    meter_.reset();
    return r;
}

} // namespace ops
} // namespace dhl
