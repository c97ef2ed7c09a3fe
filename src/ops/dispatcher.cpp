/**
 * @file
 * Implementation of the fleet-level dispatcher.
 */

#include "ops/dispatcher.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "common/logging.hpp"
#include "dhl/analytical.hpp"
#include "network/route.hpp"

namespace dhl {
namespace ops {

std::string
to_string(DispatchPolicy policy)
{
    switch (policy) {
      case DispatchPolicy::RoundRobin:
        return "round-robin";
      case DispatchPolicy::LeastQueued:
        return "least-queued";
      case DispatchPolicy::AvailabilityAware:
        return "availability";
      case DispatchPolicy::Te:
        return "te";
    }
    return "?";
}

DispatchPolicy
parseDispatchPolicy(const std::string &name)
{
    if (name == "round-robin")
        return DispatchPolicy::RoundRobin;
    if (name == "least-queued")
        return DispatchPolicy::LeastQueued;
    if (name == "availability")
        return DispatchPolicy::AvailabilityAware;
    if (name == "te")
        return DispatchPolicy::Te;
    fatal("unknown dispatch policy '" + name +
          "' (expected round-robin, least-queued, availability, or te)");
}

void
validate(const DispatchConfig &cfg)
{
    fatal_if(cfg.overcommit == 0,
             "dispatch overcommit must be at least 1 (otherwise an "
             "outage never finds a queued open to re-route)");
    if (cfg.policy == DispatchPolicy::Te) {
        fatal_if(!cfg.te.enabled,
                 "dispatch policy 'te' requires te.enabled");
        te::validate(cfg.te);
    }
}

FleetDispatcher::FleetDispatcher(core::DhlFleet &fleet,
                                 const DispatchConfig &cfg)
    : fleet_(fleet), cfg_(cfg)
{
    validate(cfg_);
    if (cfg_.policy == DispatchPolicy::AvailabilityAware) {
        fatal_if(fleet_.faultState(0) == nullptr,
                 "availability-aware dispatch needs the fleet's fault "
                 "registries (DhlFleet::ensureFaultStates)");
    }
}

std::vector<FleetDispatcher::Job>
FleetDispatcher::makeJobs(double bytes,
                          const std::vector<core::RequestMeta> &meta,
                          std::uint64_t *n_carts) const
{
    const double capacity = fleet_.track(0).config().cartCapacity().value();
    *n_carts = static_cast<std::uint64_t>(std::ceil(bytes / capacity));
    std::vector<Job> jobs;
    jobs.reserve(*n_carts);
    double remaining = bytes;
    for (std::uint64_t i = 0; i < *n_carts; ++i) {
        const double load = std::min(capacity, remaining);
        remaining -= load;
        jobs.push_back(Job{load,
                           i < meta.size() ? meta[i]
                                           : core::RequestMeta{},
                           static_cast<std::size_t>(i)});
    }
    return jobs;
}

core::BulkRunResult
FleetDispatcher::runBulkTransfer(double bytes,
                                 const core::BulkRunOptions &opts,
                                 const std::vector<core::RequestMeta> &meta)
{
    fatal_if(!(bytes > 0.0), "bulk transfer size must be positive");
    if (opts.faults.enabled)
        fleet_.enableFaults(opts.faults);
    metrics_ = DispatchMetrics{};

    std::uint64_t n_carts = 0;
    std::vector<Job> jobs = makeJobs(bytes, meta, &n_carts);
    if (cfg_.policy == DispatchPolicy::RoundRobin)
        return runRoundRobin(bytes, opts, std::move(jobs));
    return runPull(bytes, opts, std::move(jobs));
}

//===========================================================================
// RoundRobin: DhlFleet::runBulkTransfer, event for event
//===========================================================================

core::BulkRunResult
FleetDispatcher::runRoundRobin(double bytes,
                               const core::BulkRunOptions &opts,
                               std::vector<Job> jobs)
{
    // Mirrors DhlFleet::runBulkTransfer exactly — same cart creation
    // order, same serial chains, same step loop — so the policy is
    // byte-identical to the fleet's native path (tested).  The only
    // additions are pure bookkeeping (latency samples).
    sim::Simulator &sim = fleet_.simulator();
    const std::size_t k = fleet_.numTracks();
    const std::uint64_t n_carts = jobs.size();

    std::vector<std::vector<std::pair<core::CartId, std::size_t>>>
        per_track(k);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        auto &ctl = fleet_.track(i % k);
        ctl.setFailureProbability(opts.failure_per_trip);
        per_track[i % k].emplace_back(ctl.addCart(jobs[i].load).id(), i);
    }

    const double start = sim.now();
    const double energy_before = fleet_.totalEnergy();
    const std::uint64_t launches_before = fleet_.launches();
    auto completed = std::make_shared<std::uint64_t>(0);
    auto bytes_read = std::make_shared<double>(0.0);

    std::vector<std::shared_ptr<std::function<void(std::size_t)>>> chains;
    for (std::size_t t = 0; t < k; ++t) {
        if (per_track[t].empty())
            continue;
        auto &ctl = fleet_.track(t);
        auto chain = std::make_shared<std::function<void(std::size_t)>>();
        chains.push_back(chain);
        auto *chain_ptr = chain.get();
        const auto carts = per_track[t];
        *chain = [this, &sim, &ctl, carts, chain = chain_ptr, opts,
                  completed, bytes_read](std::size_t idx) {
            if (idx == carts.size())
                return;
            const core::CartId id = carts[idx].first;
            const core::RequestMeta job_meta = jobs_[carts[idx].second].meta;
            const double issued = sim.now();
            ctl.open(id, job_meta,
                     [this, &sim, &ctl, id, idx, issued, chain, opts,
                      completed, bytes_read](core::Cart &cart,
                                             core::DockingStation &) {
                metrics_.open_latency.push_back(sim.now() - issued);
                auto finish = [completed, chain, idx](core::Cart &) {
                    ++*completed;
                    (*chain)(idx + 1);
                };
                if (opts.include_read_time && cart.storedBytes() > 0.0) {
                    const double to_read = cart.storedBytes();
                    ctl.read(id, to_read,
                             [&ctl, id, bytes_read, finish](double b) {
                                 *bytes_read += b;
                                 ctl.close(id, finish);
                             });
                } else {
                    ctl.close(id, finish);
                }
            });
        };
    }
    // jobs_ backs the chains' meta lookups for the duration of the run.
    jobs_ = std::move(jobs);
    for (auto &chain : chains)
        (*chain)(0);

    while (*completed < n_carts && sim.pendingEvents() > 0)
        sim.step();
    panic_if(*completed != n_carts,
             "fleet transfer finished with carts unaccounted for");

    core::BulkRunResult r{};
    r.total_time = sim.now() - start;
    r.total_energy = fleet_.totalEnergy() - energy_before;
    r.launches = fleet_.launches() - launches_before;
    r.carts = n_carts;
    std::uint64_t failures = 0;
    for (std::size_t t = 0; t < k; ++t)
        failures += fleet_.track(t).ssdFailures();
    r.ssd_failures = failures;
    r.avg_power = r.total_energy / r.total_time;
    r.effective_bandwidth = bytes / r.total_time;
    r.bytes_read = *bytes_read;
    return r;
}

//===========================================================================
// LeastQueued / AvailabilityAware: the pull engine
//===========================================================================

bool
FleetDispatcher::trackUp(std::size_t t) const
{
    const auto *state =
        const_cast<core::DhlFleet &>(fleet_).faultState(t);
    return state == nullptr || state->serviceUp();
}

bool
FleetDispatcher::anyTrackDown() const
{
    for (std::size_t t = 0; t < fleet_.numTracks(); ++t) {
        if (!trackUp(t))
            return true;
    }
    return false;
}

std::size_t
FleetDispatcher::capacity(std::size_t t) const
{
    const std::size_t stations = fleet_.track(t).numStations();
    if (cfg_.policy == DispatchPolicy::AvailabilityAware)
        return stations + cfg_.overcommit;
    return stations;
}

void
FleetDispatcher::installListeners()
{
    if (listeners_installed_ ||
        cfg_.policy != DispatchPolicy::AvailabilityAware)
        return;
    for (std::size_t t = 0; t < fleet_.numTracks(); ++t) {
        auto *state = fleet_.faultState(t);
        state->onOutage([this, t] {
            if (active_)
                drainTrack(t);
        });
        state->onRepair([this] {
            if (active_)
                pump();
        });
    }
    listeners_installed_ = true;
}

void
FleetDispatcher::drainTrack(std::size_t t)
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
    ++metrics_.drains;
    for (const auto &q : drained) {
        auto it = cart_job_[t].find(q.id);
        panic_if(it == cart_job_[t].end(),
                 "drained an open the dispatcher never issued");
        // The cart stays stored in this track's library; the job's
        // payload is re-created wherever the queue sends it next.
        queue_.push_back(it->second);
        cart_job_[t].erase(it);
        --outstanding_[t];
        ++metrics_.reroutes;
    }
    pump();
}

void
FleetDispatcher::setupTe()
{
    te::TeConfig tc = cfg_.te;
    if (tc.dhl_capacity == 0.0) {
        // Aggregate launch bandwidth of the fleet, the same derivation
        // the serving loop uses for its default.
        tc.dhl_capacity =
            static_cast<double>(fleet_.numTracks()) *
            core::AnalyticalModel(fleet_.track(0).config())
                .launch()
                .bandwidth.value();
    }
    sim::Simulator &sim = fleet_.simulator();
    te_ctl_ = std::make_unique<te::TeController>(
        sim, tc, std::vector<te::TenantSpec>{{"bulk", 1.0}});
    te_ctl_->onTick([this] {
        if (active_)
            pump();
    });
    te_flow_ = std::make_unique<network::FlowSim>(sim, "te_optical");
    te_links_ = {te_flow_->addLink(tc.optical_capacity)};
    te_power_ = network::findRoute(tc.route).power().value();
    // Seed the demand estimator with the whole backlog: the first
    // control epoch then sees the true offered load instead of zero.
    for (const Job &job : jobs_)
        te_ctl_->recordUsage(0, job.load);
    te_ctl_->start();
}

void
FleetDispatcher::offload(std::size_t j)
{
    ++metrics_.offloads;
    metrics_.optical_bytes += jobs_[j].load;
    te_flow_->startFlow(te_links_, jobs_[j].load, te_power_,
                        [this](const network::FlowRecord &rec) {
                            metrics_.optical_energy += rec.energy;
                            ++completed_;
                        });
}

void
FleetDispatcher::pump()
{
    // Te pre-pass: everything the controller routes optical leaves the
    // cart queue for the fluid substrate (which has no slot limit), so
    // it never competes in the track-selection loop below.
    if (cfg_.policy == DispatchPolicy::Te) {
        for (std::size_t pos = 0; pos < queue_.size();) {
            const std::size_t j = queue_[pos];
            const te::TeDecision d =
                te_ctl_->decide(0, jobs_[j].load, jobs_[j].meta);
            if (d.substrate == te::Substrate::Optical && d.admit) {
                queue_.erase(queue_.begin() +
                             static_cast<std::ptrdiff_t>(pos));
                offload(j);
            } else {
                ++pos;
            }
        }
    }
    while (!queue_.empty()) {
        const bool degraded =
            cfg_.policy == DispatchPolicy::AvailabilityAware &&
            anyTrackDown();

        // Best admissible job: highest priority, then arrival order.
        std::size_t best_pos = queue_.size();
        for (std::size_t pos = 0; pos < queue_.size(); ++pos) {
            Job &job = jobs_[queue_[pos]];
            if (degraded &&
                job.meta.priority < cfg_.min_priority_degraded) {
                if (!job.deferral_counted) {
                    job.deferral_counted = true;
                    ++metrics_.deferrals;
                }
                continue;
            }
            if (cfg_.policy == DispatchPolicy::Te &&
                !te_ctl_->decide(0, job.load, job.meta).admit) {
                // Held by the controller until a later tick clears the
                // contention (or the horizon passes).
                if (!job.deferral_counted) {
                    job.deferral_counted = true;
                    ++metrics_.deferrals;
                }
                continue;
            }
            if (best_pos == queue_.size() ||
                job.meta.priority >
                    jobs_[queue_[best_pos]].meta.priority ||
                (job.meta.priority ==
                     jobs_[queue_[best_pos]].meta.priority &&
                 job.seq < jobs_[queue_[best_pos]].seq)) {
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
            if (cfg_.policy == DispatchPolicy::AvailabilityAware &&
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
FleetDispatcher::assign(std::size_t t, std::size_t j)
{
    auto &ctl = fleet_.track(t);
    ctl.setFailureProbability(opts_.failure_per_trip);
    const core::CartId id = ctl.addCart(jobs_[j].load).id();
    cart_job_[t][id] = j;
    ++outstanding_[t];
    sim::Simulator &sim = fleet_.simulator();
    const double issued = sim.now();
    ctl.open(id, jobs_[j].meta,
             [this, &sim, &ctl, t, id, issued](core::Cart &cart,
                                               core::DockingStation &) {
        metrics_.open_latency.push_back(sim.now() - issued);
        if (opts_.include_read_time && cart.storedBytes() > 0.0) {
            const double to_read = cart.storedBytes();
            ctl.read(id, to_read, [this, &ctl, t, id](double b) {
                bytes_read_ += b;
                ctl.close(id, [this, t, id](core::Cart &) {
                    finishJob(t, id);
                });
            });
        } else {
            ctl.close(id, [this, t, id](core::Cart &) {
                finishJob(t, id);
            });
        }
    });
}

void
FleetDispatcher::finishJob(std::size_t t, core::CartId id)
{
    auto it = cart_job_[t].find(id);
    panic_if(it == cart_job_[t].end(),
             "finished a job the dispatcher never issued");
    cart_job_[t].erase(it);
    --outstanding_[t];
    ++completed_;
    pump();
}

core::BulkRunResult
FleetDispatcher::runPull(double bytes, const core::BulkRunOptions &opts,
                         std::vector<Job> jobs)
{
    sim::Simulator &sim = fleet_.simulator();
    const std::size_t k = fleet_.numTracks();
    const std::uint64_t n_carts = jobs.size();

    installListeners();
    opts_ = opts;
    jobs_ = std::move(jobs);
    queue_.clear();
    queue_.reserve(jobs_.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j)
        queue_.push_back(j);
    outstanding_.assign(k, 0);
    cart_job_.assign(k, {});
    completed_ = 0;
    bytes_read_ = 0.0;

    if (cfg_.policy == DispatchPolicy::Te)
        setupTe();

    const double start = sim.now();
    const double energy_before = fleet_.totalEnergy();
    const std::uint64_t launches_before = fleet_.launches();

    active_ = true;
    pump();
    while (completed_ < n_carts && sim.pendingEvents() > 0)
        sim.step();
    active_ = false;
    if (te_ctl_)
        te_ctl_->stop(); // cancel the pending control tick, if any
    panic_if(completed_ != n_carts,
             "fleet transfer finished with carts unaccounted for");

    core::BulkRunResult r{};
    r.total_time = sim.now() - start;
    r.total_energy =
        fleet_.totalEnergy() - energy_before + metrics_.optical_energy;
    r.launches = fleet_.launches() - launches_before;
    r.carts = n_carts;
    std::uint64_t failures = 0;
    for (std::size_t t = 0; t < k; ++t)
        failures += fleet_.track(t).ssdFailures();
    r.ssd_failures = failures;
    r.avg_power = r.total_energy / r.total_time;
    r.effective_bandwidth = bytes / r.total_time;
    r.bytes_read = bytes_read_;
    return r;
}

} // namespace ops
} // namespace dhl
