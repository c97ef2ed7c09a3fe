/**
 * @file
 * Implementation of the DHL fleet.
 */

#include "dhl/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>

#include "common/logging.hpp"

namespace dhl {
namespace core {

DhlFleet::DhlFleet(const DhlConfig &cfg, std::size_t tracks,
                   std::uint64_t seed)
    : cfg_(cfg)
{
    fatal_if(tracks == 0, "a fleet needs at least one track");
    validate(cfg_);
    controllers_.reserve(tracks);
    for (std::size_t i = 0; i < tracks; ++i) {
        // Same splitmix64 derivation as the per-track fault streams
        // (enableFaults): adjacent raw seeds are strongly correlated
        // under xoshiro, deriveSeed decorrelates them.
        controllers_.push_back(std::make_unique<DhlController>(
            sim_, cfg_, "dhl" + std::to_string(i), deriveSeed(seed, i)));
    }
}

DhlController &
DhlFleet::track(std::size_t i)
{
    fatal_if(i >= controllers_.size(), "track index out of range");
    return *controllers_[i];
}

void
DhlFleet::enableFaults(const faults::FaultConfig &cfg)
{
    fatal_if(!cfg.enabled, "enableFaults: config has enabled = false");
    faults::validate(cfg);
    if (!injectors_.empty()) {
        // Track 0 holds the config with seed deriveSeed(cfg.seed, 0);
        // compare against the same derivation of the requested config.
        faults::FaultConfig base = cfg;
        base.seed = deriveSeed(cfg.seed, 0);
        fatal_if(!(injectors_[0]->config() == base),
                 "fault injection is already enabled with a different "
                 "config; reconfiguring a live fleet is not supported");
        return;
    }
    ensureFaultStates();
    injectors_.reserve(controllers_.size());
    for (std::size_t i = 0; i < controllers_.size(); ++i) {
        auto &ctl = *controllers_[i];
        faults::FaultConfig track_cfg = cfg;
        track_cfg.seed = deriveSeed(cfg.seed, i);
        injectors_.push_back(std::make_unique<faults::FaultInjector>(
            sim_, *fault_states_[i], track_cfg, ctl.numStations(),
            ctl.name() + ".faults"));
    }
}

void
DhlFleet::ensureFaultStates()
{
    if (!fault_states_.empty())
        return;
    fault_states_.reserve(controllers_.size());
    for (std::size_t i = 0; i < controllers_.size(); ++i) {
        fault_states_.push_back(
            std::make_unique<faults::FaultState>(sim_));
        controllers_[i]->attachFaults(fault_states_.back().get());
    }
}

faults::FaultState *
DhlFleet::faultState(std::size_t i)
{
    fatal_if(i >= controllers_.size(), "track index out of range");
    return fault_states_.empty() ? nullptr : fault_states_[i].get();
}

faults::FaultInjector *
DhlFleet::faultInjector(std::size_t i)
{
    fatal_if(i >= controllers_.size(), "track index out of range");
    return injectors_.empty() ? nullptr : injectors_[i].get();
}

double
DhlFleet::totalEnergy() const
{
    double total = 0.0;
    for (const auto &c : controllers_)
        total += c->totalEnergy();
    return total;
}

std::uint64_t
DhlFleet::launches() const
{
    std::uint64_t total = 0;
    for (const auto &c : controllers_)
        total += c->launches();
    return total;
}

BulkRunResult
DhlFleet::runBulkTransfer(double bytes, const BulkRunOptions &opts,
                          const std::vector<RequestMeta> &meta,
                          std::vector<double> *open_latency)
{
    fatal_if(!(bytes > 0.0), "bulk transfer size must be positive");
    fatal_if(opts.pipelined,
             "a fleet runs serial per-track chains; pipelined bulk "
             "transfers need a single-track DhlSimulation");
    if (opts.faults.enabled)
        enableFaults(opts.faults);

    const double capacity = cfg_.cartCapacity().value();
    const auto n_carts =
        static_cast<std::uint64_t>(std::ceil(bytes / capacity));
    const std::size_t k = controllers_.size();

    // Round-robin cart assignment; each track gets its own serial
    // chain of (cart id, job meta), cart ids local to that track's
    // library.
    std::vector<std::vector<std::pair<CartId, RequestMeta>>> per_track(k);
    double remaining = bytes;
    for (std::uint64_t i = 0; i < n_carts; ++i) {
        const double load = std::min(capacity, remaining);
        remaining -= load;
        auto &ctl = *controllers_[i % k];
        ctl.setFailureProbability(opts.failure_per_trip);
        per_track[i % k].emplace_back(
            ctl.addCart(load).id(),
            i < meta.size() ? meta[i] : RequestMeta{});
    }

    sim::Simulator &sim = simulator();
    const double start = sim.now();
    const double energy_before = totalEnergy();
    const std::uint64_t launches_before = launches();
    auto completed = std::make_shared<std::uint64_t>(0);
    auto bytes_read = std::make_shared<double>(0.0);

    // Serial chain per track: cart j fully returns before cart j+1
    // departs (the Table VI accounting, per track).  The chain
    // closures live in `chains` (not inside themselves) so no
    // shared_ptr cycle outlives the run.
    std::vector<std::shared_ptr<std::function<void(std::size_t)>>> chains;
    for (std::size_t t = 0; t < k; ++t) {
        if (per_track[t].empty())
            continue;
        auto &ctl = *controllers_[t];
        auto chain = std::make_shared<std::function<void(std::size_t)>>();
        chains.push_back(chain);
        auto *chain_ptr = chain.get();
        *chain = [&sim, &ctl, carts = std::move(per_track[t]),
                  chain = chain_ptr, opts, open_latency, completed,
                  bytes_read](std::size_t idx) {
            if (idx == carts.size())
                return;
            const CartId id = carts[idx].first;
            const double issued = sim.now();
            ctl.open(id, carts[idx].second,
                     [&sim, &ctl, id, idx, issued, chain, opts,
                      open_latency, completed,
                      bytes_read](Cart &cart, DockingStation &) {
                if (open_latency != nullptr)
                    open_latency->push_back(sim.now() - issued);
                auto finish = [completed, chain, idx](Cart &) {
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
        (*chain)(0);
    }
    while (*completed < n_carts && sim.pendingEvents() > 0)
        sim.step();
    panic_if(*completed != n_carts,
             "fleet transfer finished with carts unaccounted for");

    BulkRunResult r{};
    r.total_time = sim.now() - start;
    r.total_energy = totalEnergy() - energy_before;
    r.launches = launches() - launches_before;
    r.carts = n_carts;
    std::uint64_t failures = 0;
    for (const auto &c : controllers_)
        failures += c->ssdFailures();
    r.ssd_failures = failures;
    r.avg_power = r.total_energy / r.total_time;
    r.effective_bandwidth = bytes / r.total_time;
    r.bytes_read = *bytes_read;
    return r;
}

} // namespace core
} // namespace dhl
