/**
 * @file
 * Implementation of the DHL fleet.
 */

#include "dhl/fleet.hpp"

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

std::vector<const DhlController *>
DhlFleet::tracks() const
{
    std::vector<const DhlController *> out;
    out.reserve(controllers_.size());
    for (const auto &c : controllers_)
        out.push_back(c.get());
    return out;
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

BulkRunResult
DhlFleet::runBulkTransfer(double bytes, const BulkRunOptions &opts,
                          std::vector<double> *open_latency)
{
    fatal_if(opts.pipelined,
             "a fleet runs serial per-track chains; pipelined bulk "
             "transfers need a single-track DhlSimulation");
    const std::size_t k = controllers_.size();
    const std::vector<double> loads = splitIntoCarts(
        bytes, cfg_.cartCapacity().value(), k * cfg_.library_slots);

    // Round-robin cart assignment; each track gets its own serial
    // chain of cart ids, local to that track's library.
    std::vector<std::vector<CartId>> per_track(k);
    for (std::size_t i = 0; i < loads.size(); ++i) {
        auto &ctl = *controllers_[i % k];
        ctl.setFailureProbability(opts.failure_per_trip);
        per_track[i % k].push_back(ctl.addCart(loads[i]).id());
    }

    BulkRunMeter run(sim_, tracks());
    std::function<void(double)> docked;
    if (open_latency != nullptr)
        docked = [open_latency](double l) { open_latency->push_back(l); };

    // Serial chain per track: cart j fully returns before cart j+1
    // departs (the Table VI accounting, per track).
    std::vector<std::function<void(std::size_t)>> chains(k);
    for (std::size_t t = 0; t < k; ++t) {
        chains[t] = [&, t](std::size_t idx) {
            if (idx == per_track[t].size())
                return;
            roundTrip(*controllers_[t], per_track[t][idx],
                      opts.include_read_time,
                      [&, t, idx](double b) {
                          run.stored(b);
                          chains[t](idx + 1);
                      },
                      docked);
        };
        chains[t](0);
    }
    run.stepUntilStored(loads.size());
    return run.result(bytes);
}

} // namespace core
} // namespace dhl
