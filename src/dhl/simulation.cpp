/**
 * @file
 * Implementation of the DHL simulation facade.
 */

#include "dhl/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/logging.hpp"

namespace dhl {
namespace core {

DhlSimulation::DhlSimulation(const DhlConfig &cfg, std::uint64_t seed)
    : cfg_(cfg), trace_(sim_)
{
    validate(cfg_);
    controller_ =
        std::make_unique<DhlController>(sim_, cfg_, "dhl", seed);
    controller_->attachTrace(&trace_);
}

void
DhlSimulation::enableFaults(const faults::FaultConfig &cfg)
{
    fatal_if(!cfg.enabled, "enableFaults: config has enabled = false");
    faults::validate(cfg);
    if (injector_ != nullptr) {
        fatal_if(!(injector_->config() == cfg),
                 "fault injection is already enabled with a different "
                 "config; reconfiguring a live system is not supported");
        return;
    }
    fault_state_ = std::make_unique<faults::FaultState>(sim_);
    fault_state_->attachTrace(&trace_);
    injector_ = std::make_unique<faults::FaultInjector>(
        sim_, *fault_state_, cfg, controller_->numStations(),
        "dhl.faults");
    controller_->attachFaults(fault_state_.get());
}

BulkRunResult
DhlSimulation::runBulkTransfer(double bytes, const BulkRunOptions &opts)
{
    const std::vector<double> loads = splitIntoCarts(
        bytes, cfg_.cartCapacity().value(), cfg_.library_slots);
    controller_->setFailureProbability(opts.failure_per_trip);
    std::vector<CartId> ids;
    ids.reserve(loads.size());
    for (const double load : loads)
        ids.push_back(controller_->addCart(load).id());

    BulkRunMeter meter(sim_, {controller_.get()});
    auto trip = [this, &opts, &meter](CartId id) {
        roundTrip(*controller_, id, opts.include_read_time,
                  [&meter](double b) { meter.stored(b); });
    };
    if (opts.pipelined) {
        // Issue everything; the controller's queue and the track's
        // admission policy shape the pipeline.
        for (const CartId id : ids)
            trip(id);
        meter.stepUntilStored(ids.size());
    } else {
        // Strictly serial: each cart's round trip completes before the
        // next is requested (the paper's Table VI accounting).
        for (std::size_t i = 0; i < ids.size(); ++i) {
            trip(ids[i]);
            meter.stepUntilStored(i + 1);
        }
    }
    return meter.result(bytes);
}

std::vector<double>
splitIntoCarts(double bytes, double capacity, std::size_t max_carts)
{
    fatal_if(!(bytes > 0.0), "bulk transfer size must be positive");
    fatal_if(!std::isfinite(bytes), "bulk transfer size must be finite");
    const double carts = std::ceil(bytes / capacity);
    // Converting a count a size_t cannot hold is undefined behaviour.
    fatal_if(!(carts < 0x1p64), "bulk transfer needs too many carts");
    const auto n_carts = static_cast<std::size_t>(carts);
    // Before the reserve: an absurd size must not ask for the memory.
    fatal_if(n_carts > max_carts,
             "bulk transfer needs more carts than the library has slots; "
             "increase library_slots");
    std::vector<double> loads;
    loads.reserve(n_carts);
    double remaining = bytes;
    for (std::size_t i = 0; i < n_carts; ++i) {
        const double load = std::min(capacity, remaining);
        loads.push_back(load);
        remaining -= load;
    }
    return loads;
}

void
roundTrip(DhlController &ctl, CartId id, bool read,
          std::function<void(double)> stored,
          std::function<void(double)> docked)
{
    const double issued = ctl.now();
    ctl.open(id,
             [&ctl, id, issued, read, stored = std::move(stored),
              docked = std::move(docked)](Cart &cart, DockingStation &) {
        if (docked)
            docked(ctl.now() - issued);
        auto close = [&ctl, id, stored](double bytes) {
            ctl.close(id, [stored, bytes](Cart &) { stored(bytes); });
        };
        if (read && cart.storedBytes() > 0.0)
            ctl.read(id, cart.storedBytes(), close);
        else
            close(0.0);
    });
}

BulkRunMeter::BulkRunMeter(sim::Simulator &sim,
                           std::vector<const DhlController *> controllers)
    : sim_(sim), controllers_(std::move(controllers)), start_(sim.now()),
      before_(totals())
{}

BulkRunMeter::Totals
BulkRunMeter::totals() const
{
    Totals t;
    for (const auto *c : controllers_) {
        t.energy += c->totalEnergy();
        t.launches += c->launches();
        t.ssd_failures += c->ssdFailures();
    }
    return t;
}

void
BulkRunMeter::stepUntilStored(std::uint64_t carts)
{
    while (stored_ < carts && sim_.pendingEvents() > 0)
        sim_.step();
    panic_if(stored_ != carts,
             "bulk transfer finished with carts unaccounted for");
}

BulkRunResult
BulkRunMeter::result(double bytes) const
{
    const Totals after = totals();
    BulkRunResult r{};
    r.total_time = sim_.now() - start_;
    r.total_energy = after.energy - before_.energy;
    r.launches = after.launches - before_.launches;
    r.carts = stored_;
    r.ssd_failures = after.ssd_failures - before_.ssd_failures;
    r.avg_power = r.total_energy / r.total_time;
    r.effective_bandwidth = bytes / r.total_time;
    r.bytes_read = bytes_read_;
    return r;
}

void
DhlSimulation::dumpStats(std::ostream &os)
{
    sim_.statsGroup().dump(os);
    controller_->statsGroup().dump(os);
    controller_->library().statsGroup().dump(os);
    controller_->track().statsGroup().dump(os);
    for (std::size_t i = 0; i < controller_->numStations(); ++i)
        controller_->station(i).statsGroup().dump(os);
}

} // namespace core
} // namespace dhl
