/**
 * @file
 * Implementation of the cart entity.
 */

#include "dhl/cart.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace dhl {
namespace core {

std::string
to_string(CartPlace place)
{
    switch (place) {
      case CartPlace::Library:
        return "library";
      case CartPlace::Track:
        return "track";
      case CartPlace::Rack:
        return "rack";
    }
    panic("unreachable cart place");
}

std::string
to_string(CartState state)
{
    switch (state) {
      case CartState::Stored:
        return "stored";
      case CartState::Undocking:
        return "undocking";
      case CartState::InFlight:
        return "in-flight";
      case CartState::Docking:
        return "docking";
      case CartState::Docked:
        return "docked";
      case CartState::Busy:
        return "busy";
    }
    panic("unreachable cart state");
}

Cart::Cart(CartId id, const DhlConfig &cfg,
           storage::ConnectorKind connector, double failure_per_trip)
    : id_(id),
      cfg_(cfg),
      connector_(connector),
      failure_per_trip_(failure_per_trip),
      state_(CartState::Stored),
      place_(CartPlace::Library),
      trips_(0),
      failed_(cfg.ssds_per_cart, false)
{
    if (cfg.ssds_per_cart > 0)
        fatal_if(!(cfg.ssd.capacity > 0.0), "SSD capacity must be positive");
    fatal_if(failure_per_trip < 0.0 || failure_per_trip > 1.0,
             "per-trip failure probability must be in [0, 1]");
}

double
Cart::capacity() const
{
    return cfg_.cartCapacity().value();
}

double
Cart::storedBytes() const
{
    // Summed per SSD in index order, so the total has the same bits as
    // adding up separately kept per-SSD counts.
    double total = 0.0;
    for (std::size_t i = 0; i < failed_.size(); ++i)
        total += ssd_bytes_;
    return total;
}

void
Cart::loadBytes(double bytes)
{
    fatal_if(bytes < 0.0, "load size must be non-negative");
    if (bytes > freeBytes() * (1.0 + 1e-9))
        fatal("load overflows cart " + std::to_string(id_));
    if (failed_.empty())
        return;
    fatal_if(unhealthySsds() != 0, "cannot write a non-healthy SSD");
    const double per = bytes / static_cast<double>(failed_.size());
    if (ssd_bytes_ + per > cfg_.ssd.capacity * (1.0 + 1e-9))
        fatal("write overflows SSD '" + cfg_.ssd.name + "'");
    ssd_bytes_ = std::min(ssd_bytes_ + per, cfg_.ssd.capacity);
}

void
Cart::beginUndock()
{
    if (state_ != CartState::Stored && state_ != CartState::Docked)
        panic("cart " + std::to_string(id_) + " cannot undock from state " +
              to_string(state_));
    state_ = CartState::Undocking;
    matingCycle();
}

void
Cart::launch()
{
    if (state_ != CartState::Undocking)
        panic("cart " + std::to_string(id_) + " launched without undocking");
    state_ = CartState::InFlight;
    place_ = CartPlace::Track;
}

void
Cart::beginDock(CartPlace destination)
{
    if (state_ != CartState::InFlight)
        panic("cart " + std::to_string(id_) + " docking while not in flight");
    panic_if(destination == CartPlace::Track, "cannot dock onto the track");
    state_ = CartState::Docking;
    place_ = destination;
    ++trips_;
}

void
Cart::finishDock()
{
    if (state_ != CartState::Docking)
        panic("cart " + std::to_string(id_) +
              " finishing dock it never began");
    state_ = place_ == CartPlace::Library ? CartState::Stored
                                          : CartState::Docked;
    matingCycle();
}

void
Cart::beginIo()
{
    if (state_ != CartState::Docked)
        panic("cart " + std::to_string(id_) + " cannot serve IO from state " +
              to_string(state_));
    state_ = CartState::Busy;
}

void
Cart::finishIo()
{
    if (state_ != CartState::Busy)
        panic("cart " + std::to_string(id_) + " finished IO it never began");
    state_ = CartState::Docked;
}

std::size_t
Cart::rollTripFailures(Rng &rng)
{
    // A worn connector leaves no SSD healthy, so nothing rolls.
    if (failure_per_trip_ <= 0.0 || connectorWorn())
        return 0;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < failed_.size(); ++i) {
        if (!failed_[i] && rng.uniform() < failure_per_trip_) {
            failed_[i] = true;
            ++failed;
        }
    }
    failed_count_ += failed;
    return failed;
}

void
Cart::repairAll()
{
    // Replacement devices with contents restored from RAID/backup, so
    // stored bytes survive the repair.
    cycles_ = 0;
    failed_.assign(failed_.size(), false);
    failed_count_ = 0;
}

} // namespace core
} // namespace dhl
