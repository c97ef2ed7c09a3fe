/**
 * @file
 * Implementation of the cart entity.
 */

#include "dhl/cart.hpp"

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
      state_(CartState::Stored),
      place_(CartPlace::Library),
      trips_(0)
{
    ssds_.reserve(cfg.ssds_per_cart);
    for (std::size_t i = 0; i < cfg.ssds_per_cart; ++i)
        ssds_.emplace_back(cfg.ssd, connector, failure_per_trip);
}

double
Cart::capacity() const
{
    return cfg_.cartCapacity().value();
}

double
Cart::storedBytes() const
{
    double total = 0.0;
    for (const auto &s : ssds_)
        total += s.storedBytes();
    return total;
}

void
Cart::loadBytes(double bytes)
{
    fatal_if(bytes < 0.0, "load size must be non-negative");
    if (bytes > freeBytes() * (1.0 + 1e-9))
        fatal("load overflows cart " + std::to_string(id_));
    const double per = bytes / static_cast<double>(ssds_.size());
    for (auto &s : ssds_)
        (void)s.write(per);
}

void
Cart::unloadBytes(double bytes)
{
    fatal_if(bytes < 0.0, "unload size must be non-negative");
    if (bytes > storedBytes() + 1e-3)
        fatal("unload beyond stored bytes on cart " + std::to_string(id_));
    const double per = bytes / static_cast<double>(ssds_.size());
    for (auto &s : ssds_)
        s.trim(std::min(per, s.storedBytes()));
}

void
Cart::eraseAll()
{
    for (auto &s : ssds_)
        s.eraseAll();
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

void
Cart::matingCycle()
{
    for (auto &s : ssds_)
        s.matingCycle();
}

std::size_t
Cart::rollTripFailures(Rng &rng)
{
    std::size_t failed = 0;
    for (auto &s : ssds_) {
        if (s.rollTripFailure(rng))
            ++failed;
    }
    return failed;
}

std::size_t
Cart::unhealthySsds() const
{
    std::size_t n = 0;
    for (const auto &s : ssds_) {
        if (!s.healthy())
            ++n;
    }
    return n;
}

void
Cart::repairAll()
{
    for (auto &s : ssds_)
        s.repair();
}

} // namespace core
} // namespace dhl
