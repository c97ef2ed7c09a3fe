/**
 * @file
 * Implementation of the fault registry.
 */

#include "faults/fault_state.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/units.hpp"

namespace dhl {
namespace faults {

std::string
to_string(Component kind)
{
    switch (kind) {
      case Component::Lim:
        return "lim";
      case Component::Track:
        return "track";
      case Component::Station:
        return "station";
      case Component::Cart:
        return "cart";
    }
    return "?";
}

bool
operator==(const RetryPolicy &a, const RetryPolicy &b)
{
    return a.initial_backoff == b.initial_backoff &&
           a.multiplier == b.multiplier &&
           a.max_backoff == b.max_backoff;
}

double
nextBackoff(const RetryPolicy &policy, double previous)
{
    if (previous <= 0.0)
        return policy.initial_backoff;
    return std::min(previous * policy.multiplier, policy.max_backoff);
}

FaultState::FaultState(sim::Simulator &sim) : sim_(sim) {}

FaultState::KindState &
FaultState::kindState(Component kind)
{
    switch (kind) {
      case Component::Lim:
        return lims_;
      case Component::Track:
        return track_;
      case Component::Station:
        return stations_;
      case Component::Cart:
        break;
    }
    fatal("carts rotate through the repair shop (sendCartToRepair); "
          "they have no up/down registry entry");
}

const FaultState::KindState &
FaultState::kindState(Component kind) const
{
    return const_cast<FaultState *>(this)->kindState(kind);
}

void
FaultState::addComponent(Component kind, std::uint32_t index)
{
    KindState &ks = kindState(kind);
    fatal_if(index != ks.down.size(),
             "components must be registered densely from index 0");
    ks.down.push_back(false);
}

std::size_t
FaultState::components(Component kind) const
{
    if (kind == Component::Cart)
        return cart_repair_end_.size();
    return kindState(kind).down.size();
}

void
FaultState::trace(Component kind, std::uint32_t index,
                  const std::string &what)
{
    if (trace_ != nullptr && trace_->enabled()) {
        trace_->record("fault",
                       to_string(kind) + std::to_string(index), what);
    }
}

void
FaultState::noteServiceEdge()
{
    const bool now_up = serviceUp();
    if (now_up == service_up_)
        return;
    service_up_ = now_up;
    transitions_.emplace_back(sim_.now(), now_up);
}

void
FaultState::fail(Component kind, std::uint32_t index)
{
    KindState &ks = kindState(kind);
    fatal_if(index >= ks.down.size(), "failing an unregistered component");
    panic_if(ks.down[index], "component failed while already down");
    ks.down[index] = true;
    ++ks.down_count;
    ++ks.failures;
    trace(kind, index,
          serviceUp() ? "failed" : "failed (service down)");
    noteServiceEdge();
    notifyOutage();
}

void
FaultState::pushLaunchInhibit(const std::string &reason)
{
    ++launch_inhibits_;
    traceOps("launches inhibited: " + reason);
    noteServiceEdge();
    notifyOutage();
}

void
FaultState::popLaunchInhibit(const std::string &reason)
{
    fatal_if(launch_inhibits_ == 0,
             "popLaunchInhibit without a matching push");
    --launch_inhibits_;
    traceOps("launch inhibit released: " + reason);
    noteServiceEdge();
    notifyRepair();
}

void
FaultState::repair(Component kind, std::uint32_t index)
{
    KindState &ks = kindState(kind);
    fatal_if(index >= ks.down.size(),
             "repairing an unregistered component");
    panic_if(!ks.down[index], "component repaired while already up");
    ks.down[index] = false;
    --ks.down_count;
    ++ks.repairs;
    trace(kind, index,
          serviceUp() ? "repaired (service up)" : "repaired");
    noteServiceEdge();
    notifyRepair();
}

void
FaultState::notifyRepair()
{
    for (auto &listener : listeners_)
        listener();
}

void
FaultState::notifyOutage()
{
    for (auto &listener : outage_listeners_)
        listener();
}

void
FaultState::traceOps(const std::string &what)
{
    if (trace_ != nullptr && trace_->enabled())
        trace_->record("fault", "ops", what);
}

void
FaultState::sendCartToRepair(std::uint32_t cart, double repair_time)
{
    fatal_if(repair_time < 0.0, "cart repair time must be non-negative");
    const double end = sim_.now() + repair_time;
    auto [it, inserted] = cart_repair_end_.try_emplace(cart, end);
    if (!inserted) {
        panic_if(it->second > sim_.now(),
                 "cart sent to repair while already in the shop");
        it->second = end;
    }
    ++cart_repairs_;
    trace(Component::Cart, cart,
          "entered repair until " + units::formatSig(end, 6) + " s");
}

void
FaultState::setRetryPolicy(const RetryPolicy &policy)
{
    fatal_if(!(policy.initial_backoff > 0.0),
             "retry backoff must be positive");
    fatal_if(policy.multiplier < 1.0,
             "retry backoff multiplier must be >= 1");
    fatal_if(policy.max_backoff < policy.initial_backoff,
             "retry backoff ceiling must be >= the initial backoff");
    retry_ = policy;
}

bool
FaultState::up(Component kind, std::uint32_t index) const
{
    if (kind == Component::Cart)
        return !cartInRepair(index);
    const KindState &ks = kindState(kind);
    if (index >= ks.down.size())
        return true; // unregistered: fault injection not configured
    return !ks.down[index];
}

bool
FaultState::launchOk() const
{
    return lims_.down_count == 0 && track_.down_count == 0 &&
           launch_inhibits_ == 0;
}

bool
FaultState::serviceUp() const
{
    if (!launchOk())
        return false;
    return stations_.down.empty() ||
           stations_.down_count < stations_.down.size();
}

std::size_t
FaultState::stationsUp() const
{
    return stations_.down.size() - stations_.down_count;
}

bool
FaultState::cartInRepair(std::uint32_t cart) const
{
    const auto it = cart_repair_end_.find(cart);
    return it != cart_repair_end_.end() && it->second > sim_.now();
}

double
FaultState::cartRepairEnd(std::uint32_t cart) const
{
    const auto it = cart_repair_end_.find(cart);
    return it == cart_repair_end_.end() ? sim_.now() : it->second;
}

std::size_t
FaultState::cartsInRepair() const
{
    const double t = sim_.now();
    return static_cast<std::size_t>(std::count_if(
        cart_repair_end_.begin(), cart_repair_end_.end(),
        [t](const auto &entry) { return entry.second > t; }));
}

bool
FaultState::rollCartBreakdown(std::uint32_t cart)
{
    if (!roll_)
        return false;
    return roll_(cart);
}

void
FaultState::onRepair(Listener listener)
{
    fatal_if(!listener, "repair listener must be callable");
    listeners_.push_back(std::move(listener));
}

void
FaultState::onOutage(Listener listener)
{
    fatal_if(!listener, "outage listener must be callable");
    outage_listeners_.push_back(std::move(listener));
}

std::uint64_t
FaultState::failures(Component kind) const
{
    if (kind == Component::Cart)
        return cart_repairs_;
    return kindState(kind).failures;
}

std::uint64_t
FaultState::repairs(Component kind) const
{
    if (kind == Component::Cart)
        return cart_repairs_;
    return kindState(kind).repairs;
}

double
FaultState::serviceDowntime(double up_to) const
{
    fatal_if(up_to < 0.0, "downtime horizon must be non-negative");
    const double end = std::min(up_to, sim_.now());
    double down = 0.0;
    double down_since = 0.0;
    bool is_down = false; // service starts up at t = 0
    for (const auto &[when, up_after] : transitions_) {
        if (when >= end)
            break;
        if (!up_after && !is_down) {
            is_down = true;
            down_since = when;
        } else if (up_after && is_down) {
            is_down = false;
            down += when - down_since;
        }
    }
    if (is_down)
        down += end - down_since;
    return down;
}

void
FaultState::saveKind(sim::SnapshotWriter &w, const char *scope,
                     const KindState &ks)
{
    sim::SnapshotScope<sim::SnapshotWriter> s(w, scope);
    w.putU64("n", ks.down.size());
    for (std::size_t i = 0; i < ks.down.size(); ++i) {
        std::string key("down");
        key += std::to_string(i);
        w.putBool(key, ks.down[i]);
    }
    w.putU64("failures", ks.failures);
    w.putU64("repairs", ks.repairs);
}

void
FaultState::restoreKind(sim::SnapshotReader &r, const char *scope,
                        KindState &ks)
{
    sim::SnapshotScope<sim::SnapshotReader> s(r, scope);
    fatal_if(r.getU64("n") != ks.down.size(),
             "fault restore: component count does not match the "
             "checkpoint");
    ks.down_count = 0;
    for (std::size_t i = 0; i < ks.down.size(); ++i) {
        std::string key("down");
        key += std::to_string(i);
        ks.down[i] = r.getBool(key);
        if (ks.down[i])
            ++ks.down_count;
    }
    ks.failures = r.getU64("failures");
    ks.repairs = r.getU64("repairs");
}

void
FaultState::saveState(sim::SnapshotWriter &w) const
{
    sim::SnapshotScope<sim::SnapshotWriter> scope(w, "faults");
    saveKind(w, "lims", lims_);
    saveKind(w, "track", track_);
    saveKind(w, "stations", stations_);

    // The repair shop, sorted by cart id for a canonical document.
    std::vector<std::pair<std::uint32_t, double>> shop(
        cart_repair_end_.begin(), cart_repair_end_.end());
    std::sort(shop.begin(), shop.end());
    w.putU64("carts", shop.size());
    for (std::size_t i = 0; i < shop.size(); ++i) {
        std::string key("cart");
        key += std::to_string(i);
        sim::SnapshotScope<sim::SnapshotWriter> cs(w, key);
        w.putU64("id", shop[i].first);
        w.putDouble("end", shop[i].second);
    }
    w.putU64("cart_repairs", cart_repairs_);
    w.putU64("cart_failures_seen", cart_failures_seen_);
    w.putU64("launch_inhibits", launch_inhibits_);

    w.putBool("service_up", service_up_);
    w.putU64("edges", transitions_.size());
    for (std::size_t i = 0; i < transitions_.size(); ++i) {
        std::string key("edge");
        key += std::to_string(i);
        sim::SnapshotScope<sim::SnapshotWriter> es(w, key);
        w.putDouble("when", transitions_[i].first);
        w.putBool("up", transitions_[i].second);
    }
}

void
FaultState::restoreState(sim::SnapshotReader &r)
{
    sim::SnapshotScope<sim::SnapshotReader> scope(r, "faults");
    restoreKind(r, "lims", lims_);
    restoreKind(r, "track", track_);
    restoreKind(r, "stations", stations_);

    cart_repair_end_.clear();
    const std::uint64_t n_carts = r.getU64("carts");
    for (std::uint64_t i = 0; i < n_carts; ++i) {
        std::string key("cart");
        key += std::to_string(i);
        sim::SnapshotScope<sim::SnapshotReader> cs(r, key);
        const auto id = static_cast<std::uint32_t>(r.getU64("id"));
        cart_repair_end_.emplace(id, r.getDouble("end"));
    }
    cart_repairs_ = r.getU64("cart_repairs");
    cart_failures_seen_ = r.getU64("cart_failures_seen");
    launch_inhibits_ = r.getU64("launch_inhibits");

    service_up_ = r.getBool("service_up");
    transitions_.clear();
    // Not reserved: a corrupt count must end at a missing key.
    const std::uint64_t n_edges = r.getU64("edges");
    for (std::uint64_t i = 0; i < n_edges; ++i) {
        std::string key("edge");
        key += std::to_string(i);
        sim::SnapshotScope<sim::SnapshotReader> es(r, key);
        const double when = r.getDouble("when");
        transitions_.emplace_back(when, r.getBool("up"));
    }
}

double
FaultState::observedAvailability(double horizon) const
{
    fatal_if(!(horizon > 0.0), "availability horizon must be positive");
    return 1.0 - serviceDowntime(horizon) / horizon;
}

} // namespace faults
} // namespace dhl
