/**
 * @file
 * Implementation of the DHL controller / software API.
 */

#include "dhl/controller.hpp"

#include <iterator>
#include <utility>

#include "common/logging.hpp"
#include "common/units.hpp"

namespace dhl {
namespace core {

DhlController::DhlController(sim::Simulator &sim, const DhlConfig &cfg,
                             std::string name, std::uint64_t seed)
    : sim::SimObject(sim, std::move(name)),
      cfg_(cfg),
      next_seq_(0),
      rng_(seed),
      failure_per_trip_(0.0),
      ssd_failures_(0)
{
    validate(cfg_);
    library_ =
        std::make_unique<Library>(sim, cfg_, this->name() + ".library");
    track_ = std::make_unique<Track>(sim, cfg_, this->name() + ".track");
    stations_.reserve(cfg_.docking_stations);
    for (std::size_t i = 0; i < cfg_.docking_stations; ++i) {
        stations_.push_back(std::make_unique<DockingStation>(
            sim, cfg_, this->name() + ".station" + std::to_string(i)));
    }

    auto &sg = statsGroup();
    stat_opens_ = &sg.addCounter("opens", "open commands completed");
    stat_closes_ = &sg.addCounter("closes", "close commands completed");
    stat_reads_ = &sg.addCounter("reads", "read commands completed");
    stat_writes_ = &sg.addCounter("writes", "write commands completed");
    stat_failures_ =
        &sg.addCounter("ssd_failures", "in-flight SSD failures injected");
    stat_parked_ = &sg.addCounter(
        "parked_launches", "trips parked by a launch-blocking outage");
    stat_held_opens_ = &sg.addCounter(
        "held_opens", "opens held while the cart was in repair");
    stat_breakdowns_ = &sg.addCounter(
        "cart_breakdowns", "per-trip mechanical cart breakdowns");
    stat_open_latency_ =
        &sg.addAccumulator("open_latency", "open request->docked, s");
}

DockingStation &
DhlController::station(std::size_t i)
{
    fatal_if(i >= stations_.size(), "docking station index out of range");
    return *stations_[i];
}

Cart &
DhlController::addCart(double preload_bytes)
{
    return library_->addCart(preload_bytes, storage::ConnectorKind::UsbC,
                             failure_per_trip_);
}

void
DhlController::attachFaults(faults::FaultState *faults)
{
    faults_ = faults;
    track_->attachFaults(faults);
    for (std::size_t i = 0; i < stations_.size(); ++i) {
        stations_[i]->attachFaults(faults,
                                   static_cast<std::uint32_t>(i));
    }
    if (faults != nullptr) {
        // Every repair may unblock held work: queued opens re-route to
        // whichever stations survive, parked launches retry on their
        // own bounded backoff.
        faults->onRepair([this] {
            if (tracingOn() && !queue_.empty() && !launchesBlocked()) {
                traceEvent(
                    "fault",
                    "repair completed; dispatching " +
                        std::to_string(queue_.size()) +
                        " queued open(s), oldest waited " +
                        units::formatSig(
                            now() - queue_.front().enqueue_time, 4) +
                        " s");
            }
            dispatchOpens();
        });
    }
}

DockingStation *
DhlController::findFreeStation()
{
    for (auto &st : stations_) {
        if (st->available())
            return st.get();
    }
    return nullptr;
}

void
DhlController::traceEvent(std::string_view category,
                          std::string_view message)
{
    if (trace_ != nullptr)
        trace_->record(category, name(), message);
}

void
DhlController::open(CartId id, OpenCb cb)
{
    Cart &cart = library_->cart(id);
    if (cart.place() != CartPlace::Library ||
        cart.state() != CartState::Stored) {
        fatal("open: cart " + std::to_string(id) +
              " is not stored in the library");
    }

    // Held: the cart is rotating through the library's repair shop;
    // re-issue the open at the (known) repair turnaround.
    if (faults_ != nullptr && faults_->cartInRepair(id)) {
        ++held_opens_;
        stat_held_opens_->increment();
        const double wait = faults_->cartRepairEnd(id) - now();
        if (tracingOn()) {
            traceEvent("fault", "open cart " + std::to_string(id) +
                                    " held: cart in repair for another " +
                                    units::formatSig(wait, 4) + " s");
        }
        schedule(wait, [this, id, cb = std::move(cb)]() mutable {
            open(id, std::move(cb));
        });
        return;
    }

    if (tracingOn())
        traceEvent("api", "open cart " + std::to_string(id));
    // While launches are blocked the queue holds every open — carts
    // stay in the library instead of clogging stations they cannot
    // leave.
    DockingStation *st = launchesBlocked() ? nullptr : findFreeStation();
    if (st == nullptr) {
        if (tracingOn()) {
            traceEvent("api",
                       "open cart " + std::to_string(id) + " queued");
        }
        queue_.push_back(QueuedOpen{id, now(), next_seq_++, std::move(cb)});
        return;
    }
    startOpen(id, std::move(cb), *st);
}

DhlController::Trip &
DhlController::trip(CartId id)
{
    if (id >= trips_.size())
        trips_.resize(library_->totalCarts());
    return trips_[id];
}

bool
DhlController::anyDocked() const
{
    for (const Trip &t : trips_)
        if (t.docked)
            return true;
    return false;
}

void
DhlController::startOpen(CartId id, OpenCb cb, DockingStation &st)
{
    Cart &cart = library_->cart(id);
    st.reserve(cart);
    Trip &t = trip(id);
    t.station = &st;
    t.requested = now();
    t.on_open = std::move(cb);
    library_->beginUndock(id, [this, id] { launchOutbound(id, 0.0); });
}

void
DhlController::launchOutbound(CartId id, double backoff)
{
    // Degraded mode: a LIM or track outage parks the trip in place
    // (cart waiting on the track apron, station still reserved) and
    // retries with bounded backoff.
    if (launchesBlocked()) {
        const double wait =
            faults::nextBackoff(faults_->retryPolicy(), backoff);
        ++parked_launches_;
        stat_parked_->increment();
        if (tracingOn()) {
            traceEvent("fault", "cart " + std::to_string(id) +
                                    " parked outbound; retry in " +
                                    units::formatSig(wait, 4) + " s");
        }
        schedule(wait, [this, id, wait] { launchOutbound(id, wait); });
        return;
    }

    const LaunchGrant grant = track_->reserveLaunch(Direction::Outbound);
    // Depart when the track admits us.
    schedule(grant.depart_time - now(), [this, id] {
        library_->cart(id).launch();
        if (tracingOn())
            traceEvent("track", "cart " + std::to_string(id) +
                                    " outbound");
    });
    // Arrive, roll failure dice, and dock.
    schedule(grant.arrive_time - now(), [this, id] {
        handleArrivalFailures(library_->cart(id));
        trips_[id].station->beginDock([this, id] { finishOpen(id); });
    });
}

void
DhlController::finishOpen(CartId id)
{
    Trip &t = trips_[id];
    t.docked = true;
    stat_opens_->increment();
    stat_open_latency_->sample(now() - t.requested);
    // Moved out first: the callback may open or close other carts,
    // which can grow the trip table under a reference into it.
    DockingStation &st = *t.station;
    const OpenCb cb = std::move(t.on_open);
    if (cb)
        cb(library_->cart(id), st);
}

void
DhlController::close(CartId id, CloseCb cb)
{
    Cart &cart = library_->cart(id);
    if (cart.place() != CartPlace::Rack || cart.state() != CartState::Docked)
        fatal("close: cart " + std::to_string(id) +
              " is not docked at the rack");
    Trip &t = trip(id);
    panic_if(!t.docked, "docked cart has no station mapping");
    t.docked = false;
    t.on_close = std::move(cb);
    if (tracingOn())
        traceEvent("api", "close cart " + std::to_string(id));

    t.station->beginUndock([this, id] { launchInbound(id, 0.0); });
}

void
DhlController::launchInbound(CartId id, double backoff)
{
    // Same parking policy as outbound: the undocked cart waits at its
    // (still reserved) station until the propulsion path is repaired.
    if (launchesBlocked()) {
        const double wait =
            faults::nextBackoff(faults_->retryPolicy(), backoff);
        ++parked_launches_;
        stat_parked_->increment();
        if (tracingOn()) {
            traceEvent("fault", "cart " + std::to_string(id) +
                                    " parked inbound; retry in " +
                                    units::formatSig(wait, 4) + " s");
        }
        schedule(wait, [this, id, wait] { launchInbound(id, wait); });
        return;
    }

    const LaunchGrant grant = track_->reserveLaunch(Direction::Inbound);
    schedule(grant.depart_time - now(), [this, id] {
        library_->cart(id).launch();
        if (tracingOn())
            traceEvent("track", "cart " + std::to_string(id) +
                                    " inbound");
        // The station is free once its cart has departed; serve any
        // queued open.
        trips_[id].station->release();
        trips_[id].station = nullptr;
        dispatchOpens();
    });
    schedule(grant.arrive_time - now(), [this, id] {
        handleArrivalFailures(library_->cart(id));
        library_->beginDock(id, [this, id] { finishClose(id); });
    });
}

void
DhlController::finishClose(CartId id)
{
    stat_closes_->increment();
    Cart &cart = library_->cart(id);
    // Round trip complete: roll the per-trip mechanical breakdown dice
    // and, on a breakdown, rotate the cart through the repair shop
    // (opens targeting it are held until the turnaround).
    if (faults_ != nullptr && faults_->rollCartBreakdown(id)) {
        cart.recordBreakdown();
        ++cart_breakdowns_;
        stat_breakdowns_->increment();
        if (tracingOn()) {
            traceEvent("fault",
                       "cart " + std::to_string(id) +
                           " breakdown at the library; in repair until " +
                           units::formatSig(faults_->cartRepairEnd(id),
                                            6) +
                           " s");
        }
    }
    const CloseCb cb = std::move(trips_[id].on_close);
    if (cb)
        cb(cart);
}

void
DhlController::dispatchOpens()
{
    // Launch-blocking outage: keep opens queued (carts are better off
    // in the library than stranded at a station).
    if (launchesBlocked())
        return;
    while (!queue_.empty()) {
        DockingStation *st = findFreeStation();
        if (st == nullptr)
            return;
        QueuedOpen req = std::move(queue_.front());
        queue_.pop_front();
        startOpen(req.id, std::move(req.cb), *st);
    }
}

std::vector<QueuedOpen>
DhlController::drainQueuedOpens()
{
    std::vector<QueuedOpen> drained(std::make_move_iterator(queue_.begin()),
                                    std::make_move_iterator(queue_.end()));
    queue_.clear();
    if (tracingOn() && !drained.empty()) {
        traceEvent("fault", "drained " + std::to_string(drained.size()) +
                                " queued open(s) for re-routing");
    }
    return drained;
}

void
DhlController::read(CartId id, double bytes, IoCb cb)
{
    if (id >= trips_.size() || !trips_[id].docked)
        fatal("read: cart " + std::to_string(id) + " is not docked");
    trips_[id].station->read(bytes, [this, cb = std::move(cb)](double b) {
        stat_reads_->increment();
        if (cb)
            cb(b);
    });
}

void
DhlController::write(CartId id, double bytes, IoCb cb)
{
    if (id >= trips_.size() || !trips_[id].docked)
        fatal("write: cart " + std::to_string(id) + " is not docked");
    trips_[id].station->write(bytes, [this, cb = std::move(cb)](double b) {
        stat_writes_->increment();
        if (cb)
            cb(b);
    });
}

void
DhlController::handleArrivalFailures(Cart &cart)
{
    const std::size_t failed = cart.rollTripFailures(rng_);
    if (failed > 0) {
        ssd_failures_ += failed;
        stat_failures_->increment(failed);
        if (tracingOn()) {
            traceEvent("failure",
                       "cart " + std::to_string(cart.id()) + " lost " +
                           std::to_string(failed) + " SSD(s) in flight");
        }
        // Paper §III-D: "if an SSD fails in-flight, the endpoint's DHL
        // API will report the error, and RAID and backups can ameliorate
        // the issue."  We report and repair (spare rotation) so the data
        // remains addressable; the failure count is the observable.
        warn(name() + ": " + std::to_string(failed) + " SSD(s) failed on "
             "cart " + std::to_string(cart.id()) +
             "; recovered via RAID/backup");
        cart.repairAll();
    }
}

void
DhlController::saveState(sim::SnapshotWriter &w) const
{
    fatal_if(!queue_.empty() || anyDocked(),
             "controller checkpoint requires a drained boundary (no "
             "queued or docked work)");
    sim::SnapshotScope<sim::SnapshotWriter> scope(w, "controller");
    w.putRng("rng", rng_);
    w.putU64("next_seq", next_seq_);
    w.putU64("ssd_failures", ssd_failures_);
    w.putU64("parked_launches", parked_launches_);
    w.putU64("held_opens", held_opens_);
    w.putU64("cart_breakdowns", cart_breakdowns_);
    track_->saveState(w);
}

void
DhlController::restoreState(sim::SnapshotReader &r)
{
    fatal_if(!queue_.empty() || anyDocked(),
             "controller restore requires a freshly constructed system");
    sim::SnapshotScope<sim::SnapshotReader> scope(r, "controller");
    r.getRng("rng", rng_);
    next_seq_ = r.getU64("next_seq");
    ssd_failures_ = r.getU64("ssd_failures");
    parked_launches_ = r.getU64("parked_launches");
    held_opens_ = r.getU64("held_opens");
    cart_breakdowns_ = r.getU64("cart_breakdowns");
    track_->restoreState(r);
}

} // namespace core
} // namespace dhl
