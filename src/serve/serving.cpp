/**
 * @file
 * Implementation of the open-loop serving mode.
 */

#include "serve/serving.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "dhl/analytical.hpp"
#include "network/route.hpp"

namespace dhl {
namespace serve {

namespace {

/** deriveSeed salts of the serve layer's streams, disjoint from every
 *  fault/ops stream index ("ARRV", "TRAK", "FALT"). */
constexpr std::uint64_t kArrivalStreamSalt = 0x41525256ull;
constexpr std::uint64_t kTrackStreamSalt = 0x5452414bull;
constexpr std::uint64_t kFaultStreamSalt = 0x46414c54ull;

constexpr std::size_t kNoTrack = std::numeric_limits<std::size_t>::max();

} // namespace

void
validate(const ServeConfig &cfg)
{
    core::validate(cfg.dhl);
    fatal_if(cfg.tracks == 0, "serving needs at least one track");
    fatal_if(cfg.stages.empty(), "serving needs a non-empty load profile");
    fatal_if(!(cfg.epoch > 0.0), "serving epoch must be positive");
    fatal_if(cfg.carts_per_track == 0,
             "serving needs at least one cart per track");
    fatal_if(cfg.max_pending == 0,
             "serving admission queue bound must be positive");
    if (cfg.faults.enabled)
        faults::validate(cfg.faults);
    if (!cfg.maintenance.windows.empty())
        ops::validate(cfg.maintenance, cfg.tracks);
    if (cfg.domains.enabled)
        ops::validate(cfg.domains);
    if (cfg.te.enabled)
        te::validate(cfg.te);
}

ServingSim::ServingSim(const ServeConfig &cfg)
    : cfg_(cfg),
      trace_(sim_, cfg.trace_capacity),
      cart_capacity_(cfg.dhl.cartCapacity().value()),
      serve_stats_("serve")
{
    validate(cfg_);

    tracks_.resize(cfg_.tracks);
    std::vector<faults::FaultState *> states;
    states.reserve(cfg_.tracks);
    for (std::size_t t = 0; t < cfg_.tracks; ++t) {
        TrackSystem &ts = tracks_[t];
        ts.state = std::make_unique<faults::FaultState>(sim_);
        ts.state->attachTrace(&trace_);
        std::string name("track");
        name += std::to_string(t);
        ts.controller = std::make_unique<core::DhlController>(
            sim_, cfg_.dhl, name, deriveSeed(cfg_.seed, kTrackStreamSalt + t));
        ts.controller->attachTrace(&trace_);
        ts.controller->attachFaults(ts.state.get());
        ts.pool.reserve(cfg_.carts_per_track);
        for (std::size_t c = 0; c < cfg_.carts_per_track; ++c)
            ts.pool.push_back(ts.controller->addCart(0.0).id());
        panic_if(ts.pool.back() + 1 != cfg_.carts_per_track,
                 "serving expects cart ids 0..carts_per_track-1");
        if (cfg_.faults.enabled) {
            faults::FaultConfig fc = cfg_.faults;
            fc.seed = deriveSeed(cfg_.faults.seed, kFaultStreamSalt + t);
            std::string fname("faults");
            fname += std::to_string(t);
            ts.injector = std::make_unique<faults::FaultInjector>(
                sim_, *ts.state, fc, ts.controller->numStations(), fname);
        }
        // Repair completions free capacity the backlog may be waiting
        // on; the pump no-ops outside the epoch's admission window.
        ts.state->onRepair([this] { pump(); });
        states.push_back(ts.state.get());
    }

    if (!cfg_.maintenance.windows.empty())
        maintenance_ = std::make_unique<ops::MaintenanceScheduler>(
            sim_, states, cfg_.maintenance);
    if (cfg_.domains.enabled)
        plants_ = std::make_unique<ops::CorrelatedFaultModel>(
            sim_, states, cfg_.domains);

    active_.resize(cfg_.tracks * cfg_.carts_per_track);

    arrivals_ = std::make_unique<workloads::StagedArrivalProcess>(
        cfg_.stages, deriveSeed(cfg_.seed, kArrivalStreamSalt));
    slo_.resize(arrivals_->stageCount());

    if (cfg_.te.enabled) {
        // Tenants are the distinct traffic-class tags of the profile in
        // first-appearance order; the class's arrival-mix weight doubles
        // as its fair-share weight.
        std::vector<te::TenantSpec> tenants;
        for (const workloads::StageSpec &stage : cfg_.stages) {
            for (const workloads::RequestClass &rc : stage.mix) {
                bool known = false;
                for (const std::string &tag : tenant_tags_)
                    known = known || tag == rc.tag;
                if (!known) {
                    tenant_tags_.push_back(rc.tag);
                    tenants.push_back({rc.tag, rc.weight});
                }
            }
        }
        te::TeConfig tc = cfg_.te;
        if (tc.dhl_capacity == 0.0)
            tc.dhl_capacity =
                static_cast<double>(cfg_.tracks) *
                core::AnalyticalModel(cfg_.dhl).launch().bandwidth.value();
        if (std::isinf(tc.horizon))
            tc.horizon = arrivals_->totalDuration();
        optical_ = std::make_unique<network::FlowSim>(sim_, "optical");
        optical_links_ = {optical_->addLink(tc.optical_capacity)};
        optical_route_power_ =
            network::findRoute(tc.route).power().value();
        te_ = std::make_unique<te::TeController>(sim_, tc,
                                                 std::move(tenants));
        // A control tick can clear contention or open downgrade
        // headroom, so the backlog is re-scanned after every tick.
        te_->onTick([this] { pump(); });
        te_->start();
        class_slo_.resize(tenant_tags_.size() * 2);
        serve_stats_.addFormula("optical_served",
                                "requests served on the optical substrate",
                                [this] {
            return static_cast<double>(optical_served_);
        });
        serve_stats_.addFormula("te_downgrades",
                                "bulk requests downgraded to optical",
                                [this] {
            return static_cast<double>(te_downgrades_);
        });
    }

    // Formulas read the SLO accumulators lazily, so a restored fleet
    // dumps the run totals, not just what this process observed.
    serve_stats_.addFormula("offered", "requests offered", [this] {
        double n = 0.0;
        for (const auto &s : slo_)
            n += static_cast<double>(s.offered());
        return n;
    });
    serve_stats_.addFormula("served", "requests completed", [this] {
        double n = 0.0;
        for (const auto &s : slo_)
            n += static_cast<double>(s.served());
        return n;
    });
    serve_stats_.addFormula("shed", "requests shed at admission", [this] {
        double n = 0.0;
        for (const auto &s : slo_)
            n += static_cast<double>(s.shed());
        return n;
    });
    serve_stats_.addFormula("backlog", "admission queue depth", [this] {
        return static_cast<double>(queue_.size());
    });
    serve_stats_.addFormula("epochs", "epochs completed", [this] {
        return static_cast<double>(epochs_);
    });
}

//===========================================================================
// Stepping
//===========================================================================

bool
ServingSim::done() const
{
    return arrivals_->exhausted() && queue_.empty() && in_flight_ == 0;
}

double
ServingSim::nextBoundary() const
{
    // Draining a backlogged epoch can run past its boundary; the next
    // epoch then starts from wherever the clock actually is.
    return std::max(boundary_ + cfg_.epoch, sim_.now());
}

bool
ServingSim::stepEpoch()
{
    if (done())
        return false;

    const double target = nextBoundary();

    // Admission window opens: backlog first, then this epoch's
    // arrivals at their intended times (late ones fire immediately).
    pumping_ = true;
    pump();
    // The arrivals come in time order, so they ride the kernel's
    // in-order lane instead of the heap; every one fires before the
    // epoch ends, so the vector outlives its events.
    epoch_arrivals_ = arrivals_->take(target);
    for (std::size_t i = 0; i < epoch_arrivals_.size(); ++i) {
        const double when = std::max(epoch_arrivals_[i].at, sim_.now());
        sim_.scheduleInOrder(when, [this, i] { admit(epoch_arrivals_[i]); });
    }

    // Anything startable has been started and this epoch's arrivals
    // are scheduled; a backlog with an empty event queue can therefore
    // never make progress (a merely busy or repairing fleet always has
    // a trip or repair event pending).
    if (!queue_.empty() && sim_.pendingEvents() == 0)
        fatal("serving stalled: backlog remains but no future event can "
              "free capacity (all tracks down for good?)");

    sim_.runEpoch(target);

    // Admission window closes: finish in-flight requests so the
    // boundary is drained (checkpointable); unstarted backlog carries.
    pumping_ = false;
    while (in_flight_ > 0) {
        if (sim_.step(1) == 0)
            panic("serving drain stalled with requests in flight");
    }

    boundary_ = target;
    ++epochs_;
    return true;
}

void
ServingSim::run(std::size_t max_epochs)
{
    std::size_t steps = 0;
    while (stepEpoch()) {
        ++steps;
        if (max_epochs != 0 && steps >= max_epochs)
            return;
    }
}

//===========================================================================
// Admission
//===========================================================================

bool
ServingSim::anyTrackDown() const
{
    for (const TrackSystem &ts : tracks_)
        if (!ts.state->serviceUp())
            return true;
    return false;
}

bool
ServingSim::admissible(const workloads::ArrivalEvent &ev,
                       bool degraded) const
{
    if (cfg_.policy != ops::DispatchPolicy::AvailabilityAware)
        return true;
    return !degraded || ev.priority >= cfg_.min_priority_degraded;
}

std::size_t
ServingSim::pickTrack(bool degraded) const
{
    const std::size_t n = tracks_.size();
    switch (cfg_.policy) {
    case ops::DispatchPolicy::RoundRobin:
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t t = (rr_next_ + i) % n;
            if (!tracks_[t].pool.empty())
                return t;
        }
        return kNoTrack;
    case ops::DispatchPolicy::LeastQueued: {
        std::size_t best = kNoTrack;
        std::size_t best_free = 0;
        for (std::size_t t = 0; t < n; ++t) {
            const std::size_t free = tracks_[t].pool.size();
            if (free > best_free) {
                best = t;
                best_free = free;
            }
        }
        return best;
    }
    case ops::DispatchPolicy::AvailabilityAware: {
        std::size_t best = kNoTrack;
        std::size_t best_free = 0;
        for (std::size_t t = 0; t < n; ++t) {
            if (degraded && !tracks_[t].state->serviceUp())
                continue;
            const std::size_t free = tracks_[t].pool.size();
            if (free > best_free) {
                best = t;
                best_free = free;
            }
        }
        return best;
    }
    }
    return kNoTrack;
}

bool
ServingSim::tryStart(const workloads::ArrivalEvent &ev)
{
    const std::size_t t = pickTrack(anyTrackDown());
    if (t == kNoTrack)
        return false;
    if (cfg_.policy == ops::DispatchPolicy::RoundRobin)
        rr_next_ = (t + 1) % tracks_.size();

    TrackSystem &ts = tracks_[t];
    const core::CartId cart = ts.pool.back();
    ts.pool.pop_back();
    ++in_flight_;

    const double trips =
        std::max(1.0, std::ceil(ev.bytes / cart_capacity_));
    const std::size_t slot = t * cfg_.carts_per_track + cart;
    Active &a = active_[slot];
    a.ev = ev;
    a.track = t;
    a.cart = cart;
    a.trips_left = static_cast<std::uint64_t>(trips);
    runTrip(slot);
    return true;
}

void
ServingSim::admit(const workloads::ArrivalEvent &ev)
{
    const std::size_t stage = static_cast<std::size_t>(ev.stage);
    slo_[stage].offer();

    if (te_) {
        admitTe(ev);
        return;
    }

    if (queue_.empty() && admissible(ev, anyTrackDown()) && tryStart(ev))
        return;

    if (queue_.size() >= cfg_.max_pending) {
        slo_[stage].shed();
        if (trace_.enabled())
            trace_.record("serve", "admission",
                          "shed " + ev.tag + " (queue full)");
        return;
    }
    slo_[stage].defer();
    queue_.push_back(Queued{ev});
}

void
ServingSim::admitTe(const workloads::ArrivalEvent &ev)
{
    const std::size_t stage = static_cast<std::size_t>(ev.stage);
    const std::size_t tenant = tenantOf(ev);
    te_->recordUsage(tenant, ev.bytes);

    const te::TeDecision d = te_->decide(tenant, ev.bytes, ev.priority);

    if (d.substrate == te::Substrate::Optical) {
        // Optical requests never queue: the fluid FlowSim models their
        // contention by sharing the uplink, not by admission control.
        classSlo(tenant, te::Substrate::Optical).offer();
        startOptical(ev, tenant, d.downgraded);
        return;
    }

    classSlo(tenant, te::Substrate::Dhl).offer();
    // d.admit == false holds the request in the queue until a control
    // tick clears the contention (decide() only withholds admission
    // while a future tick is pending, so the hold always resolves).
    if (d.admit && queue_.empty() && admissible(ev, anyTrackDown()) &&
        tryStart(ev))
        return;

    if (queue_.size() >= cfg_.max_pending) {
        slo_[stage].shed();
        classSlo(tenant, te::Substrate::Dhl).shed();
        if (trace_.enabled())
            trace_.record("serve", "admission",
                          "shed " + ev.tag + " (queue full)");
        return;
    }
    slo_[stage].defer();
    classSlo(tenant, te::Substrate::Dhl).defer();
    queue_.push_back(Queued{ev});
}

void
ServingSim::startOptical(const workloads::ArrivalEvent &ev,
                         std::size_t tenant, bool downgraded)
{
    if (downgraded)
        ++te_downgrades_;
    ++in_flight_;
    auto boxed = std::make_shared<workloads::ArrivalEvent>(ev);
    optical_->startFlow(
        optical_links_, ev.bytes, optical_route_power_,
        [this, boxed, tenant](const network::FlowRecord &rec) {
            const std::size_t stage =
                static_cast<std::size_t>(boxed->stage);
            const double latency = sim_.now() - boxed->at;
            slo_[stage].complete(latency, boxed->bytes);
            classSlo(tenant, te::Substrate::Optical)
                .complete(latency, boxed->bytes);
            optical_energy_ += rec.energy;
            ++served_;
            ++optical_served_;
            --in_flight_;
        });
}

std::size_t
ServingSim::tenantOf(const workloads::ArrivalEvent &ev) const
{
    for (std::size_t t = 0; t < tenant_tags_.size(); ++t)
        if (tenant_tags_[t] == ev.tag)
            return t;
    panic("serve: arrival tag '" + ev.tag + "' has no TE tenant");
}

stats::SloAccumulator &
ServingSim::classSlo(std::size_t tenant, te::Substrate s)
{
    return class_slo_[tenant * 2 + (s == te::Substrate::Optical ? 1 : 0)];
}

const stats::SloAccumulator &
ServingSim::classSlo(std::size_t tenant, te::Substrate s) const
{
    return class_slo_[tenant * 2 + (s == te::Substrate::Optical ? 1 : 0)];
}

void
ServingSim::pump()
{
    if (!pumping_)
        return;
    while (!queue_.empty()) {
        const bool degraded = anyTrackDown();
        bool progressed = false;
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (!admissible(it->ev, degraded))
                continue; // held below the degraded-mode floor
            if (te_) {
                // A queued request's substrate is fixed at admission
                // (DHL); only the admit verdict is re-evaluated, so a
                // contention hold behaves exactly like the degraded
                // floor: skipped now, revisited on the next pump.
                if (!te_->decide(tenantOf(it->ev), it->ev.bytes,
                                 it->ev.priority)
                         .admit)
                    continue;
            }
            if (!tryStart(it->ev))
                return; // admissible work, no capacity: stop scanning
            queue_.erase(it);
            progressed = true;
            break;
        }
        if (!progressed)
            return; // everything queued is held by the floor
    }
}

//===========================================================================
// Request lifecycle
//===========================================================================

void
ServingSim::runTrip(std::size_t slot)
{
    const Active &a = active_[slot];
    tracks_[a.track].controller->open(
        a.cart, [this, slot](core::Cart &, core::DockingStation &) {
            const Active &a = active_[slot];
            tracks_[a.track].controller->close(
                a.cart, [this, slot](core::Cart &) { finishTrip(slot); });
        });
}

void
ServingSim::finishTrip(std::size_t slot)
{
    if (--active_[slot].trips_left > 0)
        runTrip(slot);
    else
        finishRequest(slot);
}

void
ServingSim::finishRequest(std::size_t slot)
{
    const Active &a = active_[slot];
    const std::size_t stage = static_cast<std::size_t>(a.ev.stage);
    const double latency = sim_.now() - a.ev.at;
    slo_[stage].complete(latency, a.ev.bytes);
    if (te_)
        classSlo(tenantOf(a.ev), te::Substrate::Dhl)
            .complete(latency, a.ev.bytes);
    ++served_;
    tracks_[a.track].pool.push_back(a.cart);
    --in_flight_;
    pump();
}

//===========================================================================
// Checkpoint/restore
//===========================================================================

namespace {

/** One SloAccumulator's tallies and its exact latency samples. */
template <typename IO>
void
snapshotSlo(IO &io, stats::SloAccumulator &s)
{
    // Read through a const view: non-const shed() records a shed.
    const stats::SloAccumulator &saved = s;
    std::uint64_t offered = saved.offered();
    std::uint64_t deferred = saved.deferred();
    std::uint64_t shed = saved.shed();
    double bytes = saved.bytesDelivered();
    std::uint64_t samples = saved.latencies().size();
    io.field("offered", offered);
    io.field("deferred", deferred);
    io.field("shed", shed);
    io.field("bytes", bytes);
    io.field("samples", samples);
    if constexpr (IO::loading) {
        std::vector<double> latencies;
        io.series("l", samples, latencies);
        s.restore(offered, deferred, shed, bytes, std::move(latencies));
    } else {
        io.series("l", samples, saved.latencies());
    }
}

} // namespace

template <typename IO>
void
ServingSim::fingerprint(IO &io) const
{
    sim::SnapshotScope scope(io, "config");
    fatal_if(!(io.match("tracks", cfg_.tracks) &&
               io.match("seed", cfg_.seed) &&
               io.match("epoch", cfg_.epoch) &&
               io.match("carts_per_track", cfg_.carts_per_track) &&
               io.match("max_pending", cfg_.max_pending) &&
               io.match("policy", ops::to_string(cfg_.policy)) &&
               io.match("min_priority_degraded",
                        cfg_.min_priority_degraded) &&
               io.match("faults", cfg_.faults.enabled) &&
               io.match("maintenance_windows",
                        cfg_.maintenance.windows.size()) &&
               io.match("domains", cfg_.domains.enabled) &&
               // Every fleet runs one event loop.  The key stays so
               // checkpoints keep their bytes; only the value 1 passes.
               io.match("des_shards", std::uint64_t{1}) &&
               io.match("te", cfg_.te.enabled)),
             "serving checkpoint belongs to a different configuration");
    if (cfg_.te.enabled) {
        sim::SnapshotScope ts(io, "te");
        fatal_if(
            !(io.match("mode", te::to_string(cfg_.te.mode)) &&
              io.match("period", cfg_.te.control_period) &&
              io.match("small_bytes", cfg_.te.small_bytes) &&
              io.match("optical_capacity", cfg_.te.optical_capacity) &&
              io.match("dhl_capacity", cfg_.te.dhl_capacity) &&
              io.match("route", cfg_.te.route) &&
              io.match("headroom", cfg_.te.headroom) &&
              io.match("multiplier", cfg_.te.usage_multiplier) &&
              io.match("history", cfg_.te.history) &&
              io.match("floor", cfg_.te.min_priority_contended)),
            "serving checkpoint TE configuration does not match");
    }
    fatal_if(!io.match("stages", cfg_.stages.size()),
             "serving checkpoint belongs to a different configuration");
    for (std::size_t i = 0; i < cfg_.stages.size(); ++i) {
        const workloads::StageSpec &s = cfg_.stages[i];
        sim::SnapshotScope ss(io, sim::IndexedKey("stage", i));
        fatal_if(!(io.match("name", s.name) &&
                   io.match("duration", s.duration) &&
                   io.match("start_rate", s.start_rate) &&
                   io.match("end_rate", s.end_rate) &&
                   io.match("classes", s.mix.size())),
                 "serving checkpoint stage profile does not match");
        for (std::size_t c = 0; c < s.mix.size(); ++c) {
            const workloads::RequestClass &rc = s.mix[c];
            sim::SnapshotScope cs(io, sim::IndexedKey("class", c));
            fatal_if(!(io.match("tag", rc.tag) &&
                       io.match("weight", rc.weight) &&
                       io.match("median_bytes", rc.median_bytes) &&
                       io.match("sigma", rc.sigma) &&
                       io.match("priority", rc.priority)),
                     "serving checkpoint traffic mix does not match");
        }
    }
}

template <typename IO>
void
ServingSim::snapshot(IO &io)
{
    fingerprint(io);

    if constexpr (IO::loading) {
        // Empty the event queue: every constructor-scheduled event
        // belongs to a stoppable process, and the kernel's restore
        // requires a drained queue before it rewinds the clock.
        for (TrackSystem &ts : tracks_)
            if (ts.injector)
                ts.injector->stop();
        if (maintenance_)
            maintenance_->stop();
        if (plants_)
            plants_->stop();
        if (te_)
            te_->stop();
        fatal_if(sim_.pendingEvents() != 0,
                 "serving restore found unexpected pending events");
    }

    {
        sim::SnapshotScope scope(io, "serve");
        io.field("epochs", epochs_);
        io.field("boundary", boundary_);
        io.field("rr_next", rr_next_);
        io.field("served", served_);
        std::uint64_t queued = queue_.size();
        io.field("queued", queued);
        // Not reserved: a corrupt count must end at a missing key.
        if constexpr (IO::loading)
            queue_.clear();
        for (std::uint64_t i = 0; i < queued; ++i) {
            sim::SnapshotScope qs(io, sim::IndexedKey("q", i));
            if constexpr (IO::loading)
                queue_.emplace_back();
            workloads::ArrivalEvent &ev = queue_[i].ev;
            io.field("at", ev.at);
            io.field("bytes", ev.bytes);
            io.field("tag", ev.tag);
            io.field("stage", ev.stage);
            io.field("priority", ev.priority);
        }
        for (std::size_t i = 0; i < slo_.size(); ++i) {
            sim::SnapshotScope ss(io, sim::IndexedKey("s", i));
            snapshotSlo(io, slo_[i]);
        }
    }

    sim_.snapshot(io);
    trace_.snapshot(io);
    arrivals_->snapshot(io);
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
        TrackSystem &track = tracks_[t];
        sim::SnapshotScope ts(io, sim::IndexedKey("t", t));
        track.controller->snapshot(io);
        track.state->snapshot(io);
        if (track.injector)
            track.injector->snapshot(io);
        // Pool *order* matters: which cart serves a trip decides which
        // per-cart breakdown stream the trip consumes, so a restored
        // fleet must hand out carts in the identical sequence.
        fatal_if(!io.match("pool", track.pool.size()),
                 "serving restore: cart pool size does not match");
        for (std::size_t i = 0; i < track.pool.size(); ++i)
            io.field(sim::IndexedKey("p", i), track.pool[i]);
    }
    if (maintenance_)
        maintenance_->snapshot(io);
    if (plants_)
        plants_->snapshot(io);
    if (te_) {
        // The drained boundary has zero active flows, so the FlowSim
        // itself holds no dynamic state worth keeping; the serve layer
        // checkpoints its own optical accumulators instead.
        sim::SnapshotScope ts(io, "te");
        io.field("optical_energy", optical_energy_);
        io.field("optical_served", optical_served_);
        io.field("downgrades", te_downgrades_);
        for (std::size_t i = 0; i < class_slo_.size(); ++i) {
            sim::SnapshotScope cs(io, sim::IndexedKey("c", i));
            snapshotSlo(io, class_slo_[i]);
        }
        sim::SnapshotScope ctl(io, "ctl");
        te_->snapshot(io);
    }
}

void
ServingSim::checkpoint(std::ostream &os) const
{
    fatal_if(in_flight_ != 0,
             "serving checkpoint requires a drained epoch boundary");
    sim::SnapshotWriter w(os);
    // snapshot() is one body for both directions; with a writer it
    // only reads.
    const_cast<ServingSim *>(this)->snapshot(w);
}

void
ServingSim::restore(std::istream &is)
{
    fatal_if(epochs_ != 0 || sim_.now() != 0.0,
             "serving restore requires a freshly constructed fleet");
    sim::SnapshotReader r(is);
    snapshot(r);
}

//===========================================================================
// Measurement
//===========================================================================

const stats::SloAccumulator &
ServingSim::stageSlo(std::size_t stage) const
{
    fatal_if(stage >= slo_.size(), "stage index out of range");
    return slo_[stage];
}

double
ServingSim::stageAvailability(std::size_t stage) const
{
    fatal_if(stage >= slo_.size(), "stage index out of range");
    double start = 0.0;
    for (std::size_t i = 0; i < stage; ++i)
        start += cfg_.stages[i].duration;
    const double end =
        std::min(start + cfg_.stages[stage].duration, sim_.now());
    if (end <= start)
        return 1.0;
    double downtime = 0.0;
    for (const TrackSystem &ts : tracks_)
        downtime += ts.state->serviceDowntime(end) -
                    ts.state->serviceDowntime(start);
    return 1.0 - downtime / (static_cast<double>(tracks_.size()) *
                             (end - start));
}

std::vector<exp::StageSlo>
ServingSim::sloTable() const
{
    std::vector<exp::StageSlo> table;
    table.reserve(slo_.size());
    double start = 0.0;
    for (std::size_t i = 0; i < slo_.size(); ++i) {
        const stats::SloAccumulator &s = slo_[i];
        exp::StageSlo row;
        row.name = cfg_.stages[i].name;
        row.start = start;
        row.duration = cfg_.stages[i].duration;
        row.offered = s.offered();
        row.served = s.served();
        row.deferred = s.deferred();
        row.shed = s.shed();
        const std::vector<double> q = s.latencyPercentiles({50.0, 99.0, 99.9});
        row.p50 = q[0];
        row.p99 = q[1];
        row.p999 = q[2];
        row.availability = stageAvailability(i);
        row.goodput = row.duration > 0.0
                          ? s.bytesDelivered() / row.duration
                          : 0.0;
        table.push_back(std::move(row));
        start += cfg_.stages[i].duration;
    }
    return table;
}

double
ServingSim::totalEnergy() const
{
    double e = optical_energy_;
    for (const TrackSystem &ts : tracks_)
        e += ts.controller->totalEnergy();
    return e;
}

const te::TeController &
ServingSim::teController() const
{
    fatal_if(!te_, "TE is not enabled on this serving fleet");
    return *te_;
}

std::vector<exp::ClassSlo>
ServingSim::teTable() const
{
    fatal_if(!te_, "TE is not enabled on this serving fleet");
    // Achieved throughput: delivered bytes over the elapsed makespan,
    // so a mode that drains its backlog slowly scores lower goodput
    // even when everything is eventually served.
    const double duration = sim_.now();
    std::vector<exp::ClassSlo> table;
    table.reserve(class_slo_.size());
    for (std::size_t t = 0; t < tenant_tags_.size(); ++t) {
        for (const te::Substrate s :
             {te::Substrate::Dhl, te::Substrate::Optical}) {
            const stats::SloAccumulator &acc = classSlo(t, s);
            exp::ClassSlo row;
            row.name = tenant_tags_[t];
            row.substrate = te::to_string(s);
            row.offered = acc.offered();
            row.served = acc.served();
            row.deferred = acc.deferred();
            row.shed = acc.shed();
            const std::vector<double> q = acc.latencyPercentiles({50.0, 99.0});
            row.p50 = q[0];
            row.p99 = q[1];
            row.goodput =
                duration > 0.0 ? acc.bytesDelivered() / duration : 0.0;
            table.push_back(std::move(row));
        }
    }
    return table;
}

std::uint64_t
ServingSim::totalLaunches() const
{
    std::uint64_t n = 0;
    for (const TrackSystem &ts : tracks_)
        n += ts.controller->launches();
    return n;
}

std::uint64_t
ServingSim::totalShed() const
{
    std::uint64_t n = 0;
    for (const stats::SloAccumulator &s : slo_)
        n += s.shed();
    return n;
}

core::DhlController &
ServingSim::controller(std::size_t track)
{
    fatal_if(track >= tracks_.size(), "track index out of range");
    return *tracks_[track].controller;
}

faults::FaultState &
ServingSim::faultState(std::size_t track)
{
    fatal_if(track >= tracks_.size(), "track index out of range");
    return *tracks_[track].state;
}

void
ServingSim::dumpStats(std::ostream &os)
{
    serve_stats_.dump(os);
    sim_.statsGroup().dump(os);
    for (const TrackSystem &ts : tracks_) {
        ts.controller->statsGroup().dump(os);
        ts.controller->track().statsGroup().dump(os);
        if (ts.injector)
            ts.injector->statsGroup().dump(os);
    }
    if (maintenance_)
        maintenance_->statsGroup().dump(os);
    if (plants_)
        plants_->statsGroup().dump(os);
    if (te_) {
        te_->statsGroup().dump(os);
        optical_->statsGroup().dump(os);
    }
}

} // namespace serve
} // namespace dhl
