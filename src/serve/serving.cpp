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
    fatal_if(cfg.des_shards == 0, "serving des_shards must be at least 1");
    fatal_if(cfg.policy == ops::DispatchPolicy::Te,
             "the serving loop drives TE through cfg.te (--te), not "
             "the ops dispatch policy");
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

    // Shard layout first: whole plant domains dealt contiguously onto
    // the requested shard count (partitionShards caps it at the domain
    // count).  Every seed below derives from (cfg_.seed, global track
    // index) alone, so the layout never perturbs a stream.
    shard_of_.assign(cfg_.tracks, 0);
    // TE needs zero-lookahead visibility of every track (the controller
    // decides per admission against fleet-wide published state), so a
    // TE-enabled run always uses the single global loop — which also
    // makes --des-shards trivially byte-identical under TE.
    if (cfg_.des_shards > 1 && !cfg_.te.enabled) {
        const std::size_t unit =
            cfg_.domains.enabled ? cfg_.domains.domain_size : 1;
        shard_of_ =
            sim::partitionShards(cfg_.tracks, unit, cfg_.des_shards);
        const std::size_t S = shard_of_.back() + 1;
        if (S > 1) {
            parts_.resize(S);
            for (std::size_t t = 0; t < cfg_.tracks; ++t)
                parts_[shard_of_[t]].tracks.push_back(t);
            extra_sims_.reserve(S - 1);
            extra_traces_.reserve(S - 1);
            for (std::size_t s = 1; s < S; ++s) {
                extra_sims_.push_back(std::make_unique<sim::Simulator>());
                extra_traces_.push_back(
                    std::make_unique<sim::TraceRecorder>(
                        *extra_sims_.back(), cfg_.trace_capacity));
            }
            group_.attach(&sim_);
            for (const auto &es : extra_sims_)
                group_.attach(es.get());
            pool_ = std::make_unique<ThreadPool>(S);
            group_.setPool(pool_.get());
        }
    }

    tracks_.resize(cfg_.tracks);
    std::vector<faults::FaultState *> states;
    states.reserve(cfg_.tracks);
    for (std::size_t t = 0; t < cfg_.tracks; ++t) {
        TrackSystem &ts = tracks_[t];
        sim::Simulator &tsim = simOf(t);
        sim::TraceRecorder &ttrace =
            shard_of_[t] == 0 ? trace_ : *extra_traces_[shard_of_[t] - 1];
        ts.state = std::make_unique<faults::FaultState>(tsim);
        ts.state->attachTrace(&ttrace);
        std::string name("track");
        name += std::to_string(t);
        ts.controller = std::make_unique<core::DhlController>(
            tsim, cfg_.dhl, name, deriveSeed(cfg_.seed, kTrackStreamSalt + t));
        ts.controller->attachTrace(&ttrace);
        ts.controller->attachFaults(ts.state.get());
        ts.pool.reserve(cfg_.carts_per_track);
        for (std::size_t c = 0; c < cfg_.carts_per_track; ++c)
            ts.pool.push_back(ts.controller->addCart(0.0).id());
        if (cfg_.faults.enabled) {
            faults::FaultConfig fc = cfg_.faults;
            fc.seed = deriveSeed(cfg_.faults.seed, kFaultStreamSalt + t);
            std::string fname("faults");
            fname += std::to_string(t);
            ts.injector = std::make_unique<faults::FaultInjector>(
                tsim, *ts.state, fc, ts.controller->numStations(), fname);
        }
        // Repair completions free capacity the backlog may be waiting
        // on; the pump no-ops outside the epoch's admission window and
        // during parallel shard windows (where the queue is empty).
        ts.state->onRepair([this] { pump(); });
        states.push_back(ts.state.get());
    }

    if (!sharded()) {
        if (!cfg_.maintenance.windows.empty())
            maintenance_ = std::make_unique<ops::MaintenanceScheduler>(
                sim_, states, cfg_.maintenance);
        if (cfg_.domains.enabled)
            plants_ = std::make_unique<ops::CorrelatedFaultModel>(
                sim_, states, cfg_.domains);
    } else {
        // One slice of the ops processes per shard, on that shard's
        // simulator.  Track-targeted maintenance windows go to their
        // owner shard (index remapped into the shard-local slice);
        // fleet-wide windows are replicated on every shard so each
        // shard inhibits its own tracks at the same simulated times a
        // single loop would.  Plant domains are never split across
        // shards, so a shard's model covers whole domains and seeds
        // them by *global* domain index.
        for (std::size_t s = 0; s < parts_.size(); ++s) {
            ShardPart &part = parts_[s];
            const std::size_t first = part.tracks.front();
            std::vector<faults::FaultState *> slice;
            slice.reserve(part.tracks.size());
            for (const std::size_t t : part.tracks)
                slice.push_back(tracks_[t].state.get());
            if (!cfg_.maintenance.windows.empty()) {
                ops::MaintenanceConfig mc;
                mc.horizon = cfg_.maintenance.horizon;
                for (const ops::MaintenanceWindow &mw :
                     cfg_.maintenance.windows) {
                    if (mw.track < 0) {
                        mc.windows.push_back(mw);
                    } else if (shard_of_[static_cast<std::size_t>(
                                   mw.track)] == s) {
                        ops::MaintenanceWindow lw = mw;
                        lw.track = mw.track - static_cast<int>(first);
                        mc.windows.push_back(lw);
                    }
                }
                if (!mc.windows.empty())
                    part.maintenance =
                        std::make_unique<ops::MaintenanceScheduler>(
                            shardSim(s), slice, mc,
                            "maintenance.s" + std::to_string(s));
            }
            if (cfg_.domains.enabled)
                part.plants =
                    std::make_unique<ops::CorrelatedFaultModel>(
                        shardSim(s), slice, cfg_.domains,
                        "plants.s" + std::to_string(s),
                        first / cfg_.domains.domain_size);
        }
    }

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

sim::Simulator &
ServingSim::shardSim(std::size_t s)
{
    return s == 0 ? sim_ : *extra_sims_[s - 1];
}

sim::Simulator &
ServingSim::simOf(std::size_t track)
{
    return shardSim(shard_of_[track]);
}

const sim::Simulator &
ServingSim::simOf(std::size_t track) const
{
    const std::size_t s = shard_of_[track];
    return s == 0 ? sim_ : *extra_sims_[s - 1];
}

double
ServingSim::now() const
{
    double t = sim_.now();
    for (const auto &es : extra_sims_)
        t = std::max(t, es->now());
    return t;
}

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
    return std::max(boundary_ + cfg_.epoch, now());
}

bool
ServingSim::stepEpoch()
{
    if (sharded())
        return stepEpochSharded();
    if (done())
        return false;

    const double target = nextBoundary();

    // Admission window opens: backlog first, then this epoch's
    // arrivals at their intended times (late ones fire immediately).
    pumping_ = true;
    pump();
    for (const workloads::ArrivalEvent &ev : arrivals_->take(target)) {
        const double when = std::max(ev.at, sim_.now());
        auto boxed = std::make_shared<workloads::ArrivalEvent>(ev);
        sim_.scheduleAt(when, [this, boxed] { admit(*boxed); });
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

bool
ServingSim::stepEpochSharded()
{
    if (done())
        return false;

    const double target = nextBoundary();

    // Admission window opens: backlog first (every shard sits at the
    // same drained time), then this epoch's arrivals — taken up front
    // and admitted at coordinator barriers rather than scheduled as
    // kernel events, which is what gives the shards their lookahead.
    pumping_ = true;
    pump();

    const double epoch_start = now();
    const std::vector<workloads::ArrivalEvent> arrivals =
        arrivals_->take(target);

    // Same stall condition as the single-loop path: anything startable
    // has been started, so a backlog with no pending event anywhere and
    // no arrival left can never make progress.
    if (!queue_.empty() && group_.pendingEvents() == 0 && arrivals.empty())
        fatal("serving stalled: backlog remains but no future event can "
              "free capacity (all tracks down for good?)");

    // Conservative windows while the queue is empty (no admission can
    // happen before the next arrival, so every shard may run freely up
    // to it in parallel); global-order lockstep while backlog could
    // start on any track the moment an event frees one.
    std::size_t ai = 0;
    for (;;) {
        const double due =
            ai < arrivals.size()
                ? std::max(arrivals[ai].at, epoch_start)
                : std::numeric_limits<double>::infinity();
        if (queue_.empty()) {
            const double w = std::min(due, target);
            runWindow(w);
            while (ai < arrivals.size() &&
                   std::max(arrivals[ai].at, epoch_start) <= w)
                admit(arrivals[ai++]);
            if (w >= target)
                break;
        } else {
            const double tmin = group_.nextEventTime();
            if (tmin < due && tmin <= target) {
                // Fire the globally earliest event with every shard
                // clock already at its time, so any admission its
                // callbacks trigger (repair -> pump) schedules work
                // exactly as one global loop would.  When several
                // shards share the head timestamp exactly — routine
                // here, deterministic request sizes keep whole trip
                // chains in lockstep across tracks — the per-shard
                // heaps cannot reproduce the global insertion order,
                // so the tie is drained and replayed instead.
                group_.advanceClocks(tmin);
                std::size_t heads = 0;
                for (std::size_t s = 0; s < parts_.size(); ++s)
                    heads += shardSim(s).nextEventTime() == tmin ? 1u : 0u;
                if (heads > 1)
                    stepTied(tmin);
                else
                    group_.stepMin();
            } else if (due <= target) {
                group_.advanceClocks(due);
                admit(arrivals[ai++]);
            } else {
                group_.advanceClocks(target);
                break;
            }
        }
    }

    // Admission window closes: drain each shard's in-flight requests in
    // parallel, then bring every shard to the fleet finish time so
    // straggling fault/maintenance/plant events fire exactly where a
    // single loop running in global time order would have fired them.
    pumping_ = false;
    windowed_ = true;
    pool_->parallelFor(parts_.size(), [this](std::size_t s) {
        sim::Simulator &psim = shardSim(s);
        ShardPart &part = parts_[s];
        while (part.in_flight > 0) {
            if (psim.step(1) == 0)
                panic("serving drain stalled with requests in flight");
        }
    });
    group_.advanceTo(now());
    windowed_ = false;
    mergeCompletions();

    boundary_ = target;
    ++epochs_;
    return true;
}

void
ServingSim::runWindow(double until)
{
    windowed_ = true;
    group_.advanceTo(until);
    windowed_ = false;
    mergeCompletions();
}

void
ServingSim::stepTied(double when)
{
    // Cross-shard timestamp tie under backlog.  The serial loop fires
    // same-time events in heap insertion order; independent per-shard
    // heaps lost that order, but its observable part — which completion
    // returns its cart and pumps the queue first — is recoverable: ties
    // here come from trip chains running in lockstep (identical request
    // sizes, rooted at a common admission barrier), and such chains
    // were inserted, at every tied generation, in the order they were
    // dispatched.  So: drain every shard's events at exactly `when`
    // with coordinator effects deferred (windowed_), then replay the
    // logged completions in dispatch order, pumping after each just as
    // the serial loop pumps per completion.
    windowed_ = true;
    repair_pump_pending_ = false;
    for (std::size_t s = 0; s < parts_.size(); ++s) {
        sim::Simulator &psim = shardSim(s);
        while (psim.nextEventTime() == when)
            if (psim.step(1) == 0)
                panic("tied step fired no event");
    }
    windowed_ = false;

    std::vector<ShardPart::Done> dones;
    for (ShardPart &p : parts_) {
        dones.insert(dones.end(), p.log.begin(), p.log.end());
        p.log.clear();
    }
    std::sort(dones.begin(), dones.end(),
              [](const ShardPart::Done &a, const ShardPart::Done &b) {
                  return a.rank < b.rank; // `when` is equal throughout
              });
    for (const ShardPart::Done &d : dones) {
        tracks_[d.track].pool.push_back(d.cart);
        slo_[static_cast<std::size_t>(d.stage)].complete(d.latency,
                                                         d.bytes);
        ++served_;
        --in_flight_;
        pump();
    }
    // Repair and maintenance-release callbacks that fired during the
    // drain had their pumps suppressed; one pump over the final state
    // covers them (the serial loop's per-event pumps see the same
    // pools once every same-time release has been applied).  Skipped
    // when nothing asked: the serial loop does not pump on plain
    // controller events, and an extra pump here could start work early.
    if (repair_pump_pending_) {
        repair_pump_pending_ = false;
        pump();
    }
}

void
ServingSim::mergeCompletions()
{
    // (time, dispatch-rank) order: rank is globally unique, so the
    // merge is a total order independent of the shard layout, and at
    // exact timestamp ties it reproduces the serial loop's insertion
    // order for the lockstep trip chains that produce such ties (a
    // chain dispatched earlier was inserted earlier at every tied
    // generation).  Cart returns happen here, in merge order, so the
    // per-track pools refill in the same LIFO order as one global loop.
    std::vector<ShardPart::Done> dones;
    for (ShardPart &p : parts_) {
        dones.insert(dones.end(), p.log.begin(), p.log.end());
        p.log.clear();
    }
    std::sort(dones.begin(), dones.end(),
              [](const ShardPart::Done &a, const ShardPart::Done &b) {
                  return a.when != b.when ? a.when < b.when
                                          : a.rank < b.rank;
              });
    for (const ShardPart::Done &d : dones) {
        tracks_[d.track].pool.push_back(d.cart);
        slo_[static_cast<std::size_t>(d.stage)].complete(d.latency,
                                                         d.bytes);
        ++served_;
        --in_flight_;
    }
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
    case ops::DispatchPolicy::Te: // rejected by validate(); see --te
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
    if (sharded())
        ++parts_[shard_of_[t]].in_flight;

    const double trips =
        std::max(1.0, std::ceil(ev.bytes / cart_capacity_));
    auto active = std::make_shared<Active>(
        Active{ev, t, cart, static_cast<std::uint64_t>(trips),
               next_rank_++});
    runTrip(active);
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

    core::RequestMeta meta;
    meta.priority = ev.priority;
    const te::TeDecision d = te_->decide(tenant, ev.bytes, meta);

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
    // During a parallel window the queue is empty by construction
    // (windows only open then), so the single-loop pump would scan
    // nothing and return; skipping it outright keeps worker-thread
    // repair callbacks away from coordinator state.
    if (!pumping_ || windowed_) {
        // A repair/maintenance-release callback inside a tied-timestamp
        // drain wanted to pump; stepTied() replays it at the barrier.
        if (pumping_ && windowed_)
            repair_pump_pending_ = true;
        return;
    }
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
                core::RequestMeta meta;
                meta.priority = it->ev.priority;
                if (!te_->decide(tenantOf(it->ev), it->ev.bytes, meta)
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
ServingSim::runTrip(const std::shared_ptr<Active> &a)
{
    core::DhlController &ctl = *tracks_[a->track].controller;
    ctl.open(a->cart, [this, a](core::Cart &, core::DockingStation &) {
        tracks_[a->track].controller->close(a->cart, [this, a](core::Cart &) {
            if (--a->trips_left > 0)
                runTrip(a);
            else
                finishRequest(*a);
        });
    });
}

void
ServingSim::finishRequest(const Active &a)
{
    const std::size_t stage = static_cast<std::size_t>(a.ev.stage);
    if (windowed_) {
        // Coordinator-deferred phase: touch shard-local state only
        // (the shard in-flight count) and log everything else — the
        // coordinator replays the log at the next barrier in
        // (time, dispatch-rank) order, returning the cart and running
        // the pump exactly where the serial loop would have.
        ShardPart &part = parts_[shard_of_[a.track]];
        const double when = simOf(a.track).now();
        part.log.push_back(ShardPart::Done{when, a.ev.stage,
                                           when - a.ev.at, a.ev.bytes,
                                           a.track, a.cart, a.rank});
        --part.in_flight;
        return;
    }
    const double latency = simOf(a.track).now() - a.ev.at;
    slo_[stage].complete(latency, a.ev.bytes);
    if (te_)
        classSlo(tenantOf(a.ev), te::Substrate::Dhl)
            .complete(latency, a.ev.bytes);
    ++served_;
    tracks_[a.track].pool.push_back(a.cart);
    --in_flight_;
    if (sharded())
        --parts_[shard_of_[a.track]].in_flight;
    pump();
}

//===========================================================================
// Checkpoint/restore
//===========================================================================

void
ServingSim::saveFingerprint(sim::SnapshotWriter &w) const
{
    sim::SnapshotScope<sim::SnapshotWriter> scope(w, "config");
    w.putU64("tracks", cfg_.tracks);
    w.putU64("seed", cfg_.seed);
    w.putDouble("epoch", cfg_.epoch);
    w.putU64("carts_per_track", cfg_.carts_per_track);
    w.putU64("max_pending", cfg_.max_pending);
    w.putString("policy", ops::to_string(cfg_.policy));
    w.putI64("min_priority_degraded", cfg_.min_priority_degraded);
    w.putBool("faults", cfg_.faults.enabled);
    w.putU64("maintenance_windows", cfg_.maintenance.windows.size());
    w.putBool("domains", cfg_.domains.enabled);
    w.putU64("des_shards", numShards());
    w.putBool("te", cfg_.te.enabled);
    if (cfg_.te.enabled) {
        sim::SnapshotScope<sim::SnapshotWriter> ts(w, "te");
        w.putString("mode", te::to_string(cfg_.te.mode));
        w.putDouble("period", cfg_.te.control_period);
        w.putDouble("small_bytes", cfg_.te.small_bytes);
        w.putDouble("optical_capacity", cfg_.te.optical_capacity);
        w.putDouble("dhl_capacity", cfg_.te.dhl_capacity);
        w.putString("route", cfg_.te.route);
        w.putDouble("headroom", cfg_.te.headroom);
        w.putDouble("multiplier", cfg_.te.usage_multiplier);
        w.putU64("history", cfg_.te.history);
        w.putI64("floor", cfg_.te.min_priority_contended);
    }
    w.putU64("stages", cfg_.stages.size());
    for (std::size_t i = 0; i < cfg_.stages.size(); ++i) {
        const workloads::StageSpec &s = cfg_.stages[i];
        std::string key("stage");
        key += std::to_string(i);
        sim::SnapshotScope<sim::SnapshotWriter> ss(w, key);
        w.putString("name", s.name);
        w.putDouble("duration", s.duration);
        w.putDouble("start_rate", s.start_rate);
        w.putDouble("end_rate", s.end_rate);
        w.putU64("classes", s.mix.size());
        for (std::size_t c = 0; c < s.mix.size(); ++c) {
            const workloads::RequestClass &rc = s.mix[c];
            std::string ck("class");
            ck += std::to_string(c);
            sim::SnapshotScope<sim::SnapshotWriter> cs(w, ck);
            w.putString("tag", rc.tag);
            w.putDouble("weight", rc.weight);
            w.putDouble("median_bytes", rc.median_bytes);
            w.putDouble("sigma", rc.sigma);
            w.putI64("priority", rc.priority);
        }
    }
}

void
ServingSim::checkFingerprint(sim::SnapshotReader &r) const
{
    sim::SnapshotScope<sim::SnapshotReader> scope(r, "config");
    fatal_if(r.getU64("tracks") != cfg_.tracks ||
                 r.getU64("seed") != cfg_.seed ||
                 r.getDouble("epoch") != cfg_.epoch ||
                 r.getU64("carts_per_track") != cfg_.carts_per_track ||
                 r.getU64("max_pending") != cfg_.max_pending ||
                 r.getString("policy") != ops::to_string(cfg_.policy) ||
                 r.getI64("min_priority_degraded") !=
                     cfg_.min_priority_degraded ||
                 r.getBool("faults") != cfg_.faults.enabled ||
                 r.getU64("maintenance_windows") !=
                     cfg_.maintenance.windows.size() ||
                 r.getBool("domains") != cfg_.domains.enabled ||
                 r.getU64("des_shards") != numShards() ||
                 r.getBool("te") != cfg_.te.enabled ||
                 r.getU64("stages") != cfg_.stages.size(),
             "serving checkpoint belongs to a different configuration");
    if (cfg_.te.enabled) {
        sim::SnapshotScope<sim::SnapshotReader> ts(r, "te");
        fatal_if(r.getString("mode") != te::to_string(cfg_.te.mode) ||
                     r.getDouble("period") != cfg_.te.control_period ||
                     r.getDouble("small_bytes") != cfg_.te.small_bytes ||
                     r.getDouble("optical_capacity") !=
                         cfg_.te.optical_capacity ||
                     r.getDouble("dhl_capacity") != cfg_.te.dhl_capacity ||
                     r.getString("route") != cfg_.te.route ||
                     r.getDouble("headroom") != cfg_.te.headroom ||
                     r.getDouble("multiplier") !=
                         cfg_.te.usage_multiplier ||
                     r.getU64("history") != cfg_.te.history ||
                     r.getI64("floor") != cfg_.te.min_priority_contended,
                 "serving checkpoint TE configuration does not match");
    }
    for (std::size_t i = 0; i < cfg_.stages.size(); ++i) {
        const workloads::StageSpec &s = cfg_.stages[i];
        std::string key("stage");
        key += std::to_string(i);
        sim::SnapshotScope<sim::SnapshotReader> ss(r, key);
        fatal_if(r.getString("name") != s.name ||
                     r.getDouble("duration") != s.duration ||
                     r.getDouble("start_rate") != s.start_rate ||
                     r.getDouble("end_rate") != s.end_rate ||
                     r.getU64("classes") != s.mix.size(),
                 "serving checkpoint stage profile does not match");
        for (std::size_t c = 0; c < s.mix.size(); ++c) {
            const workloads::RequestClass &rc = s.mix[c];
            std::string ck("class");
            ck += std::to_string(c);
            sim::SnapshotScope<sim::SnapshotReader> cs(r, ck);
            fatal_if(r.getString("tag") != rc.tag ||
                         r.getDouble("weight") != rc.weight ||
                         r.getDouble("median_bytes") != rc.median_bytes ||
                         r.getDouble("sigma") != rc.sigma ||
                         r.getI64("priority") != rc.priority,
                     "serving checkpoint traffic mix does not match");
        }
    }
}

void
ServingSim::checkpoint(std::ostream &os) const
{
    fatal_if(in_flight_ != 0,
             "serving checkpoint requires a drained epoch boundary");
    sim::SnapshotWriter w(os);
    saveFingerprint(w);

    {
        sim::SnapshotScope<sim::SnapshotWriter> scope(w, "serve");
        w.putU64("epochs", epochs_);
        w.putDouble("boundary", boundary_);
        w.putU64("rr_next", rr_next_);
        w.putU64("served", served_);
        w.putU64("queued", queue_.size());
        for (std::size_t i = 0; i < queue_.size(); ++i) {
            const workloads::ArrivalEvent &ev = queue_[i].ev;
            std::string key("q");
            key += std::to_string(i);
            sim::SnapshotScope<sim::SnapshotWriter> qs(w, key);
            w.putDouble("at", ev.at);
            w.putDouble("bytes", ev.bytes);
            w.putString("tag", ev.tag);
            w.putI64("stage", ev.stage);
            w.putI64("priority", ev.priority);
        }
        for (std::size_t i = 0; i < slo_.size(); ++i) {
            const stats::SloAccumulator &s = slo_[i];
            std::string key("s");
            key += std::to_string(i);
            sim::SnapshotScope<sim::SnapshotWriter> ss(w, key);
            w.putU64("offered", s.offered());
            w.putU64("deferred", s.deferred());
            w.putU64("shed", s.shed());
            w.putDouble("bytes", s.bytesDelivered());
            w.putU64("samples", s.latencies().size());
            for (std::size_t j = 0; j < s.latencies().size(); ++j) {
                std::string lk("l");
                lk += std::to_string(j);
                w.putDouble(lk, s.latencies()[j]);
            }
        }
    }

    sim_.saveState(w);
    trace_.saveState(w);
    arrivals_->saveState(w);
    for (std::size_t s = 1; s < numShards(); ++s) {
        std::string key("shard");
        key += std::to_string(s);
        sim::SnapshotScope<sim::SnapshotWriter> ss(w, key);
        extra_sims_[s - 1]->saveState(w);
        extra_traces_[s - 1]->saveState(w);
    }
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
        std::string key("t");
        key += std::to_string(t);
        sim::SnapshotScope<sim::SnapshotWriter> ts(w, key);
        tracks_[t].controller->saveState(w);
        tracks_[t].state->saveState(w);
        if (tracks_[t].injector)
            tracks_[t].injector->saveState(w);
        // Pool *order* matters: which cart serves a trip decides which
        // per-cart breakdown stream the trip consumes, so a restored
        // fleet must hand out carts in the identical sequence.
        w.putU64("pool", tracks_[t].pool.size());
        for (std::size_t i = 0; i < tracks_[t].pool.size(); ++i) {
            std::string pk("p");
            pk += std::to_string(i);
            w.putU64(pk, tracks_[t].pool[i]);
        }
    }
    if (maintenance_)
        maintenance_->saveState(w);
    if (plants_)
        plants_->saveState(w);
    if (te_) {
        // The drained boundary has zero active flows, so the FlowSim
        // itself holds no dynamic state worth keeping; the serve layer
        // checkpoints its own optical accumulators instead.
        sim::SnapshotScope<sim::SnapshotWriter> ts(w, "te");
        w.putDouble("optical_energy", optical_energy_);
        w.putU64("optical_served", optical_served_);
        w.putU64("downgrades", te_downgrades_);
        for (std::size_t i = 0; i < class_slo_.size(); ++i) {
            const stats::SloAccumulator &s = class_slo_[i];
            std::string key("c");
            key += std::to_string(i);
            sim::SnapshotScope<sim::SnapshotWriter> cs(w, key);
            w.putU64("offered", s.offered());
            w.putU64("deferred", s.deferred());
            w.putU64("shed", s.shed());
            w.putDouble("bytes", s.bytesDelivered());
            w.putU64("samples", s.latencies().size());
            for (std::size_t j = 0; j < s.latencies().size(); ++j) {
                std::string lk("l");
                lk += std::to_string(j);
                w.putDouble(lk, s.latencies()[j]);
            }
        }
        sim::SnapshotScope<sim::SnapshotWriter> ctl(w, "ctl");
        te_->saveState(w);
    }
    for (std::size_t s = 0; s < parts_.size(); ++s) {
        const ShardPart &part = parts_[s];
        if (part.maintenance) {
            std::string key("m");
            key += std::to_string(s);
            sim::SnapshotScope<sim::SnapshotWriter> ms(w, key);
            part.maintenance->saveState(w);
        }
        if (part.plants) {
            std::string key("p");
            key += std::to_string(s);
            sim::SnapshotScope<sim::SnapshotWriter> ps(w, key);
            part.plants->saveState(w);
        }
    }
}

void
ServingSim::restore(std::istream &is)
{
    fatal_if(epochs_ != 0 || sim_.now() != 0.0,
             "serving restore requires a freshly constructed fleet");
    sim::SnapshotReader r(is);
    checkFingerprint(r);

    // Empty the event queue: every constructor-scheduled event belongs
    // to a stoppable process, and Simulator::restoreState requires a
    // drained kernel before it rewinds the clock.
    for (TrackSystem &ts : tracks_)
        if (ts.injector)
            ts.injector->stop();
    if (maintenance_)
        maintenance_->stop();
    if (plants_)
        plants_->stop();
    for (ShardPart &part : parts_) {
        if (part.maintenance)
            part.maintenance->stop();
        if (part.plants)
            part.plants->stop();
    }
    if (te_)
        te_->stop();
    std::size_t pending = sim_.pendingEvents();
    for (const auto &es : extra_sims_)
        pending += es->pendingEvents();
    fatal_if(pending != 0,
             "serving restore found unexpected pending events");

    sim_.restoreState(r);
    trace_.restoreState(r);
    arrivals_->restoreState(r);
    for (std::size_t s = 1; s < numShards(); ++s) {
        std::string key("shard");
        key += std::to_string(s);
        sim::SnapshotScope<sim::SnapshotReader> ss(r, key);
        extra_sims_[s - 1]->restoreState(r);
        extra_traces_[s - 1]->restoreState(r);
    }
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
        std::string key("t");
        key += std::to_string(t);
        sim::SnapshotScope<sim::SnapshotReader> ts(r, key);
        tracks_[t].controller->restoreState(r);
        tracks_[t].state->restoreState(r);
        if (tracks_[t].injector)
            tracks_[t].injector->restoreState(r);
        fatal_if(r.getU64("pool") != tracks_[t].pool.size(),
                 "serving restore: cart pool size does not match");
        for (std::size_t i = 0; i < tracks_[t].pool.size(); ++i) {
            std::string pk("p");
            pk += std::to_string(i);
            tracks_[t].pool[i] =
                static_cast<core::CartId>(r.getU64(pk));
        }
    }
    if (maintenance_)
        maintenance_->restoreState(r);
    if (plants_)
        plants_->restoreState(r);
    if (te_) {
        sim::SnapshotScope<sim::SnapshotReader> ts(r, "te");
        optical_energy_ = r.getDouble("optical_energy");
        optical_served_ = r.getU64("optical_served");
        te_downgrades_ = r.getU64("downgrades");
        for (std::size_t i = 0; i < class_slo_.size(); ++i) {
            std::string key("c");
            key += std::to_string(i);
            sim::SnapshotScope<sim::SnapshotReader> cs(r, key);
            const std::uint64_t samples = r.getU64("samples");
            // Not reserved: a corrupt count must end at a missing key.
            std::vector<double> latencies;
            for (std::uint64_t j = 0; j < samples; ++j) {
                std::string lk("l");
                lk += std::to_string(j);
                latencies.push_back(r.getDouble(lk));
            }
            class_slo_[i].restore(r.getU64("offered"),
                                  r.getU64("deferred"), r.getU64("shed"),
                                  r.getDouble("bytes"),
                                  std::move(latencies));
        }
        sim::SnapshotScope<sim::SnapshotReader> ctl(r, "ctl");
        te_->restoreState(r);
    }
    for (std::size_t s = 0; s < parts_.size(); ++s) {
        ShardPart &part = parts_[s];
        if (part.maintenance) {
            std::string key("m");
            key += std::to_string(s);
            sim::SnapshotScope<sim::SnapshotReader> ms(r, key);
            part.maintenance->restoreState(r);
        }
        if (part.plants) {
            std::string key("p");
            key += std::to_string(s);
            sim::SnapshotScope<sim::SnapshotReader> ps(r, key);
            part.plants->restoreState(r);
        }
    }

    sim::SnapshotScope<sim::SnapshotReader> scope(r, "serve");
    epochs_ = r.getU64("epochs");
    boundary_ = r.getDouble("boundary");
    rr_next_ = r.getU64("rr_next");
    served_ = r.getU64("served");
    queue_.clear();
    const std::uint64_t queued = r.getU64("queued");
    for (std::uint64_t i = 0; i < queued; ++i) {
        std::string key("q");
        key += std::to_string(i);
        sim::SnapshotScope<sim::SnapshotReader> qs(r, key);
        workloads::ArrivalEvent ev;
        ev.at = r.getDouble("at");
        ev.bytes = r.getDouble("bytes");
        ev.tag = r.getString("tag");
        ev.stage = static_cast<int>(r.getI64("stage"));
        ev.priority = static_cast<int>(r.getI64("priority"));
        queue_.push_back(Queued{ev});
    }
    for (std::size_t i = 0; i < slo_.size(); ++i) {
        std::string key("s");
        key += std::to_string(i);
        sim::SnapshotScope<sim::SnapshotReader> ss(r, key);
        const std::uint64_t samples = r.getU64("samples");
        // Not reserved: a corrupt count must end at a missing key.
        std::vector<double> latencies;
        for (std::uint64_t j = 0; j < samples; ++j) {
            std::string lk("l");
            lk += std::to_string(j);
            latencies.push_back(r.getDouble(lk));
        }
        slo_[i].restore(r.getU64("offered"), r.getU64("deferred"),
                        r.getU64("shed"), r.getDouble("bytes"),
                        std::move(latencies));
    }
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
        std::min(start + cfg_.stages[stage].duration, now());
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
        row.p50 = s.latencyPercentile(50.0);
        row.p99 = s.latencyPercentile(99.0);
        row.p999 = s.latencyPercentile(99.9);
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
            row.p50 = acc.latencyPercentile(50.0);
            row.p99 = acc.latencyPercentile(99.0);
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
    for (const auto &es : extra_sims_)
        es->statsGroup().dump(os);
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
    for (const ShardPart &part : parts_) {
        if (part.maintenance)
            part.maintenance->statsGroup().dump(os);
        if (part.plants)
            part.plants->statsGroup().dump(os);
    }
}

} // namespace serve
} // namespace dhl
