/**
 * @file
 * Implementation of the common-cause failure model.
 */

#include "ops/correlated.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace dhl {
namespace ops {

namespace {

constexpr double kSecondsPerHour = 3600.0;

/** Clamp as in the per-component injector: a zero-rounded exponential
 *  draw must not land an outage at the exact restore instant. */
constexpr double kMinUptime = 1e-9;

/** deriveSeed salt for the per-domain streams, disjoint from every
 *  FaultInjector stream index ("PLANT"). */
constexpr std::uint64_t kPlantStreamSalt = 0x504c414e54ull;

} // namespace

void
validate(const SharedDomainConfig &cfg)
{
    fatal_if(cfg.domain_size == 0,
             "shared-plant domains need at least one track");
    fatal_if(!(cfg.plant_mtbf > 0.0), "plant MTBF must be positive");
    fatal_if(cfg.plant_mttr < 0.0, "plant MTTR must be non-negative");
    fatal_if(!(cfg.horizon > 0.0), "plant horizon must be positive");
}

CorrelatedFaultModel::CorrelatedFaultModel(
    sim::Simulator &sim, std::vector<faults::FaultState *> states,
    const SharedDomainConfig &cfg)
    : sim::SimObject(sim, "plants"),
      cfg_(cfg),
      tracks_(states.size())
{
    fatal_if(!cfg.enabled,
             "correlated fault model built from a disabled config");
    validate(cfg_);
    fatal_if(states.empty(),
             "correlated fault model needs at least one track registry");
    for (const auto *state : states)
        fatal_if(state == nullptr, "null fault registry");

    auto &sg = statsGroup();
    stat_outages_ =
        &sg.addCounter("outages", "common-cause plant outages injected");
    stat_restores_ =
        &sg.addCounter("restores", "common-cause plant restorations");

    const std::size_t n_domains =
        (states.size() + cfg_.domain_size - 1) / cfg_.domain_size;
    plants_.reserve(n_domains);
    for (std::size_t d = 0; d < n_domains; ++d) {
        Plant plant{{},
                    Rng(deriveSeed(cfg_.seed, kPlantStreamSalt + d)),
                    false,
                    sim::EventHandle{},
                    false,
                    0.0,
                    false};
        const std::size_t lo = d * cfg_.domain_size;
        const std::size_t hi =
            std::min(lo + cfg_.domain_size, states.size());
        for (std::size_t t = lo; t < hi; ++t)
            plant.members.push_back(states[t]);
        plants_.push_back(std::move(plant));
    }
    for (std::size_t d = 0; d < plants_.size(); ++d)
        scheduleOutage(d);
}

std::size_t
CorrelatedFaultModel::domainOf(std::size_t track) const
{
    fatal_if(track >= tracks_, "track index out of range");
    return track / cfg_.domain_size;
}

bool
CorrelatedFaultModel::plantDown(std::size_t domain) const
{
    fatal_if(domain >= plants_.size(), "domain index out of range");
    return plants_[domain].down;
}

std::string
CorrelatedFaultModel::reason(std::size_t domain) const
{
    return "vacuum plant " + std::to_string(domain) +
           " down";
}

void
CorrelatedFaultModel::scheduleOutage(std::size_t domain)
{
    Plant &plant = plants_[domain];
    plant.has_pending = false;
    const double uptime =
        std::max(plant.rng.exponential(cfg_.plant_mtbf * kSecondsPerHour),
                 kMinUptime);
    if (now() + uptime >= cfg_.horizon)
        return; // past the horizon: this plant trips no more
    plant.has_pending = true;
    plant.pending_when = now() + uptime;
    plant.pending_is_restore = false;
    plant.pending = schedule(uptime, [this, domain] { beginOutage(domain); });
}

void
CorrelatedFaultModel::beginOutage(std::size_t domain)
{
    Plant &p = plants_[domain];
    p.down = true;
    ++outages_;
    stat_outages_->increment();
    for (auto *state : p.members)
        state->pushLaunchInhibit(reason(domain));
    const double mttr = cfg_.plant_mttr * kSecondsPerHour;
    p.has_pending = true;
    p.pending_when = now() + mttr;
    p.pending_is_restore = true;
    p.pending = schedule(mttr, [this, domain] { finishOutage(domain); });
}

void
CorrelatedFaultModel::finishOutage(std::size_t domain)
{
    Plant &p = plants_[domain];
    for (auto *state : p.members)
        state->popLaunchInhibit(reason(domain));
    p.down = false;
    stat_restores_->increment();
    scheduleOutage(domain);
}

void
CorrelatedFaultModel::stop()
{
    for (auto &p : plants_) {
        simulator().cancel(p.pending);
        p.has_pending = false;
    }
}

void
CorrelatedFaultModel::saveState(sim::SnapshotWriter &w) const
{
    sim::SnapshotScope<sim::SnapshotWriter> scope(w, "plants");
    w.putU64("domains", plants_.size());
    for (std::size_t d = 0; d < plants_.size(); ++d) {
        const Plant &p = plants_[d];
        std::string key("d");
        key += std::to_string(d);
        sim::SnapshotScope<sim::SnapshotWriter> ds(w, key);
        w.putRng("rng", p.rng);
        w.putBool("down", p.down);
        w.putBool("pending", p.has_pending);
        if (p.has_pending) {
            w.putDouble("when", p.pending_when);
            w.putBool("is_restore", p.pending_is_restore);
        }
    }
    w.putU64("outages", outages_);
}

void
CorrelatedFaultModel::restoreState(sim::SnapshotReader &r)
{
    for (auto &p : plants_) {
        simulator().cancel(p.pending);
        p.has_pending = false;
    }

    sim::SnapshotScope<sim::SnapshotReader> scope(r, "plants");
    fatal_if(r.getU64("domains") != plants_.size(),
             "plant restore: domain count does not match the checkpoint");
    for (std::size_t d = 0; d < plants_.size(); ++d) {
        Plant &p = plants_[d];
        std::string key("d");
        key += std::to_string(d);
        sim::SnapshotScope<sim::SnapshotReader> ds(r, key);
        r.getRng("rng", p.rng);
        p.down = r.getBool("down");
        p.has_pending = r.getBool("pending");
        if (!p.has_pending)
            continue;
        p.pending_when = r.getDouble("when");
        p.pending_is_restore = r.getBool("is_restore");
        const std::size_t dom = d;
        p.pending = p.pending_is_restore
                        ? simulator().scheduleAt(
                              p.pending_when,
                              [this, dom] { finishOutage(dom); })
                        : simulator().scheduleAt(
                              p.pending_when,
                              [this, dom] { beginOutage(dom); });
    }
    outages_ = r.getU64("outages");
}

} // namespace ops
} // namespace dhl
