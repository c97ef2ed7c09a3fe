/**
 * @file
 * Implementation of the fault injector.
 */

#include "faults/fault_injector.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "sim/snapshot.hpp"

namespace dhl {
namespace faults {

namespace {

constexpr double kSecondsPerHour = 3600.0;

/** Exponential draws of mean ~MTBF can round to zero; clamp so a
 *  failure never lands at the exact instant of the preceding repair
 *  (which would violate the fail/repair alternation). */
constexpr double kMinUptime = 1e-9;

/** Stream indices for deriveSeed: one per component, disjoint from the
 *  two-level cart derivation below. */
constexpr std::uint64_t kLimStreamBase = 1;     // lims: 1, 2
constexpr std::uint64_t kTrackStream = 3;       // track: 3
constexpr std::uint64_t kStationStreamBase = 4; // stations: 4, 5, ...
constexpr std::uint64_t kCartStreamSalt = 0x4341525453ull; // "CARTS"

} // namespace

bool
operator==(const FaultConfig &a, const FaultConfig &b)
{
    return a.enabled == b.enabled && a.seed == b.seed &&
           a.horizon == b.horizon && a.lim_mtbf == b.lim_mtbf &&
           a.lim_mttr == b.lim_mttr && a.track_mtbf == b.track_mtbf &&
           a.track_mttr == b.track_mttr &&
           a.station_mtbf == b.station_mtbf &&
           a.station_mttr == b.station_mttr &&
           a.cart_repair_per_trip == b.cart_repair_per_trip &&
           a.cart_repair_hours == b.cart_repair_hours &&
           a.retry == b.retry;
}

void
validate(const FaultConfig &cfg)
{
    fatal_if(!(cfg.lim_mtbf > 0.0) || !(cfg.track_mtbf > 0.0) ||
                 !(cfg.station_mtbf > 0.0),
             "MTBFs must be positive");
    fatal_if(cfg.lim_mttr < 0.0 || cfg.track_mttr < 0.0 ||
                 cfg.station_mttr < 0.0,
             "MTTRs must be non-negative");
    fatal_if(cfg.cart_repair_per_trip < 0.0 ||
                 cfg.cart_repair_per_trip > 1.0,
             "cart repair probability must be in [0, 1]");
    fatal_if(cfg.cart_repair_hours < 0.0,
             "cart repair turnaround must be non-negative");
    fatal_if(!(cfg.horizon > 0.0), "fault horizon must be positive");
    fatal_if(!(cfg.retry.initial_backoff > 0.0),
             "retry backoff must be positive");
    fatal_if(cfg.retry.multiplier < 1.0,
             "retry backoff multiplier must be >= 1");
    fatal_if(cfg.retry.max_backoff < cfg.retry.initial_backoff,
             "retry backoff ceiling must be >= the initial backoff");
}

FaultInjector::FaultInjector(sim::Simulator &sim, FaultState &state,
                             const FaultConfig &cfg, std::size_t stations,
                             std::string name)
    : sim::SimObject(sim, std::move(name)),
      state_(state),
      cfg_(cfg),
      cart_stream_base_(deriveSeed(cfg.seed, kCartStreamSalt))
{
    validate(cfg_);

    auto &sg = statsGroup();
    stat_failures_ =
        &sg.addCounter("failures", "component failures injected");
    stat_repairs_ =
        &sg.addCounter("repairs", "component repairs completed");
    stat_cart_repairs_ =
        &sg.addCounter("cart_repairs", "per-trip cart breakdowns");

    if (!cfg_.enabled)
        return;

    state_.setRetryPolicy(cfg_.retry);
    state_.setBreakdownRoll(
        [this](std::uint32_t cart) { return rollBreakdown(cart); });

    addUnit(Component::Lim, 0, cfg_.lim_mtbf, cfg_.lim_mttr,
            kLimStreamBase);
    addUnit(Component::Lim, 1, cfg_.lim_mtbf, cfg_.lim_mttr,
            kLimStreamBase + 1);
    addUnit(Component::Track, 0, cfg_.track_mtbf, cfg_.track_mttr,
            kTrackStream);
    for (std::size_t i = 0; i < stations; ++i) {
        addUnit(Component::Station, static_cast<std::uint32_t>(i),
                cfg_.station_mtbf, cfg_.station_mttr,
                kStationStreamBase + i);
    }
    for (std::size_t u = 0; u < units_.size(); ++u)
        scheduleFailure(u);
}

void
FaultInjector::addUnit(Component kind, std::uint32_t index,
                       double mtbf_hours, double mttr_hours,
                       std::uint64_t stream)
{
    state_.addComponent(kind, index);
    units_.push_back(Unit{kind, index, mtbf_hours * kSecondsPerHour,
                          mttr_hours * kSecondsPerHour,
                          Rng(deriveSeed(cfg_.seed, stream)),
                          sim::EventHandle{}});
}

void
FaultInjector::setBreakdownScale(BreakdownScale scale)
{
    breakdown_scale_ = std::move(scale);
}

void
FaultInjector::setMtbfScale(MtbfScale scale)
{
    mtbf_scale_ = std::move(scale);
}

void
FaultInjector::scheduleFailure(std::size_t unit)
{
    Unit &u = units_[unit];
    u.has_pending = false;
    double mtbf = u.mtbf;
    if (mtbf_scale_) {
        const double factor = mtbf_scale_(u.kind, u.index);
        fatal_if(!(factor > 0.0), "MTBF scale factor must be positive");
        mtbf *= factor;
    }
    const double uptime =
        std::max(u.rng.exponential(mtbf), kMinUptime);
    const double fail_at = now() + uptime;
    if (fail_at >= cfg_.horizon)
        return; // past the horizon: this component fails no more
    u.has_pending = true;
    u.pending_when = fail_at;
    u.pending_is_repair = false;
    u.pending = schedule(uptime, [this, unit] { failUnit(unit); });
}

void
FaultInjector::failUnit(std::size_t unit)
{
    Unit &u = units_[unit];
    state_.fail(u.kind, u.index);
    ++injected_;
    stat_failures_->increment();
    u.has_pending = true;
    u.pending_when = now() + u.mttr;
    u.pending_is_repair = true;
    u.pending = schedule(u.mttr, [this, unit] { repairUnit(unit); });
}

void
FaultInjector::repairUnit(std::size_t unit)
{
    Unit &u = units_[unit];
    state_.repair(u.kind, u.index);
    ++injected_;
    stat_repairs_->increment();
    scheduleFailure(unit);
}

bool
FaultInjector::rollBreakdown(std::uint32_t cart)
{
    if (cfg_.cart_repair_per_trip <= 0.0)
        return false; // never touch the stream: zero probability is free
    double p = cfg_.cart_repair_per_trip;
    if (breakdown_scale_) {
        const double factor = breakdown_scale_(cart);
        fatal_if(factor < 0.0,
                 "breakdown scale factor must be non-negative");
        p = std::min(p * factor, 1.0);
    }
    // Look the cart up first: an Rng is built on its first roll only.
    auto it = cart_rngs_.find(cart);
    if (it == cart_rngs_.end()) {
        it = cart_rngs_
                 .try_emplace(cart, deriveSeed(cart_stream_base_, cart))
                 .first;
    }
    if (it->second.uniform() >= p)
        return false;
    state_.sendCartToRepair(cart,
                            cfg_.cart_repair_hours * kSecondsPerHour);
    ++injected_;
    stat_cart_repairs_->increment();
    return true;
}

void
FaultInjector::stop()
{
    for (auto &u : units_) {
        simulator().cancel(u.pending);
        u.has_pending = false;
    }
}

template <typename IO>
void
FaultInjector::snapshot(IO &io)
{
    // Drop the constructor-scheduled first failures; the checkpoint
    // says what is actually pending.
    if constexpr (IO::loading)
        stop();

    sim::SnapshotScope scope(io, "injector");
    fatal_if(!io.match("units", units_.size()),
             "injector restore: unit count does not match the "
             "checkpoint");
    for (std::size_t i = 0; i < units_.size(); ++i) {
        Unit &u = units_[i];
        sim::SnapshotScope us(io, sim::IndexedKey("u", i));
        io.field("rng", u.rng);
        io.field("pending", u.has_pending);
        if (!u.has_pending)
            continue;
        io.field("when", u.pending_when);
        io.field("is_repair", u.pending_is_repair);
        if constexpr (IO::loading) {
            const std::size_t unit = i;
            u.pending = u.pending_is_repair
                            ? simulator().scheduleAt(
                                  u.pending_when,
                                  [this, unit] { repairUnit(unit); })
                            : simulator().scheduleAt(
                                  u.pending_when,
                                  [this, unit] { failUnit(unit); });
        }
    }

    std::vector<std::uint32_t> cart_ids;
    if constexpr (!IO::loading) {
        for (const auto &[id, rng] : cart_rngs_)
            cart_ids.push_back(id);
        std::sort(cart_ids.begin(), cart_ids.end());
    }
    std::uint64_t n_carts = cart_ids.size();
    io.field("carts", n_carts);
    if constexpr (IO::loading)
        cart_rngs_.clear();
    for (std::uint64_t i = 0; i < n_carts; ++i) {
        sim::SnapshotScope cs(io, sim::IndexedKey("cart", i));
        if constexpr (IO::loading)
            cart_ids.emplace_back();
        io.field("id", cart_ids[i]);
        // A restore inserts a placeholder stream that the read
        // overwrites wholesale.
        io.field("rng", cart_rngs_[cart_ids[i]]);
    }
    io.field("injected", injected_);
}

template void FaultInjector::snapshot(sim::SnapshotWriter &);
template void FaultInjector::snapshot(sim::SnapshotReader &);

} // namespace faults
} // namespace dhl
