#include "te/controller.hpp"

#include "common/logging.hpp"
#include "sim/snapshot.hpp"

namespace dhl {
namespace te {

const char *to_string(Substrate s)
{
    switch (s) {
    case Substrate::Dhl: return "dhl";
    case Substrate::Optical: return "optical";
    }
    panic("unknown substrate");
}

const char *to_string(TeMode m)
{
    switch (m) {
    case TeMode::DhlOnly: return "dhl-only";
    case TeMode::OpticalOnly: return "optical-only";
    case TeMode::Hybrid: return "hybrid";
    }
    panic("unknown TE mode");
}

TeMode parseTeMode(const std::string &s)
{
    if (s == "dhl-only")
        return TeMode::DhlOnly;
    if (s == "optical-only")
        return TeMode::OpticalOnly;
    if (s == "hybrid")
        return TeMode::Hybrid;
    fatal("unknown TE mode '" + s +
          "' (expected dhl-only, optical-only or hybrid)");
}

void validate(const TeConfig &cfg)
{
    if (!cfg.enabled)
        return;
    fatal_if(cfg.control_period <= 0.0, "te: control period must be > 0");
    fatal_if(cfg.horizon < 0.0, "te: horizon must be >= 0");
    fatal_if(cfg.small_bytes <= 0.0, "te: small_bytes must be > 0");
    fatal_if(cfg.optical_capacity <= 0.0,
             "te: optical capacity must be > 0");
    fatal_if(cfg.dhl_capacity < 0.0, "te: DHL capacity must be >= 0");
    fatal_if(cfg.headroom <= 0.0 || cfg.headroom > 1.0,
             "te: headroom must be in (0, 1]");
    fatal_if(cfg.usage_multiplier <= 0.0,
             "te: usage multiplier must be > 0");
    fatal_if(cfg.history < 1, "te: history must be >= 1");
    fatal_if(cfg.route.empty(), "te: route must be named");
}

TeController::TeController(sim::Simulator &sim, const TeConfig &cfg,
                           std::vector<TenantSpec> tenants)
    : SimObject(sim, "te"),
      cfg_(cfg),
      tenants_(std::move(tenants)),
      estimator_({cfg.history, cfg.usage_multiplier},
                 tenants_.size() * kGroupsPerTenant),
      pending_bytes_(tenants_.size() * kGroupsPerTenant, 0.0),
      demand_dhl_(tenants_.size(), 0.0),
      demand_optical_(tenants_.size(), 0.0),
      alloc_dhl_(tenants_.size(), 0.0),
      alloc_optical_(tenants_.size(), 0.0),
      contended_(tenants_.size(), false),
      stat_ticks_(statsGroup().addCounter("ticks",
                                          "control epochs executed"))
{
    validate(cfg_);
    fatal_if(tenants_.empty(), "te: at least one tenant required");
    for (const auto &t : tenants_) {
        fatal_if(t.name.empty(), "te: tenant names must be non-empty");
        fatal_if(t.weight < 0.0, "te: tenant weight must be >= 0");
    }
}

const std::string &TeController::tenantName(std::size_t t) const
{
    fatal_if(t >= tenants_.size(), "te: tenant index out of range");
    return tenants_[t].name;
}

std::size_t TeController::tenantIndex(const std::string &name) const
{
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        if (tenants_[t].name == name)
            return t;
    }
    fatal("te: unknown tenant '" + name + "'");
}

void TeController::start()
{
    fatal_if(tick_pending_, "te: controller already started");
    armTick(now() + cfg_.control_period);
}

void TeController::stop()
{
    if (tick_pending_) {
        simulator().cancel(tick_handle_);
        tick_pending_ = false;
    }
}

void TeController::armTick(double when)
{
    if (when >= cfg_.horizon)
        return; // Let the queue drain once the workload is over.
    tick_when_ = when;
    tick_pending_ = true;
    tick_handle_ = schedule(when - now(), [this] { tick(); });
}

void TeController::recordUsage(std::size_t tenant, double bytes)
{
    fatal_if(tenant >= tenants_.size(), "te: tenant index out of range");
    fatal_if(bytes < 0.0, "te: usage bytes must be >= 0");
    const std::size_t g =
        bytes <= cfg_.small_bytes ? kGroupSmall : kGroupBulk;
    pending_bytes_[series(tenant, g)] += bytes;
}

void TeController::tick()
{
    tick_pending_ = false;
    ++ticks_;
    ++stat_ticks_;

    // Observed usage over the closing control epoch -> estimator.
    for (std::size_t s = 0; s < pending_bytes_.size(); ++s) {
        estimator_.record(s, pending_bytes_[s] / cfg_.control_period);
        pending_bytes_[s] = 0.0;
    }

    // Project per-substrate demand by mode: Hybrid sends small flows
    // optical and bulk to the carts; the pure modes send everything to
    // one side (the other side's allocator sees zero demand).
    std::vector<TenantDemand> dhl(tenants_.size());
    std::vector<TenantDemand> optical(tenants_.size());
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        const double small = estimator_.estimate(series(t, kGroupSmall));
        const double bulk = estimator_.estimate(series(t, kGroupBulk));
        double d_dhl = 0.0;
        double d_opt = 0.0;
        switch (cfg_.mode) {
        case TeMode::DhlOnly:
            d_dhl = small + bulk;
            break;
        case TeMode::OpticalOnly:
            d_opt = small + bulk;
            break;
        case TeMode::Hybrid:
            d_dhl = bulk;
            d_opt = small;
            break;
        }
        dhl[t] = {tenants_[t].name, tenants_[t].weight, {d_dhl}};
        optical[t] = {tenants_[t].name, tenants_[t].weight, {d_opt}};
        demand_dhl_[t] = d_dhl;
        demand_optical_[t] = d_opt;
    }

    const auto a_dhl = hierarchicalAllocate(dhl, cfg_.dhl_capacity);
    const double planned = cfg_.headroom * cfg_.optical_capacity;
    const auto a_opt = hierarchicalAllocate(optical, planned);

    double optical_demand_total = 0.0;
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        alloc_dhl_[t] = a_dhl[t].total;
        alloc_optical_[t] = a_opt[t].total;
        // Exact contention test: the water-filler assigns satisfied
        // tenants their demand *exactly*, so `<` means throttled.
        contended_[t] = alloc_dhl_[t] < demand_dhl_[t];
        optical_demand_total += demand_optical_[t];
    }
    // Downgrades are admissible while the optical plan has spare
    // capacity beyond estimated demand.
    downgrade_ok_ = optical_demand_total < planned;

    armTick(tick_when_ + cfg_.control_period);
    if (on_tick_)
        on_tick_();
}

TeDecision TeController::decide(std::size_t tenant, double bytes,
                                int priority) const
{
    fatal_if(tenant >= tenants_.size(), "te: tenant index out of range");
    switch (cfg_.mode) {
    case TeMode::DhlOnly:
        return {Substrate::Dhl, true, false};
    case TeMode::OpticalOnly:
        return {Substrate::Optical, true, false};
    case TeMode::Hybrid:
        break;
    }
    if (bytes <= cfg_.small_bytes)
        return {Substrate::Optical, true, false};
    // The contention branch applies only while a future tick is pending:
    // a hold is a promise that a later control epoch will revise the
    // verdict, so once the loop is past its horizon everything admits
    // and the driver's drain terminates.
    if (tick_pending_ && contended_[tenant] &&
        priority < cfg_.min_priority_contended) {
        if (downgrade_ok_)
            return {Substrate::Optical, true, true};
        return {Substrate::Dhl, false, false}; // Hold until contention
                                               // or headroom changes.
    }
    return {Substrate::Dhl, true, false};
}

double TeController::demand(std::size_t tenant, Substrate s) const
{
    fatal_if(tenant >= tenants_.size(), "te: tenant index out of range");
    return s == Substrate::Dhl ? demand_dhl_[tenant]
                               : demand_optical_[tenant];
}

double TeController::allocation(std::size_t tenant, Substrate s) const
{
    fatal_if(tenant >= tenants_.size(), "te: tenant index out of range");
    return s == Substrate::Dhl ? alloc_dhl_[tenant]
                               : alloc_optical_[tenant];
}

bool TeController::contended(std::size_t tenant) const
{
    fatal_if(tenant >= tenants_.size(), "te: tenant index out of range");
    return contended_[tenant];
}

template <typename IO>
void TeController::snapshot(IO &io)
{
    fatal_if(IO::loading && tick_pending_, "te: stop() before restore");
    io.field("ticks", ticks_);
    // The pending tick is re-armed through armTick, not assigned.
    bool tick_pending = tick_pending_;
    double tick_when = tick_when_;
    io.field("tick_pending", tick_pending);
    io.field("tick_when", tick_when);
    io.field("downgrade_ok", downgrade_ok_);
    for (std::size_t s = 0; s < pending_bytes_.size(); ++s)
        io.field(sim::IndexedKey("p", s), pending_bytes_[s]);
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        sim::SnapshotScope scope(io, sim::IndexedKey("t", t));
        io.field("dd", demand_dhl_[t]);
        io.field("do", demand_optical_[t]);
        io.field("ad", alloc_dhl_[t]);
        io.field("ao", alloc_optical_[t]);
        bool contended = contended_[t];
        io.field("contended", contended);
        if constexpr (IO::loading)
            contended_[t] = contended;
    }
    {
        sim::SnapshotScope scope(io, "estimator");
        estimator_.snapshot(io);
    }
    if constexpr (IO::loading) {
        stat_ticks_.reset();
        stat_ticks_.increment(ticks_);
        if (tick_pending)
            armTick(tick_when);
    }
}

template void TeController::snapshot(sim::SnapshotWriter &);
template void TeController::snapshot(sim::SnapshotReader &);

} // namespace te
} // namespace dhl
