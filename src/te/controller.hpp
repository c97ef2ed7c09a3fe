/**
 * @file
 * The cluster-level traffic-engineering controller: periodic demand
 * estimation + hierarchical max-min allocation + per-request substrate
 * decisions.
 *
 * The paper's core claim is a split verdict: DHL carts win on bulk
 * transfers, the optical fat-tree stays preferable for small and
 * interactive flows.  This controller operationalises that verdict.
 * On every control epoch it (1) converts the bytes each tenant offered
 * since the last tick into a usage rate, (2) projects per-flow-group
 * demand through a bounded-history estimator (te/demand), (3) runs the
 * two-level water-filling allocator (te/fairness) independently per
 * substrate, and (4) publishes two facts per tenant for the admission
 * path to consult synchronously: is the tenant's DHL share contended,
 * and does the optical substrate have headroom for downgrades.
 *
 * decide() is a pure function of that published state (const, no
 * counters): drivers call it from admission scans that may re-evaluate
 * a queued request many times, so all effect accounting (downgrade
 * counts, deferrals) lives with the driver that acts on the decision.
 *
 * Determinism contract: ticks are scheduled at exact multiples of the
 * control period, bounded by `horizon` (mirroring FaultInjector) so
 * end-of-run drains terminate; all controller state snapshots exactly
 * (absolute next-tick time + estimator rings + published allocation),
 * so a restored run re-decides identically.
 */

#ifndef DHL_TE_CONTROLLER_HPP
#define DHL_TE_CONTROLLER_HPP

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/sim_object.hpp"
#include "te/demand.hpp"
#include "te/fairness.hpp"

namespace dhl {
namespace te {

/** The two transfer substrates a request can ride. */
enum class Substrate
{
    Dhl,    ///< Cart fleet (bulk-optimised).
    Optical ///< Fat-tree flow network (latency-optimised).
};

const char *to_string(Substrate s);

/** Split policy for the controller. */
enum class TeMode
{
    DhlOnly,     ///< Everything on carts (the repo's historical mode).
    OpticalOnly, ///< Everything on the fat-tree.
    Hybrid       ///< Small -> optical, bulk -> DHL, downgrades under
                 ///< contention.
};

const char *to_string(TeMode m);

/** Parse "dhl-only" / "optical-only" / "hybrid"; fatal() otherwise. */
TeMode parseTeMode(const std::string &s);

/** Traffic-engineering configuration (embedded by serve and ops). */
struct TeConfig
{
    /** Master switch; disabled leaves the host driver byte-identical
     *  to its pre-TE behaviour. */
    bool enabled = false;

    TeMode mode = TeMode::Hybrid;

    /** Control-epoch period, s (> 0). */
    double control_period = 60.0;

    /** No tick is scheduled at or after this time, so the event queue
     *  drains once the workload ends (drivers default it to the
     *  profile length). */
    double horizon = std::numeric_limits<double>::infinity();

    /** Hybrid class threshold: requests <= this many bytes are
     *  "small" and prefer the optical substrate (> 0). */
    double small_bytes = units::gigabytes(8.0);

    /** Optical substrate capacity, bytes/s (> 0 when enabled). */
    double optical_capacity = units::gigabitsPerSecond(100.0);

    /** DHL substrate capacity, bytes/s; 0 = derived by the driver
     *  from the fleet's analytical launch bandwidth. */
    double dhl_capacity = 0.0;

    /** Optical route (network/route catalog) charged per-byte energy
     *  for offloaded traffic. */
    std::string route = "C";

    /** Fraction of optical capacity the allocator may plan to
     *  (0, 1]; the rest absorbs estimation error and downgrades. */
    double headroom = 0.9;

    /** Usage -> demand projection factor (> 0). */
    double usage_multiplier = 1.1;

    /** Demand-estimator history window (>= 1). */
    std::size_t history = 8;

    /** Bulk requests with priority >= this ride DHL even under
     *  contention; lower priorities are downgraded or deferred. */
    int min_priority_contended = 1;
};

/** Validate; fatal() on nonsense.  No-op when disabled. */
void validate(const TeConfig &cfg);

/** One tenant the controller allocates for. */
struct TenantSpec
{
    std::string name;
    double weight = 1.0;
};

/** The controller's verdict for one request. */
struct TeDecision
{
    Substrate substrate = Substrate::Dhl;
    /** False = hold the request in the admission queue (contended DHL
     *  share and no optical headroom to downgrade into). */
    bool admit = true;
    /** True when a bulk request was pushed to optical by contention. */
    bool downgraded = false;
};

/**
 * The periodic TE control loop as a SimObject.  Construct, then
 * start(); the owner must stop() before checkpoint-restore re-arming
 * (a restore re-schedules the saved pending tick).
 */
class TeController : public sim::SimObject
{
  public:
    static constexpr std::size_t kGroupSmall = 0;
    static constexpr std::size_t kGroupBulk = 1;
    static constexpr std::size_t kGroupsPerTenant = 2;

    TeController(sim::Simulator &sim, const TeConfig &cfg,
                 std::vector<TenantSpec> tenants);

    const TeConfig &config() const { return cfg_; }
    std::size_t numTenants() const { return tenants_.size(); }
    const std::string &tenantName(std::size_t t) const;

    /** Resolve a tenant by name; fatal() on an unknown tenant. */
    std::size_t tenantIndex(const std::string &name) const;

    /** Schedule the first control tick (one period out). */
    void start();

    /** Cancel the pending tick; safe to call repeatedly. */
    void stop();

    /** Invoked after every control tick (drivers re-pump admission
     *  queues here: a tick can clear contention). */
    void onTick(std::function<void()> fn) { on_tick_ = std::move(fn); }

    /** Account @p bytes of offered load for @p tenant (class chosen by
     *  size against small_bytes). */
    void recordUsage(std::size_t tenant, double bytes);

    /** The substrate verdict for one request of @p priority (larger
     *  is more urgent); pure w.r.t. controller state (all effect
     *  accounting lives with the caller). */
    TeDecision decide(std::size_t tenant, double bytes, int priority) const;

    //------------------------------------------------------------------
    // Published control state (stable between ticks; tables/tests).
    //------------------------------------------------------------------

    std::uint64_t ticks() const { return ticks_; }
    double demand(std::size_t tenant, Substrate s) const;
    double allocation(std::size_t tenant, Substrate s) const;
    bool contended(std::size_t tenant) const;
    bool downgradeOk() const { return downgrade_ok_; }

    /** Save or restore at a drained boundary (sim/snapshot.hpp). */
    template <typename IO>
    void snapshot(IO &io);

  private:
    void armTick(double when);
    void tick();
    std::size_t series(std::size_t tenant, std::size_t group) const
    {
        return tenant * kGroupsPerTenant + group;
    }

    // dhl-analyze: transient(cfg_): constructor input; restore
    // validates the checkpoint against the same TeConfig
    TeConfig cfg_;
    std::vector<TenantSpec> tenants_;
    DemandEstimator estimator_;

    /** Bytes offered since the last tick, per (tenant, group). */
    std::vector<double> pending_bytes_;

    // Published by tick(), consumed by decide().
    std::vector<double> demand_dhl_;
    std::vector<double> demand_optical_;
    std::vector<double> alloc_dhl_;
    std::vector<double> alloc_optical_;
    std::vector<bool> contended_;
    bool downgrade_ok_ = true;

    std::uint64_t ticks_ = 0;
    bool tick_pending_ = false;
    // dhl-analyze: transient(tick_when_, tick_handle_): the pending
    // tick is re-armed on restore via armTick(saved "tick_when")
    double tick_when_ = 0.0;
    sim::EventHandle tick_handle_{};
    std::function<void()> on_tick_;

    // dhl-analyze: transient(stat_ticks_): host-side stats tally,
    // restarts from the boundary
    stats::Counter &stat_ticks_;
};

} // namespace te
} // namespace dhl

#endif // DHL_TE_CONTROLLER_HPP
