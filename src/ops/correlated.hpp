/**
 * @file
 * Common-cause (correlated) failures through shared plant.
 *
 * The per-track FaultInjector streams are independent by construction,
 * but a real multi-tube installation shares infrastructure: one vacuum
 * plant typically backs several tubes, so a plant trip takes a whole
 * *domain* of tracks down at once.  Holistic DC simulators (HolDCSim)
 * show that ignoring such correlation makes fleet availability look far
 * better than it is — K independent tracks almost never fail together,
 * one shared plant guarantees they sometimes do.
 *
 * A CorrelatedFaultModel groups tracks into fixed-size domains and runs
 * one seeded failure/repair process per domain (exponential uptimes,
 * fixed MTTR — the same renewal shape as the per-component injector).
 * Outages are expressed as launch inhibits on every member track's
 * FaultState, so the controllers degrade through exactly the machinery
 * a LIM/track fault exercises.
 */

#ifndef DHL_OPS_CORRELATED_HPP
#define DHL_OPS_CORRELATED_HPP

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "faults/fault_state.hpp"
#include "sim/sim_object.hpp"

namespace dhl {
namespace ops {

/** Shared-plant domain parameters. */
struct SharedDomainConfig
{
    /** Master switch; a disabled config makes the model inert. */
    bool enabled = false;

    /** Tracks per shared vacuum plant (>= 1); the last domain takes
     *  the remainder. */
    std::size_t domain_size = 4;

    /** Plant MTBF, hours.  Default: one trip a year per plant (8760 h)
     *  — utility-scale pumping plants trip far more often than the
     *  1e5 h-class component MTBFs, which is what makes the
     *  correlation worth modelling. */
    double plant_mtbf = 8760.0;

    /** Plant MTTR, hours (restart + pump-down of every backed tube). */
    double plant_mttr = 4.0;

    /** Seed of the per-domain streams (deriveSeed-derived). */
    std::uint64_t seed = 1;

    /** No outage begins at or after this time, s. */
    double horizon = std::numeric_limits<double>::infinity();
};

/** Validate; fatal() on nonsense. */
void validate(const SharedDomainConfig &cfg);

/** The common-cause outage process of one fleet. */
class CorrelatedFaultModel : public sim::SimObject
{
  public:
    /**
     * @param sim    Owning simulator.
     * @param states Per-track fault registries (index = track; must
     *               outlive the model).
     * @param cfg    Domain parameters (must be enabled).
     */
    CorrelatedFaultModel(sim::Simulator &sim,
                         std::vector<faults::FaultState *> states,
                         const SharedDomainConfig &cfg);

    const SharedDomainConfig &config() const { return cfg_; }

    /** Number of shared-plant domains. */
    std::size_t domains() const { return plants_.size(); }

    /** Domain backing track @p track. */
    std::size_t domainOf(std::size_t track) const;

    /** Plant @p domain currently tripped? */
    bool plantDown(std::size_t domain) const;

    /** Common-cause outages injected so far. */
    std::uint64_t outages() const { return outages_; }

    /** Cancel every pending transition (tripped plants stay down; the
     *  restore path re-arms the process from a checkpoint). */
    void stop();

    //------------------------------------------------------------------
    // Checkpoint/restore.  Mirrors the FaultInjector: per-domain RNG
    // stream plus the next transition (outage begin or plant restore)
    // as an absolute time.  restoreState() cancels the constructor
    // schedule and re-arms the saved transitions; member-track inhibits
    // are not re-pushed (the restored FaultStates carry the count).
    //------------------------------------------------------------------

    void saveState(sim::SnapshotWriter &w) const override;
    void restoreState(sim::SnapshotReader &r) override;

  private:
    struct Plant
    {
        std::vector<faults::FaultState *> members;
        Rng rng;
        bool down = false;
        sim::EventHandle pending;
        bool has_pending = false;
        double pending_when = 0.0;
        bool pending_is_restore = false;
    };

    void scheduleOutage(std::size_t domain);
    void beginOutage(std::size_t domain);
    void finishOutage(std::size_t domain);
    std::string reason(std::size_t domain) const;

    // dhl-analyze: transient(cfg_, tracks_): constructor inputs; a
    // restored model is rebuilt from the same config and validated
    // against the checkpointed plant count
    SharedDomainConfig cfg_;
    std::vector<Plant> plants_;
    std::size_t tracks_;
    std::uint64_t outages_ = 0;

    // dhl-analyze: transient(stat_outages_, stat_restores_): host-side
    // stats tallies, restart from the boundary
    stats::Counter *stat_outages_;
    stats::Counter *stat_restores_;
};

} // namespace ops
} // namespace dhl

#endif // DHL_OPS_CORRELATED_HPP
