/**
 * @file
 * Base class for named simulation objects.
 *
 * A SimObject is a named entity bound to a Simulator, with its own
 * statistics group — the moral equivalent of gem5's SimObject, scaled to
 * this project.
 */

#ifndef DHL_SIM_SIM_OBJECT_HPP
#define DHL_SIM_SIM_OBJECT_HPP

#include <string>

#include "common/stats.hpp"
#include "sim/simulator.hpp"
#include "sim/snapshot.hpp"

namespace dhl {
namespace sim {

/**
 * A named entity living inside a Simulator.
 *
 * Every SimObject is Snapshotable; the default implementation captures
 * nothing, so objects with no dynamic state (pure queries, closed-form
 * models) participate in a checkpoint for free.  Objects that schedule
 * events or hold RNG streams override saveState()/restoreState() per
 * the contract in sim/snapshot.hpp.
 */
class SimObject : public Snapshotable
{
  public:
    /**
     * @param sim  The owning simulator (must outlive this object).
     * @param name Hierarchical object name (e.g. "dhl.track0").
     */
    SimObject(Simulator &sim, std::string name);

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Simulator &simulator() { return sim_; }
    const Simulator &simulator() const { return sim_; }
    Time now() const { return sim_.now(); }

    /** Statistics group owned by this object. */
    stats::StatGroup &statsGroup() { return stats_; }
    const stats::StatGroup &statsGroup() const { return stats_; }

    /** Snapshotable default: stateless object, nothing to capture. */
    void saveState(SnapshotWriter &) const override {}
    void restoreState(SnapshotReader &) override {}

  protected:
    /** Convenience forwarding to the simulator. */
    EventHandle schedule(Time delay, Simulator::Action action);

  private:
    // dhl-analyze: transient(sim_, name_): constructor identity — the
    // kernel reference and the fixed object name
    Simulator &sim_;
    std::string name_;
    // dhl-analyze: transient(stats_): host-side stats tallies, restart
    // from the boundary
    stats::StatGroup stats_;
};

} // namespace sim
} // namespace dhl

#endif // DHL_SIM_SIM_OBJECT_HPP
