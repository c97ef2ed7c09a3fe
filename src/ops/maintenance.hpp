/**
 * @file
 * Planned-maintenance windows for a DHL fleet.
 *
 * Real installations take tubes out of service on purpose — vacuum
 * plant servicing, LIM inspections, false-floor access — and the paper's
 * availability story (§IV-F, Discussion §VI "Repairs") is only credible
 * if planned downtime flows through the same degraded-mode machinery as
 * unplanned faults.  A MaintenanceScheduler therefore drives the
 * existing FaultState launch/service gates (pushLaunchInhibit /
 * popLaunchInhibit): while a window is open on a track, its controller
 * queues opens, parks trips, and re-dispatches on release exactly as it
 * would around a LIM outage, with no maintenance-specific code anywhere
 * in the control path.
 */

#ifndef DHL_OPS_MAINTENANCE_HPP
#define DHL_OPS_MAINTENANCE_HPP

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "faults/fault_state.hpp"
#include "sim/sim_object.hpp"

namespace dhl {
namespace ops {

/** One planned window (all times in simulated seconds). */
struct MaintenanceWindow
{
    /** Start of the first occurrence, s (>= 0). */
    double start = 0.0;

    /** Window length, s (> 0). */
    double duration = 0.0;

    /** Repeat interval, s; 0 = one-shot, otherwise must exceed the
     *  duration (windows of one entry never overlap themselves). */
    double period = 0.0;

    /** Target track index; -1 = fleet-wide (every track at once). */
    int track = -1;
};

/** The maintenance plan for one fleet. */
struct MaintenanceConfig
{
    std::vector<MaintenanceWindow> windows;

    /** No occurrence *starts* at or after this time, s (windows already
     *  open always run to completion, like in-flight repairs). */
    double horizon = std::numeric_limits<double>::infinity();
};

/** Validate against a fleet of @p tracks tracks; fatal() on nonsense. */
void validate(const MaintenanceConfig &cfg, std::size_t tracks);

/** The planned-maintenance process of one fleet. */
class MaintenanceScheduler : public sim::SimObject
{
  public:
    /**
     * @param sim    Owning simulator.
     * @param states Per-track fault registries (index = track; the
     *               registries must outlive the scheduler).
     * @param cfg    The maintenance plan.
     */
    MaintenanceScheduler(sim::Simulator &sim,
                         std::vector<faults::FaultState *> states,
                         const MaintenanceConfig &cfg);

    const MaintenanceConfig &config() const { return cfg_; }

    /** Window occurrences opened so far. */
    std::uint64_t windowsStarted() const { return started_; }

    /** Window occurrences closed so far. */
    std::uint64_t windowsCompleted() const { return completed_; }

    /** True while any occurrence of window @p w is open. */
    bool windowOpen(std::size_t w) const;

    /** Cancel every pending transition (open windows stay open; the
     *  restore path re-arms the plan from a checkpoint). */
    void stop() { cancelPending(); }

    //------------------------------------------------------------------
    // Checkpoint/restore.  Each window's next transition (begin or
    // end) is tracked as an absolute time; restoreState() cancels the
    // constructor-scheduled plan, restores the open flags and tallies,
    // and re-schedules the saved transitions.  Launch inhibits are NOT
    // re-pushed — the restored FaultState already counts them; the
    // re-scheduled end event pops what the original begin pushed.
    //------------------------------------------------------------------

    void saveState(sim::SnapshotWriter &w) const override;
    void restoreState(sim::SnapshotReader &r) override;

  private:
    /** The window's next scheduled transition. */
    struct Pending
    {
        sim::EventHandle handle;
        bool active = false;
        double when = 0.0;       ///< Absolute fire time, s.
        bool is_end = false;     ///< false: begin fires; true: end.
        double occurrence = 0.0; ///< Start of the occurrence it serves.
    };

    void scheduleOccurrence(std::size_t w, double start);
    void begin(std::size_t w, double start);
    void end(std::size_t w, double start);
    void cancelPending();
    std::string reason(std::size_t w) const;

    /** The registries a window drives (one, or all for track = -1). */
    std::vector<faults::FaultState *> targets(std::size_t w);

    // dhl-analyze: transient(states_): wiring pointers to the fault
    // registries, re-attached by the harness before restore
    std::vector<faults::FaultState *> states_;
    MaintenanceConfig cfg_;
    std::vector<bool> open_;
    std::vector<Pending> pending_;
    /** Occurrences opened per window; checkpointed as each window's
     *  `count` key. */
    std::vector<std::uint64_t> started_by_window_;
    std::uint64_t started_ = 0;
    std::uint64_t completed_ = 0;

    // dhl-analyze: transient(stat_started_, stat_completed_):
    // host-side stats tallies, restart from the boundary
    stats::Counter *stat_started_;
    stats::Counter *stat_completed_;
};

} // namespace ops
} // namespace dhl

#endif // DHL_OPS_MAINTENANCE_HPP
