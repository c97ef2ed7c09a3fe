/**
 * @file
 * Implementation of the planned-maintenance scheduler.
 */

#include "ops/maintenance.hpp"

#include "common/logging.hpp"

namespace dhl {
namespace ops {

void
validate(const MaintenanceConfig &cfg, std::size_t tracks)
{
    fatal_if(!(cfg.horizon > 0.0),
             "maintenance horizon must be positive");
    for (const auto &w : cfg.windows) {
        fatal_if(w.start < 0.0,
                 "maintenance window start must be non-negative");
        fatal_if(!(w.duration > 0.0),
                 "maintenance window duration must be positive");
        fatal_if(w.period != 0.0 && w.period <= w.duration,
                 "a periodic maintenance window must have period > "
                 "duration (or period = 0 for a one-shot)");
        fatal_if(w.track < -1 ||
                     w.track >= static_cast<int>(tracks),
                 "maintenance window targets an unknown track");
    }
}

MaintenanceScheduler::MaintenanceScheduler(
    sim::Simulator &sim, std::vector<faults::FaultState *> states,
    const MaintenanceConfig &cfg)
    : sim::SimObject(sim, "maintenance"),
      states_(std::move(states)),
      cfg_(cfg),
      open_(cfg.windows.size(), false),
      pending_(cfg.windows.size()),
      started_by_window_(cfg.windows.size(), 0)
{
    fatal_if(states_.empty(),
             "maintenance scheduler needs at least one track registry");
    for (const auto *state : states_)
        fatal_if(state == nullptr, "null fault registry");
    validate(cfg_, states_.size());

    auto &sg = statsGroup();
    stat_started_ =
        &sg.addCounter("windows_started", "maintenance windows opened");
    stat_completed_ = &sg.addCounter("windows_completed",
                                     "maintenance windows closed");

    for (std::size_t w = 0; w < cfg_.windows.size(); ++w)
        scheduleOccurrence(w, cfg_.windows[w].start);
}

bool
MaintenanceScheduler::windowOpen(std::size_t w) const
{
    fatal_if(w >= open_.size(), "window index out of range");
    return open_[w];
}

std::string
MaintenanceScheduler::reason(std::size_t w) const
{
    const auto &win = cfg_.windows[w];
    return "maintenance window " + std::to_string(w) +
           (win.track < 0 ? " (fleet-wide)"
                          : " (track " + std::to_string(win.track) + ")");
}

std::vector<faults::FaultState *>
MaintenanceScheduler::targets(std::size_t w)
{
    const auto &win = cfg_.windows[w];
    if (win.track < 0)
        return states_;
    return {states_[static_cast<std::size_t>(win.track)]};
}

void
MaintenanceScheduler::scheduleOccurrence(std::size_t w, double start)
{
    Pending &p = pending_[w];
    p.active = false;
    if (start >= cfg_.horizon)
        return; // plan exhausted: this window opens no more
    p.active = true;
    p.when = start;
    p.is_end = false;
    p.occurrence = start;
    p.handle = schedule(start - now(), [this, w, start] { begin(w, start); });
}

void
MaintenanceScheduler::begin(std::size_t w, double start)
{
    panic_if(open_[w], "maintenance window reopened while still open");
    open_[w] = true;
    ++started_;
    ++started_by_window_[w];
    stat_started_->increment();
    for (auto *state : targets(w))
        state->pushLaunchInhibit(reason(w));
    Pending &p = pending_[w];
    p.active = true;
    p.when = now() + cfg_.windows[w].duration;
    p.is_end = true;
    p.occurrence = start;
    p.handle = schedule(cfg_.windows[w].duration,
                        [this, w, start] { end(w, start); });
}

void
MaintenanceScheduler::end(std::size_t w, double start)
{
    for (auto *state : targets(w))
        state->popLaunchInhibit(reason(w));
    open_[w] = false;
    ++completed_;
    stat_completed_->increment();
    pending_[w].active = false;
    const double period = cfg_.windows[w].period;
    if (period > 0.0)
        scheduleOccurrence(w, start + period);
}

void
MaintenanceScheduler::cancelPending()
{
    for (auto &p : pending_) {
        simulator().cancel(p.handle);
        p.active = false;
    }
}

void
MaintenanceScheduler::saveState(sim::SnapshotWriter &w) const
{
    sim::SnapshotScope<sim::SnapshotWriter> scope(w, "maintenance");
    w.putU64("windows", cfg_.windows.size());
    for (std::size_t i = 0; i < cfg_.windows.size(); ++i) {
        std::string key("w");
        key += std::to_string(i);
        sim::SnapshotScope<sim::SnapshotWriter> ws(w, key);
        w.putBool("open", open_[i]);
        w.putU64("count", started_by_window_[i]);
        const Pending &p = pending_[i];
        w.putBool("pending", p.active);
        if (p.active) {
            w.putDouble("when", p.when);
            w.putBool("is_end", p.is_end);
            w.putDouble("occurrence", p.occurrence);
        }
    }
    w.putU64("started", started_);
    w.putU64("completed", completed_);
}

void
MaintenanceScheduler::restoreState(sim::SnapshotReader &r)
{
    cancelPending();

    sim::SnapshotScope<sim::SnapshotReader> scope(r, "maintenance");
    fatal_if(r.getU64("windows") != cfg_.windows.size(),
             "maintenance restore: window count does not match the "
             "checkpoint");
    for (std::size_t i = 0; i < cfg_.windows.size(); ++i) {
        std::string key("w");
        key += std::to_string(i);
        sim::SnapshotScope<sim::SnapshotReader> ws(r, key);
        open_[i] = r.getBool("open");
        started_by_window_[i] = r.getU64("count");
        Pending &p = pending_[i];
        p.active = r.getBool("pending");
        if (!p.active)
            continue;
        p.when = r.getDouble("when");
        p.is_end = r.getBool("is_end");
        p.occurrence = r.getDouble("occurrence");
        const std::size_t w_idx = i;
        const double start = p.occurrence;
        p.handle = p.is_end
                       ? simulator().scheduleAt(
                             p.when,
                             [this, w_idx, start] { end(w_idx, start); })
                       : simulator().scheduleAt(
                             p.when,
                             [this, w_idx, start] { begin(w_idx, start); });
    }
    started_ = r.getU64("started");
    completed_ = r.getU64("completed");
}

} // namespace ops
} // namespace dhl
