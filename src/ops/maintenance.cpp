/**
 * @file
 * Implementation of the planned-maintenance scheduler.
 */

#include "ops/maintenance.hpp"

#include "common/logging.hpp"
#include "sim/snapshot.hpp"

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

template <typename IO>
void
MaintenanceScheduler::snapshot(IO &io)
{
    if constexpr (IO::loading)
        cancelPending();

    sim::SnapshotScope scope(io, "maintenance");
    fatal_if(!io.match("windows", cfg_.windows.size()),
             "maintenance restore: window count does not match the "
             "checkpoint");
    for (std::size_t i = 0; i < cfg_.windows.size(); ++i) {
        sim::SnapshotScope ws(io, sim::IndexedKey("w", i));
        bool open = open_[i];
        io.field("open", open);
        io.field("count", started_by_window_[i]);
        Pending &p = pending_[i];
        io.field("pending", p.active);
        if constexpr (IO::loading)
            open_[i] = open;
        if (!p.active)
            continue;
        io.field("when", p.when);
        io.field("is_end", p.is_end);
        io.field("occurrence", p.occurrence);
        if constexpr (IO::loading) {
            const std::size_t w_idx = i;
            const double start = p.occurrence;
            if (p.is_end)
                p.handle = simulator().scheduleAt(
                    p.when, [this, w_idx, start] { end(w_idx, start); });
            else
                p.handle = simulator().scheduleAt(
                    p.when, [this, w_idx, start] { begin(w_idx, start); });
        }
    }
    io.field("started", started_);
    io.field("completed", completed_);
}

template void MaintenanceScheduler::snapshot(sim::SnapshotWriter &);
template void MaintenanceScheduler::snapshot(sim::SnapshotReader &);

} // namespace ops
} // namespace dhl
