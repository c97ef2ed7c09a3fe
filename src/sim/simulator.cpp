/**
 * @file
 * Implementation of the discrete-event simulation kernel.
 *
 * The event queue is a binary min-heap of 24-byte POD keys plus an
 * in-order lane of the same keys; actions are kept out of both in a
 * slot registry so sift operations are plain memmoves.  Cancellation
 * bumps the slot's generation (O(1)) and the orphaned entry is
 * discarded when it reaches the front of its queue.  A slot is returned
 * to the free list only when its queue entry surfaces, so a slot index
 * in the heap or lane always refers to the occupancy that pushed it — a
 * generation mismatch therefore uniquely identifies a cancelled event.
 */

#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hpp"
#include "sim/snapshot.hpp"

namespace dhl {
namespace sim {

Simulator::Simulator()
    : now_(0.0),
      next_seq_(0),
      executed_(0),
      size_(0),
      stopped_(false),
      stats_("kernel")
{
    stat_scheduled_ =
        &stats_.addCounter("events_scheduled", "events ever scheduled");
    stat_executed_ =
        &stats_.addCounter("events_executed", "events executed");
    stat_cancelled_ =
        &stats_.addCounter("events_cancelled", "events cancelled");
}

std::uint32_t
Simulator::allocSlot(Action &&action)
{
    if (!free_slots_.empty()) {
        const std::uint32_t s = free_slots_.back();
        free_slots_.pop_back();
        slotAction(s) = std::move(action);
        return s;
    }
    fatal_if(slot_gen_.size() >= UINT32_MAX, "event slot registry overflow");
    const auto s = static_cast<std::uint32_t>(slot_gen_.size());
    slot_gen_.push_back(1);
    if ((s >> kChunkShift) >= action_chunks_.size())
        action_chunks_.push_back(std::make_unique<ActionChunk>());
    slotAction(s) = std::move(action);
    return s;
}

Time
Simulator::delayToWhen(Time delay) const
{
    fatal_if(!(delay >= 0.0) || std::isnan(delay),
             "event delay must be non-negative and finite");
    const Time when = now_ + delay;
    fatal_if(std::isinf(when), "event time must be finite");
    return when;
}

void
Simulator::checkWhen(Time when) const
{
    fatal_if(std::isnan(when) || std::isinf(when),
             "event time must be finite");
    fatal_if(when < now_, "cannot schedule an event in the past");
}

Simulator::HeapEntry
Simulator::makeEntry(Time when, Action &&action)
{
    panic_if(!action, "scheduled event has no action");

    const std::uint32_t slot = allocSlot(std::move(action));
    ++size_;
    stat_scheduled_->increment();
    // when >= 0 here (validated by delayToWhen/checkWhen); +0.0
    // canonicalises a possible -0.0 so the bit-pattern order holds.
    return HeapEntry{std::bit_cast<std::uint64_t>(when + 0.0), next_seq_++,
                     slot, slot_gen_[slot]};
}

EventHandle
Simulator::scheduleImpl(Time when, Action &&action)
{
    const HeapEntry e = makeEntry(when, std::move(action));
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), HeapCompare{});
    return EventHandle(e.slot, e.gen);
}

EventHandle
Simulator::scheduleLaneImpl(Time when, Action &&action)
{
    // Cancelled entries at the tail no longer bound the order.
    while (lane_.size() > lane_head_ && !live(lane_.back())) {
        free_slots_.push_back(lane_.back().slot);
        lane_.pop_back();
    }
    fatal_if(lane_.size() > lane_head_ &&
                 when + 0.0 < std::bit_cast<Time>(lane_.back().when_bits),
             "in-order event scheduled before an earlier in-order event");
    // A lane that never drains keeps its fired prefix; drop it once it
    // is most of the vector.
    if (lane_head_ >= 1024 && 2 * lane_head_ >= lane_.size()) {
        lane_.erase(lane_.begin(),
                    lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
        lane_head_ = 0;
    }
    const HeapEntry e = makeEntry(when, std::move(action));
    lane_.push_back(e);
    return EventHandle(e.slot, e.gen);
}

bool
Simulator::cancel(EventHandle handle)
{
    if (!handle.valid() || handle.slot_ >= slot_gen_.size())
        return false;
    if (slot_gen_[handle.slot_] != handle.gen_)
        return false; // already fired or already cancelled
    ++slot_gen_[handle.slot_];     // invalidates handle and heap entry
    slotAction(handle.slot_) = nullptr; // release captures eagerly
    --size_;
    stat_cancelled_->increment();
    return true;
}

const Simulator::HeapEntry *
Simulator::peekNext()
{
    // Cancelled occupants: reclaim each slot once its (unique) queue
    // entry surfaces, then drop the entry.
    while (!heap_.empty() && !live(heap_.front())) {
        free_slots_.push_back(heap_.front().slot);
        std::pop_heap(heap_.begin(), heap_.end(), HeapCompare{});
        heap_.pop_back();
    }
    while (lane_head_ < lane_.size() && !live(lane_[lane_head_])) {
        free_slots_.push_back(lane_[lane_head_].slot);
        ++lane_head_;
    }
    if (lane_head_ == lane_.size()) {
        lane_.clear();
        lane_head_ = 0;
        return heap_.empty() ? nullptr : &heap_.front();
    }
    const HeapEntry *lane = &lane_[lane_head_];
    if (heap_.empty() || HeapCompare{}(heap_.front(), *lane))
        return lane;
    return &heap_.front();
}

void
Simulator::fire(const HeapEntry *top)
{
    const HeapEntry e = *top;
    if (top == heap_.data()) {
        std::pop_heap(heap_.begin(), heap_.end(), HeapCompare{});
        heap_.pop_back();
    } else {
        ++lane_head_;
    }
    ++slot_gen_[e.slot]; // late cancel() on this handle returns false

    const Time when = std::bit_cast<Time>(e.when_bits);
    panic_if(when < now_, "event queue went backwards in time");
    now_ = when;
    --size_;
    ++executed_;
    stat_executed_->increment();

    // The slot stays claimed while its action runs, so nothing the
    // action schedules can land in it.
    struct Release
    {
        Simulator &sim;
        std::uint32_t slot;
        ~Release()
        {
            sim.slotAction(slot) = nullptr;
            sim.free_slots_.push_back(slot);
        }
    } release{*this, e.slot};
    slotAction(e.slot)();
}

Time
Simulator::run()
{
    stopped_ = false;
    while (!stopped_) {
        const HeapEntry *top = peekNext();
        if (!top)
            break;
        fire(top);
    }
    return now_;
}

Time
Simulator::runUntil(Time until)
{
    fatal_if(until < now_, "runUntil target is in the past");
    stopped_ = false;
    while (!stopped_) {
        const HeapEntry *top = peekNext();
        if (!top)
            break;
        if (std::bit_cast<Time>(top->when_bits) > until)
            break; // leave the event queued for a later run
        fire(top);
    }
    if (now_ < until)
        now_ = until;
    return now_;
}

Simulator::EpochResult
Simulator::runEpoch(Time until)
{
    const std::uint64_t before = executed_;
    const Time end = runUntil(until);
    return EpochResult{end, executed_ - before, size_ == 0};
}

void
Simulator::saveState(SnapshotWriter &w) const
{
    SnapshotScope<SnapshotWriter> scope(w, "kernel");
    w.putDouble("now", now_);
    w.putU64("executed", executed_);
}

void
Simulator::restoreState(SnapshotReader &r)
{
    fatal_if(size_ != 0,
             "simulator restore requires an empty event queue (cancel "
             "constructor-scheduled events first)");
    SnapshotScope<SnapshotReader> scope(r, "kernel");
    now_ = r.getDouble("now");
    executed_ = r.getU64("executed");
    // The stat reports the run's tally, not this process's share.
    stat_executed_->reset();
    stat_executed_->increment(executed_);
}

std::uint64_t
Simulator::step(std::uint64_t max_events)
{
    stopped_ = false; // same entry semantics as run()/runUntil()
    std::uint64_t fired = 0;
    while (!stopped_ && fired < max_events) {
        const HeapEntry *top = peekNext();
        if (!top)
            break;
        fire(top);
        ++fired;
    }
    return fired;
}

} // namespace sim
} // namespace dhl
