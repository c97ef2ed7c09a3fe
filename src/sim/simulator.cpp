/**
 * @file
 * Implementation of the discrete-event simulation kernel.
 *
 * The event queue is a binary min-heap of 24-byte POD keys; actions are
 * kept out of the heap in a slot registry so sift operations are plain
 * memmoves.  Cancellation bumps the slot's generation (O(1)) and the
 * orphaned heap entry is discarded when it reaches the top.  A slot is
 * returned to the free list only when its heap entry surfaces, so a
 * slot index in the heap always refers to the occupancy that pushed it
 * — a generation mismatch therefore uniquely identifies a cancelled
 * event.
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

EventHandle
Simulator::scheduleImpl(Time when, Action &&action)
{
    panic_if(!action, "scheduled event has no action");

    const std::uint32_t slot = allocSlot(std::move(action));
    const std::uint32_t gen = slot_gen_[slot];
    // when >= 0 here (validated by delayToWhen/checkWhen); +0.0
    // canonicalises a possible -0.0 so the bit-pattern order holds.
    const auto when_bits = std::bit_cast<std::uint64_t>(when + 0.0);
    heap_.push_back(HeapEntry{when_bits, next_seq_++, slot, gen});
    std::push_heap(heap_.begin(), heap_.end(), HeapCompare{});
    ++size_;
    stat_scheduled_->increment();
    return EventHandle(slot, gen);
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
    while (!heap_.empty()) {
        const HeapEntry &top = heap_.front();
        if (slot_gen_[top.slot] == top.gen)
            return &top;
        // Cancelled occupant: reclaim the slot now that its (unique)
        // heap entry has surfaced, then drop the entry.
        free_slots_.push_back(top.slot);
        std::pop_heap(heap_.begin(), heap_.end(), HeapCompare{});
        heap_.pop_back();
    }
    return nullptr;
}

Simulator::Action
Simulator::takeTop()
{
    const HeapEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), HeapCompare{});
    heap_.pop_back();

    Action action = std::move(slotAction(top.slot)); // leaves slot empty
    ++slot_gen_[top.slot]; // late cancel() on this handle returns false
    free_slots_.push_back(top.slot);

    const Time when = std::bit_cast<Time>(top.when_bits);
    panic_if(when < now_, "event queue went backwards in time");
    now_ = when;
    --size_;
    ++executed_;
    stat_executed_->increment();
    return action;
}

Time
Simulator::run()
{
    stopped_ = false;
    while (!stopped_ && peekNext()) {
        Action action = takeTop();
        action();
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
        Action action = takeTop();
        action();
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
}

std::uint64_t
Simulator::step(std::uint64_t max_events)
{
    stopped_ = false; // same entry semantics as run()/runUntil()
    std::uint64_t fired = 0;
    while (!stopped_ && fired < max_events && peekNext()) {
        Action action = takeTop();
        action();
        ++fired;
    }
    return fired;
}

} // namespace sim
} // namespace dhl
