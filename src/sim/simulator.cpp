/**
 * @file
 * Implementation of the discrete-event simulation kernel.
 *
 * The event queue is a binary min-heap of 24-byte POD keys plus FIFO
 * lanes of the same keys (the in-order lane and the delay lanes, see
 * simulator.hpp); actions are kept out of all of them in a slot
 * registry so sift operations are plain memmoves.  Cancellation bumps
 * the slot's generation (O(1)) and the orphaned entry is discarded when
 * it is the earliest entry of the whole queue (every lane is sorted,
 * cancelled entries included, so it is then its lane's head).  A slot
 * is returned to the free list only when its queue entry surfaces, so
 * a slot index in the heap or a lane always refers to the occupancy
 * that pushed it — a generation mismatch therefore uniquely identifies
 * a cancelled event.
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

// Inlined into its one caller, the schedule(delay) path.
[[gnu::always_inline]] inline Simulator::Lane *
Simulator::delayLane(std::uint64_t key)
{
    // Two slots per delay from a fixed mix of its bits (delays differ
    // mostly in their top bits), so two busy delays rarely contend.
    static_assert(kDelayLanes == 16, "each slot index takes 4 bits");
    const std::uint64_t h =
        (key ^ (key >> 32) ^ 0x5851f42d4c957f2du) * 0x9e3779b97f4a7c15u;
    Lane &first = delay_lanes_[h >> 60];
    Lane &second = delay_lanes_[(h >> 56) & 15];
    if (first.key == key)
        return &first;
    if (second.key == key)
        return &second;
    // No lane yet: an idle candidate slot (nothing queued) is re-keyed
    // on the delay's second sighting in a row there.
    Lane *idle = first.pos == kUnlisted    ? &first
                 : second.pos == kUnlisted ? &second
                                           : nullptr;
    if (idle == nullptr)
        return nullptr;
    if (idle->seen != key) {
        idle->seen = key;
        return nullptr;
    }
    idle->key = key;
    return idle;
}

// Inlined into both lane push paths; the erase stays a call.
[[gnu::always_inline]] inline void
Simulator::pushLane(Lane &lane, const HeapEntry &e)
{
    if (lane.pos == kUnlisted) {
        lane.pos = n_active_;
        active_[n_active_++] = &lane;
    }
    lane.entries.push_back(e);
    // A lane that never drains keeps its fired prefix; drop it once it
    // is most of the vector.
    if (lane.head >= 1024 && 2 * lane.head >= lane.entries.size()) {
        lane.entries.erase(
            lane.entries.begin(),
            lane.entries.begin() + static_cast<std::ptrdiff_t>(lane.head));
        lane.head = 0;
    }
}

EventHandle
Simulator::scheduleDelayImpl(Time delay, Action &&action)
{
    const Time when = delayToWhen(delay);
    Lane *lane = delayLane(std::bit_cast<std::uint64_t>(delay));
    if (lane == nullptr)
        return scheduleImpl(when, std::move(action));
    const HeapEntry e = makeEntry(when, std::move(action));
    pushLane(*lane, e);
    return EventHandle(e.slot, e.gen);
}

EventHandle
Simulator::scheduleLaneImpl(Time when, Action &&action)
{
    Lane &lane = order_lane_;
    // Cancelled entries at the tail no longer bound the order.
    while (lane.entries.size() > lane.head && !live(lane.entries.back())) {
        free_slots_.push_back(lane.entries.back().slot);
        lane.entries.pop_back();
    }
    fatal_if(lane.entries.size() > lane.head &&
                 when + 0.0 <
                     std::bit_cast<Time>(lane.entries.back().when_bits),
             "in-order event scheduled before an earlier in-order event");
    const HeapEntry e = makeEntry(when, std::move(action));
    pushLane(lane, e);
    return EventHandle(e.slot, e.gen);
}

bool
Simulator::cancel(EventHandle handle)
{
    if (!handle.valid() || handle.slot_ >= slot_gen_.size())
        return false;
    if (slot_gen_[handle.slot_] != handle.gen_)
        return false; // already fired or already cancelled
    ++slot_gen_[handle.slot_];     // invalidates handle and queue entry
    slotAction(handle.slot_) = nullptr; // release captures eagerly
    --size_;
    stat_cancelled_->increment();
    return true;
}

const Simulator::HeapEntry *
Simulator::peekNext()
{
    for (;;) {
        const HeapEntry *best = heap_.empty() ? nullptr : heap_.data();
        next_lane_ = nullptr;
        for (std::size_t i = 0; i < n_active_; ++i) {
            Lane &lane = *active_[i];
            const HeapEntry *head = &lane.entries[lane.head];
            if (best == nullptr || HeapCompare{}(*best, *head)) {
                best = head;
                next_lane_ = &lane;
            }
        }
        if (best == nullptr || live(*best))
            return best;
        // A cancelled occupant: reclaim its slot now that its (unique)
        // queue entry surfaced, drop the entry and look again.
        free_slots_.push_back(best->slot);
        if (next_lane_ == nullptr) {
            std::pop_heap(heap_.begin(), heap_.end(), HeapCompare{});
            heap_.pop_back();
        } else {
            popLane(*next_lane_);
        }
    }
}

void
Simulator::popLane(Lane &lane)
{
    if (++lane.head < lane.entries.size())
        return;
    // Drained: restart at the front (capacity kept), so a lane that
    // refills as it drains stays in a few cache lines, and unlist it.
    lane.entries.clear();
    lane.head = 0;
    Lane *moved = active_[--n_active_];
    active_[lane.pos] = moved;
    moved->pos = lane.pos;
    lane.pos = kUnlisted;
}

void
Simulator::fire(const HeapEntry *top)
{
    const HeapEntry e = *top;
    if (next_lane_ == nullptr) {
        std::pop_heap(heap_.begin(), heap_.end(), HeapCompare{});
        heap_.pop_back();
    } else {
        popLane(*next_lane_);
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
Simulator::reclaimCancelled()
{
    for (const HeapEntry &e : heap_)
        free_slots_.push_back(e.slot);
    heap_.clear();
    for (std::size_t i = 0; i < n_active_; ++i) {
        Lane &lane = *active_[i];
        for (std::size_t j = lane.head; j < lane.entries.size(); ++j)
            free_slots_.push_back(lane.entries[j].slot);
        lane.entries.clear();
        lane.head = 0;
        lane.pos = kUnlisted;
    }
    n_active_ = 0;
}

template <typename IO>
void
Simulator::snapshot(IO &io)
{
    fatal_if(IO::loading && size_ != 0,
             "simulator restore requires an empty event queue (cancel "
             "constructor-scheduled events first)");
    if constexpr (IO::loading)
        reclaimCancelled();
    SnapshotScope scope(io, "kernel");
    io.field("now", now_);
    io.field("executed", executed_);
    if constexpr (IO::loading) {
        // The stat reports the run's tally, not this process's share.
        stat_executed_->reset();
        stat_executed_->increment(executed_);
    }
}

template void Simulator::snapshot(SnapshotWriter &);
template void Simulator::snapshot(SnapshotReader &);

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
