/**
 * @file
 * The discrete-event simulation (DES) kernel.
 *
 * A single-threaded, deterministic event-driven simulator in the style of
 * gem5's EventQueue, specialised for continuous time (seconds, double).
 * Every higher-level simulation in this repository — the DHL cart/track
 * system, the network flow simulator, and the ML-training ingestion model
 * — runs on this kernel.
 *
 * Determinism: events scheduled for the same timestamp fire in schedule
 * order (a monotonically increasing sequence number breaks ties), so runs
 * are exactly reproducible.
 *
 * Internals (see DESIGN.md §"Kernel internals" for the full story):
 * actions live in a generation-tagged *slot registry* while the queue
 * orders 24-byte POD keys {when, seq, slot, generation}.  A handle is
 * {slot, generation}; cancel() is an O(1) generation bump (the dead
 * entry is reclaimed lazily when it surfaces).  Actions are stored in
 * an InlineFunction with a 64-byte small buffer, so the steady-state
 * schedule→fire path performs no heap allocations and no hashing; an
 * action runs in its slot, never moved out.
 *
 * The queue is a binary heap plus FIFO *lanes* of the same keys, and
 * the kernel fires the smallest (when, seq) among the heap top and the
 * lane heads.  A lane is exact as long as its entries arrive sorted:
 *  - the in-order lane takes scheduleInOrder(), whose caller promises
 *    (and the kernel checks) non-decreasing times;
 *  - a delay lane takes the schedule(delay) calls of one delay.  IEEE
 *    addition rounds monotonically, so now + d never decreases for a
 *    fixed d while now never decreases, and seq always grows: the lane
 *    is sorted by (when, seq) without a compare.  (A restore may move
 *    now back, but only over an empty queue, whose cancelled entries
 *    it drops first.)
 * Any split of events between the heap and the lanes therefore fires
 * them in the same total order; the policy only decides speed.
 *
 * The policy is fixed.  Each delay hashes, on its bit pattern, to two
 * of kDelayLanes slots.  A delay keyed on one of them uses its lane;
 * any other delay goes to the heap, and an idle candidate slot (no
 * entries queued) is re-keyed to it when it is seen there twice in a
 * row.  So a one-off random delay (a fault uptime, a flow completion)
 * stays on the heap, and a lane changes hands only while it is empty.
 * The DHL is a machine of fixed-duration steps (dock, undock,
 * headway, trip): in a serve_soak perfbench process (seed 1), 987
 * distinct delays make up the schedule(delay) calls, nine of them
 * cover 98.7 % (the 3 s dock time 49.9 %, 0 s 19.3 %), the lanes take
 * 99.6 % of the calls (96.9 % with one slot per delay), 0.03 % of the
 * calls re-key a slot, and peekNext() scans 3.8 active lanes per call
 * on average.
 */

#ifndef DHL_SIM_SIMULATOR_HPP
#define DHL_SIM_SIMULATOR_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/inline_function.hpp"
#include "common/stats.hpp"

namespace dhl {
namespace sim {

class SnapshotReader;
class SnapshotWriter;

/** Simulation time in seconds. */
using Time = double;

/**
 * Handle to a scheduled event, usable for cancellation.
 *
 * Internally {slot index, generation}: the generation disambiguates
 * reuses of the same slot, so a stale handle (event already fired or
 * cancelled) is detected in O(1) without any lookup table.
 */
class EventHandle
{
  public:
    EventHandle() : slot_(0), gen_(0) {}

    /** True if this handle ever referred to an event. */
    bool valid() const { return gen_ != 0; }

  private:
    friend class Simulator;
    EventHandle(std::uint32_t slot, std::uint32_t gen)
        : slot_(slot), gen_(gen)
    {}
    std::uint32_t slot_;
    std::uint32_t gen_;
};

/**
 * The event-driven simulator.
 *
 * Usage:
 * @code
 *   sim::Simulator sim;
 *   sim.schedule(1.5, []{ ... });
 *   sim.run();
 * @endcode
 */
class Simulator
{
  public:
    /**
     * Event action: move-only with 64 bytes of inline storage, so the
     * capture lists typical of simulation events schedule without
     * touching the heap.  `std::function` still converts implicitly.
     */
    using Action = common::InlineFunction<void(), 64>;

    Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulation time, seconds. */
    Time now() const { return now_; }

    /**
     * Schedule @p action to run @p delay seconds from now.
     *
     * @param delay  Non-negative delay in seconds.
     * @param action Callable invoked when the event fires.
     * @return Handle usable with cancel().
     */
    EventHandle
    schedule(Time delay, Action action)
    {
        return scheduleDelayImpl(delay, std::move(action));
    }

    /** Schedule @p action at the absolute time @p when (>= now). */
    EventHandle
    scheduleAt(Time when, Action action)
    {
        checkWhen(when);
        return scheduleImpl(when, std::move(action));
    }

    /**
     * Schedule @p action at the absolute time @p when on the in-order
     * lane: a FIFO beside the heap for a caller whose times never
     * decrease.  @p when must be >= now() and >= the time of every live
     * event already on the lane (fatal otherwise).  Firing order is the
     * same as scheduleAt(): the kernel fires whichever of the heap top
     * and the lane head is earlier by (time, schedule order), so a
     * batch of sorted arrivals skips the heap's sifts without moving
     * one event.
     */
    EventHandle
    scheduleInOrder(Time when, Action action)
    {
        checkWhen(when);
        return scheduleLaneImpl(when, std::move(action));
    }

    /**
     * Cancel a previously scheduled event.  O(1).
     *
     * @return true if the event was pending and is now cancelled; false
     *         if it already fired, was already cancelled, or the handle
     *         is invalid.
     */
    bool cancel(EventHandle handle);

    /** Number of events currently pending. */
    std::size_t pendingEvents() const { return size_; }

    /**
     * Run until the event queue drains (or stop() is called).
     *
     * Clears any stop request left over from a previous run()/
     * runUntil()/step() before executing.
     *
     * @return The final simulation time.
     */
    Time run();

    /**
     * Run until simulation time reaches @p until (events at exactly
     * @p until still fire) or the queue drains.  Clears any prior stop
     * request on entry, like run().
     *
     * @return The final simulation time (min(until, drain time)).
     */
    Time runUntil(Time until);

    /** Outcome of one runEpoch() call. */
    struct EpochResult
    {
        Time end;             ///< Simulation time at the boundary.
        std::uint64_t events; ///< Events fired during this epoch.
        bool queue_empty;     ///< No pending events remain at all.
    };

    /**
     * Advance one epoch: run until simulation time reaches @p until
     * (events at exactly @p until still fire), reporting how much work
     * the epoch did and whether the queue drained.  Epoch-based serving
     * (src/serve) steps a long soak as a sequence of runEpoch() calls,
     * draining in-flight work at each boundary so the boundary is a
     * legal checkpoint point; self-perpetuating processes (fault
     * injection, maintenance plans) keep events queued across epochs,
     * so `queue_empty` is typically false for a served system.
     */
    EpochResult runEpoch(Time until);

    /**
     * Execute at most @p max_events events; returns how many fired.
     *
     * Same stop() semantics as run(): a stop request left over from an
     * earlier run is cleared on entry, and a stop() issued by one of the
     * executed actions ends the batch early (stopRequested() reports it
     * until the next run()/runUntil()/step()).
     */
    std::uint64_t step(std::uint64_t max_events = 1);

    /** Request that run()/runUntil()/step() return after the current
     * event. */
    void stop() { stopped_ = true; }

    /** True if stop() was called during the last run()/runUntil()/
     * step(). */
    bool stopRequested() const { return stopped_; }

    /** Total number of events executed in the run, counting the
     *  events before a restore (the kernel stat reports the same). */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Kernel statistics group (events scheduled/executed/cancelled). */
    stats::StatGroup &statsGroup() { return stats_; }

    /**
     * Save or restore the kernel clock (sim/snapshot.hpp).  Only `now`
     * and the executed-event count are captured: pending events belong
     * to the checkpointed objects that scheduled them and are
     * re-created on restore at their saved absolute times.  The
     * schedule/cancel statistics counters are host-side tallies, not
     * simulated state, and restart from the boundary; the executed
     * count is restored.  A restore must run on an *empty* queue
     * (fatal otherwise), before any object re-schedules — the restored
     * `now` is what makes their absolute-time scheduleAt() calls land
     * correctly.
     */
    template <typename IO>
    void snapshot(IO &io);

  private:
    /**
     * POD heap key; the action lives in the slot registry.
     *
     * `when_bits` is the IEEE-754 bit pattern of the event time.  The
     * kernel guarantees event times are finite and >= 0 (validated at
     * the schedule boundary, with -0.0 canonicalised to +0.0), and for
     * non-negative doubles the bit pattern preserves numeric order — so
     * the heap can compare plain integers.  Together with the sequence
     * tie-break this makes the ordering a branch-free pair of integer
     * comparisons instead of a data-dependent double-compare chain,
     * which measurably cuts sift cost on event-dense queues.
     */
    struct HeapEntry
    {
        std::uint64_t when_bits;
        std::uint64_t seq; // tie-break: FIFO within a timestamp
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** Min-heap comparator: true if @p a fires after @p b.  Branch-free
     *  on purpose — see HeapEntry. */
    struct HeapCompare
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            const bool gt = a.when_bits > b.when_bits;
            const bool eq = a.when_bits == b.when_bits;
            const bool seq_gt = a.seq > b.seq; // FIFO within equal times
            return gt | (eq & seq_gt);
        }
    };

    /**
     * A FIFO of queue keys in (when, seq) order: entries [head, end)
     * are queued, [0, head) already left.  The in-order lane and the
     * delay lanes are all of this type; a delay lane is keyed on the
     * bit pattern of its delay, the in-order lane never.
     */
    struct Lane
    {
        std::vector<HeapEntry> entries;
        std::size_t head = 0;
        std::uint64_t key = kNoDelay;
        /** The last delay that missed here while the lane was idle. */
        std::uint64_t seen = kNoDelay;
        /** Index in active_ while entries are queued, else kUnlisted. */
        std::size_t pos = kUnlisted;
    };

    /** A key no delay has: delays are validated, and this is a NaN. */
    static constexpr std::uint64_t kNoDelay = ~std::uint64_t{0};

    /** Lane::pos of a lane with nothing queued. */
    static constexpr std::size_t kUnlisted = ~std::size_t{0};

    /** Size of the delay-lane table; see the file comment for why a
     *  handful covers the serve workloads. */
    static constexpr std::size_t kDelayLanes = 16;

    /**
     * Actions are stored in fixed-size chunks that never move: growing
     * the registry allocates a fresh chunk instead of relocating every
     * stored callable the way a flat vector would (one indirect
     * relocation call per occupied slot per doubling).  Generations
     * live in a flat vector — they are PODs, hot on the peek path, and
     * cheap to grow.
     */
    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
    using ActionChunk = std::array<Action, kChunkSize>;

    Action &
    slotAction(std::uint32_t slot)
    {
        return (*action_chunks_[slot >> kChunkShift])
            [slot & (kChunkSize - 1)];
    }

    /** Validate a relative delay and convert it to an absolute time. */
    Time delayToWhen(Time delay) const;

    /** Validate an absolute event time. */
    void checkWhen(Time when) const;

    /** The heap push path; the Action is moved into a slot exactly
     *  once (callers construct it in place at the API boundary). */
    EventHandle scheduleImpl(Time when, Action &&action);

    /** The schedule(delay) path: the delay's lane, else the heap. */
    EventHandle scheduleDelayImpl(Time delay, Action &&action);

    /** The in-order lane push path (scheduleInOrder). */
    EventHandle scheduleLaneImpl(Time when, Action &&action);

    /**
     * The lane keyed on the delay with bit pattern @p key, or null if
     * this delay goes to the heap; applies the policy in the file
     * comment.
     */
    Lane *delayLane(std::uint64_t key);

    /** Append @p e to @p lane, listing the lane as active if it was
     *  empty. */
    void pushLane(Lane &lane, const HeapEntry &e);

    /** Claim a slot for @p action; the key the event is ordered by. */
    HeapEntry makeEntry(Time when, Action &&action);

    std::uint32_t allocSlot(Action &&action);

    bool live(const HeapEntry &e) const { return slot_gen_[e.slot] == e.gen; }

    /**
     * The earliest live entry by (time, seq) among the heap top and the
     * heads of the active lanes, or null if the queue is empty; records
     * its lane in next_lane_ (null for the heap).  Cancelled entries
     * that come first are dropped on the way, reclaiming their slots.
     */
    const HeapEntry *peekNext();

    /** Remove @p lane's head; a lane this drains restarts at the front
     *  of its vector and is unlisted. */
    void popLane(Lane &lane);

    /**
     * Drop every queued entry and reclaim its slot: a restore calls it
     * on a queue whose entries are all cancelled, before it moves the
     * clock, so no lane ever holds an entry later than one behind it.
     */
    void reclaimCancelled();

    /**
     * Fire @p top, the entry peekNext() returned: remove it from its
     * queue, advance time, invoke the action in its slot (chunks never
     * move) and free the slot afterwards, also if the action throws.
     */
    void fire(const HeapEntry *top);

    Time now_;
    // dhl-analyze: transient(next_seq_): FIFO tie-break is relative
    // order only; a restored run re-counts from zero identically
    // dhl-analyze: transient(size_, stopped_): a restore requires a
    // drained (empty, not-stopped) queue and asserts it
    std::uint64_t next_seq_;
    std::uint64_t executed_;
    std::size_t size_; // live (non-cancelled) events
    bool stopped_;

    // dhl-analyze: transient(heap_, order_lane_, delay_lanes_, active_,
    // n_active_, next_lane_, slot_gen_, action_chunks_, free_slots_):
    // the queue is empty at a legal checkpoint boundary; pending events
    // belong to the checkpointed objects that re-create them
    std::vector<HeapEntry> heap_;
    /** The in-order lane (scheduleInOrder). */
    Lane order_lane_;
    /** The delay lanes, indexed by a hash of the delay's bits. */
    std::array<Lane, kDelayLanes> delay_lanes_;
    /** The lanes that hold queued entries (live or cancelled), in no
     *  particular order: the lanes peekNext() scans.  A lane is listed
     *  by a push onto it empty and unlisted by the pop that drains it. */
    std::array<Lane *, kDelayLanes + 1> active_{};
    std::size_t n_active_ = 0;
    /** The lane of the entry peekNext() returned; null for the heap. */
    Lane *next_lane_ = nullptr;
    /** Generation per slot; bumped whenever the slot's occupant leaves
     *  (fires or is cancelled), invalidating outstanding handles and
     *  queue entries in O(1). */
    std::vector<std::uint32_t> slot_gen_;
    std::vector<std::unique_ptr<ActionChunk>> action_chunks_;
    std::vector<std::uint32_t> free_slots_;

    // dhl-analyze: transient(stats_, stat_scheduled_, stat_executed_,
    // stat_cancelled_): host-side tallies, restart from the boundary
    // (a restore re-seeds stat_executed_ from executed_)
    stats::StatGroup stats_;
    stats::Counter *stat_scheduled_;
    stats::Counter *stat_executed_;
    stats::Counter *stat_cancelled_;
};

} // namespace sim
} // namespace dhl

#endif // DHL_SIM_SIMULATOR_HPP
