/**
 * @file
 * Randomized differential stress test of the DES kernel.
 *
 * Drives ~100k interleaved schedule / cancel / runUntil / step
 * operations against a deliberately naive reference queue (a flat
 * vector scanned linearly) and asserts that the kernel fires the same
 * events in the same order (FIFO within a timestamp), reports the same
 * pendingEvents(), and keeps the same stat counters.  This pins the
 * semantics of the slot-registry/generation-handle implementation to
 * the observable contract.
 *
 * The file also overrides global operator new/delete with counters to
 * assert the acceptance criterion that the steady-state schedule→fire
 * path performs zero heap allocations for SBO-sized actions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "sim/simulator.hpp"
#include "sim/snapshot.hpp"

using dhl::Rng;
using dhl::sim::EventHandle;
using dhl::sim::Simulator;

namespace {

std::atomic<std::int64_t> g_allocs{0};

} // namespace

// None of the replacements is inlined: GCC 12 otherwise pairs the
// inlined std::malloc() or std::free() with the other side's operator
// and reports -Wmismatched-new-delete.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

/**
 * Reference model: events in a plain vector, popped by linear scan for
 * the (time, seq) minimum — obviously correct, obviously slow.
 */
class ReferenceQueue
{
  public:
    struct Event
    {
        double when;
        std::uint64_t seq;
        int token;
        bool cancelled = false;
    };

    std::uint64_t
    schedule(double now, double delay, int token)
    {
        return scheduleAt(now + delay, token);
    }

    std::uint64_t
    scheduleAt(double when, int token)
    {
        events_.push_back(Event{when, next_seq_, token});
        return next_seq_++;
    }

    bool
    cancel(std::uint64_t seq)
    {
        for (auto &e : events_) {
            if (e.seq == seq && !e.cancelled) {
                e.cancelled = true;
                return true;
            }
        }
        return false;
    }

    std::size_t
    pending() const
    {
        std::size_t n = 0;
        for (const auto &e : events_)
            n += e.cancelled ? 0 : 1;
        return n;
    }

    /** Pop the earliest live event at time <= until; false if none. */
    bool
    popUpTo(double until, Event &out)
    {
        auto best = events_.end();
        for (auto it = events_.begin(); it != events_.end(); ++it) {
            if (it->cancelled)
                continue;
            if (best == events_.end() || it->when < best->when ||
                (it->when == best->when && it->seq < best->seq)) {
                best = it;
            }
        }
        if (best == events_.end() || best->when > until)
            return false;
        out = *best;
        events_.erase(best);
        return true;
    }

  private:
    std::vector<Event> events_;
    std::uint64_t next_seq_ = 0;
};

struct Fired
{
    double when;
    int token;

    bool
    operator==(const Fired &o) const
    {
        return when == o.when && token == o.token;
    }
};

TEST(SimulatorStress, DifferentialVsReferenceQueue)
{
    Rng rng(20240815);
    Simulator sim;
    ReferenceQueue ref;

    std::vector<Fired> fired_sim;
    std::vector<Fired> fired_ref;

    // Live handles: kernel handle + reference seq + token, kept in
    // lockstep so a random cancel hits the same event in both models.
    struct Live
    {
        EventHandle handle;
        std::uint64_t ref_seq;
    };
    std::vector<Live> live;

    std::uint64_t scheduled = 0, cancelled = 0;
    int next_token = 0;

    const int kOps = 100000;
    for (int op = 0; op < kOps; ++op) {
        const auto kind = static_cast<int>(rng.uniformInt(0, 99));
        if (kind < 55) {
            // Schedule; delays collide on a coarse grid so FIFO
            // tie-breaking is exercised constantly.
            const double delay =
                static_cast<double>(rng.uniformInt(0, 40)) * 0.25;
            const int token = next_token++;
            const EventHandle h = sim.schedule(
                delay, [token, &fired_sim, &sim] {
                    fired_sim.push_back(Fired{sim.now(), token});
                });
            live.push_back(Live{h, ref.schedule(sim.now(), delay, token)});
            ++scheduled;
        } else if (kind < 75) {
            // Cancel a random outstanding handle (may already have
            // fired — both models must agree on the outcome).
            if (live.empty())
                continue;
            const auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            const bool ok_sim = sim.cancel(live[idx].handle);
            const bool ok_ref = ref.cancel(live[idx].ref_seq);
            ASSERT_EQ(ok_sim, ok_ref) << "cancel divergence at op " << op;
            if (ok_sim)
                ++cancelled;
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        } else if (kind < 95) {
            // Advance a random amount of time.
            const double horizon =
                sim.now() + rng.uniform(0.0, 3.0);
            sim.runUntil(horizon);
            ReferenceQueue::Event e;
            while (ref.popUpTo(horizon, e))
                fired_ref.push_back(Fired{e.when, e.token});
            ASSERT_EQ(fired_sim.size(), fired_ref.size())
                << "fire-count divergence at op " << op;
        } else {
            // Execute a bounded number of events.
            const auto max_events =
                static_cast<std::uint64_t>(rng.uniformInt(1, 5));
            const std::uint64_t n = sim.step(max_events);
            for (std::uint64_t k = 0; k < n; ++k) {
                ReferenceQueue::Event e;
                ASSERT_TRUE(ref.popUpTo(
                    std::numeric_limits<double>::infinity(), e));
                fired_ref.push_back(Fired{e.when, e.token});
            }
        }
        if ((op & 1023) == 0) {
            ASSERT_EQ(sim.pendingEvents(), ref.pending())
                << "pending divergence at op " << op;
        }
    }

    // Drain both models completely.
    sim.run();
    ReferenceQueue::Event e;
    while (ref.popUpTo(std::numeric_limits<double>::infinity(), e))
        fired_ref.push_back(Fired{e.when, e.token});

    ASSERT_EQ(fired_sim.size(), fired_ref.size());
    for (std::size_t i = 0; i < fired_sim.size(); ++i) {
        ASSERT_EQ(fired_sim[i], fired_ref[i])
            << "firing-order divergence at index " << i << ": sim={"
            << fired_sim[i].when << "," << fired_sim[i].token << "} ref={"
            << fired_ref[i].when << "," << fired_ref[i].token << "}";
    }
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(ref.pending(), 0u);

    // Stat counters match the reference bookkeeping.
    const auto *stat_scheduled = dynamic_cast<const dhl::stats::Counter *>(
        sim.statsGroup().find("events_scheduled"));
    const auto *stat_executed = dynamic_cast<const dhl::stats::Counter *>(
        sim.statsGroup().find("events_executed"));
    const auto *stat_cancelled = dynamic_cast<const dhl::stats::Counter *>(
        sim.statsGroup().find("events_cancelled"));
    ASSERT_NE(stat_scheduled, nullptr);
    ASSERT_NE(stat_executed, nullptr);
    ASSERT_NE(stat_cancelled, nullptr);
    EXPECT_EQ(stat_scheduled->value(), scheduled);
    EXPECT_EQ(stat_cancelled->value(), cancelled);
    EXPECT_EQ(stat_executed->value(), scheduled - cancelled);
    EXPECT_EQ(sim.eventsExecuted(), scheduled - cancelled);
    EXPECT_EQ(fired_sim.size(), scheduled - cancelled);
}

TEST(SimulatorStress, SteadyStateScheduleFirePathDoesNotAllocate)
{
    Simulator sim;
    std::uint64_t fired = 0;
    const std::size_t n = 4096;

    // Warm up: grows the slot registry, heap storage and free list to
    // steady-state capacity.
    for (std::size_t i = 0; i < n; ++i) {
        sim.schedule(static_cast<double>(i % 17) * 0.5,
                     [&fired] { ++fired; });
    }
    sim.run();
    ASSERT_EQ(fired, n);

    // Steady state: schedule→fire with SBO-sized captures must not
    // touch the heap at all.
    const std::int64_t before = g_allocs.load();
    for (std::size_t i = 0; i < n; ++i) {
        sim.schedule(static_cast<double>(i % 17) * 0.5,
                     [&fired] { ++fired; });
    }
    sim.run();
    EXPECT_EQ(g_allocs.load(), before)
        << "steady-state schedule→fire path allocated";
    EXPECT_EQ(fired, 2 * n);
}

TEST(SimulatorStress, StepClearsStaleStopRequest)
{
    // A stop() from a previous run must not leak into step() — the
    // semantics fix for the old behaviour where stopped_ persisted.
    Simulator sim;
    int fired = 0;
    sim.schedule(1.0, [&] {
        ++fired;
        sim.stop();
    });
    sim.schedule(2.0, [&] { ++fired; });
    sim.schedule(3.0, [&] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.stopRequested());

    // step() clears the stale request and executes.
    EXPECT_EQ(sim.step(1), 1u);
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(sim.stopRequested());
}

TEST(SimulatorStress, StopDuringStepEndsBatchEarly)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(1.0, [&] {
        ++fired;
        sim.stop();
    });
    sim.schedule(2.0, [&] { ++fired; });
    EXPECT_EQ(sim.step(10), 1u); // stop() ends the batch
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.stopRequested());
    EXPECT_EQ(sim.pendingEvents(), 1u);
    EXPECT_EQ(sim.step(10), 1u); // cleared on entry; resumes
    EXPECT_EQ(fired, 2);
}

TEST(SimulatorStress, HandlesStayUniqueAcrossSlotReuse)
{
    // A fired event's slot is recycled; the old handle must never
    // cancel the new occupant (generation tagging).
    Simulator sim;
    std::vector<EventHandle> old_handles;
    for (int round = 0; round < 50; ++round) {
        int fired = 0;
        std::vector<EventHandle> fresh;
        for (int i = 0; i < 20; ++i)
            fresh.push_back(sim.schedule(0.5, [&fired] { ++fired; }));
        // Stale handles from previous rounds target recycled slots.
        for (EventHandle h : old_handles)
            EXPECT_FALSE(sim.cancel(h));
        sim.run();
        EXPECT_EQ(fired, 20);
        old_handles = std::move(fresh);
    }
}

} // namespace

//----------------------------------------------------------------------
// The in-order lane (scheduleInOrder) against an all-scheduleAt run
//----------------------------------------------------------------------

namespace {

/**
 * One side of the lane differential.  Both sides run the same script;
 * the lane side routes its in-order schedules through scheduleInOrder,
 * the reference side through scheduleAt.  What an action does depends
 * only on (seed, token), so both sides make the same calls as long as
 * they fire the same events in the same order.
 */
class LaneSide
{
  public:
    LaneSide(bool use_lane, std::uint64_t seed)
        : use_lane_(use_lane), seed_(seed)
    {}

    Simulator sim;
    std::vector<std::pair<int, double>> fired; ///< (token, time)
    std::vector<int> cancel_results;
    double lane_tail = 0.0; ///< Bound for the next in-order time.

    int
    scheduleHeap(double when)
    {
        const int tok = static_cast<int>(handles_.size());
        handles_.push_back(sim.scheduleAt(when, [this, tok] { fire(tok); }));
        return tok;
    }

    int
    scheduleOrdered(double when)
    {
        lane_tail = when;
        const int tok = static_cast<int>(handles_.size());
        auto action = [this, tok] { fire(tok); };
        handles_.push_back(use_lane_ ? sim.scheduleInOrder(when, action)
                                     : sim.scheduleAt(when, action));
        return tok;
    }

    void
    cancel(int tok)
    {
        cancel_results.push_back(sim.cancel(handles_[tok]) ? 1 : 0);
    }

    void
    cancelAll()
    {
        for (int tok = 0; tok < tokens(); ++tok)
            cancel(tok);
    }

    int tokens() const { return static_cast<int>(handles_.size()); }

  private:
    /** Time steps on a coarse grid, so equal times are common. */
    static double
    gridStep(Rng &r)
    {
        return static_cast<double>(r.uniformInt(0, 6)) * 0.5;
    }

    void
    fire(int tok)
    {
        fired.emplace_back(tok, sim.now());
        Rng r(seed_ * 1000003u + static_cast<std::uint64_t>(tok));
        const double u = r.uniform();
        if (u < 0.15) {
            // Self-cancel: the firing event is no longer pending.
            cancel(tok);
        } else if (u < 0.35) {
            scheduleHeap(sim.now() + gridStep(r));
        } else if (u < 0.55) {
            scheduleOrdered(std::max(lane_tail, sim.now()) + gridStep(r));
            scheduleOrdered(lane_tail + gridStep(r));
        } else if (u < 0.65 && tokens() > 0) {
            cancel(static_cast<int>(r.uniformInt(0, tokens() - 1)));
        }
    }

    bool use_lane_;
    std::uint64_t seed_;
    std::vector<EventHandle> handles_;
};

/** Drive both sides through one seeded script. */
void
runLaneScript(std::uint64_t seed, LaneSide &d)
{
    Rng script(seed);
    std::string snapshot;
    for (int step = 0; step < 300; ++step) {
        const double op = script.uniform();
        const double now = d.sim.now();
        if (op < 0.30) {
            const int k = static_cast<int>(script.uniformInt(1, 12));
            double t = std::max(d.lane_tail, now);
            for (int i = 0; i < k; ++i) {
                t += static_cast<double>(script.uniformInt(0, 2)) * 0.5;
                d.scheduleOrdered(t);
            }
        } else if (op < 0.48) {
            d.scheduleHeap(now +
                           static_cast<double>(script.uniformInt(0, 8)) *
                               0.5);
        } else if (op < 0.60) {
            if (d.tokens() > 0)
                d.cancel(static_cast<int>(
                    script.uniformInt(0, d.tokens() - 1)));
        } else if (op < 0.75) {
            d.sim.runUntil(now + static_cast<double>(
                                     script.uniformInt(0, 6)) * 0.5);
        } else if (op < 0.88) {
            d.sim.step(static_cast<std::uint64_t>(script.uniformInt(1, 6)));
        } else if (op < 0.94) {
            std::ostringstream os;
            {
                dhl::sim::SnapshotWriter w(os);
                d.sim.snapshot(w);
            }
            snapshot = os.str();
        } else if (!snapshot.empty()) {
            // Restore on an emptied queue: cancelled entries, some later
            // than the rewound clock, still sit in the heap and lane.
            d.cancelAll();
            std::istringstream is(snapshot);
            dhl::sim::SnapshotReader r(is);
            d.sim.snapshot(r);
            d.lane_tail = d.sim.now();
        }
    }
    d.sim.run();
}

} // namespace

TEST(SimulatorLane, FiresInTheSameOrderAsTheHeap)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        LaneSide lane(true, seed);
        LaneSide heap(false, seed);
        runLaneScript(seed, lane);
        runLaneScript(seed, heap);
        ASSERT_EQ(lane.fired.size(), heap.fired.size()) << "seed " << seed;
        for (std::size_t i = 0; i < lane.fired.size(); ++i) {
            ASSERT_EQ(lane.fired[i].first, heap.fired[i].first)
                << "seed " << seed << " event " << i;
            ASSERT_EQ(lane.fired[i].second, heap.fired[i].second)
                << "seed " << seed << " event " << i;
        }
        EXPECT_EQ(lane.cancel_results, heap.cancel_results)
            << "seed " << seed;
        EXPECT_EQ(lane.sim.eventsExecuted(), heap.sim.eventsExecuted());
        EXPECT_EQ(lane.sim.pendingEvents(), 0u);
        EXPECT_FALSE(lane.fired.empty());
    }
}

TEST(SimulatorLane, EqualTimesFireInScheduleOrderAcrossHeapAndLane)
{
    Simulator sim;
    std::vector<int> order;
    sim.scheduleInOrder(1.0, [&] { order.push_back(0); });
    sim.scheduleAt(1.0, [&] { order.push_back(1); });
    sim.scheduleInOrder(1.0, [&] { order.push_back(2); });
    sim.scheduleAt(0.5, [&] { order.push_back(3); });
    sim.scheduleInOrder(2.0, [&] { order.push_back(4); });
    sim.scheduleAt(1.0, [&] { order.push_back(5); });
    EXPECT_EQ(sim.pendingEvents(), 6u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{3, 0, 1, 2, 5, 4}));
}

TEST(SimulatorLane, DecreasingTimeIsFatal)
{
    Simulator sim;
    sim.scheduleInOrder(2.0, [] {});
    EXPECT_THROW(sim.scheduleInOrder(1.0, [] {}), dhl::FatalError);
    EXPECT_EQ(sim.pendingEvents(), 1u); // the refused event left no trace
    EXPECT_THROW(sim.scheduleInOrder(-1.0, [] {}), dhl::FatalError);
    // A cancelled tail no longer bounds the order.
    const EventHandle tail = sim.scheduleInOrder(3.0, [] {});
    EXPECT_TRUE(sim.cancel(tail));
    EXPECT_NO_THROW(sim.scheduleInOrder(2.5, [] {}));
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 2u);
}

TEST(SimulatorLane, ThrowingActionStillFreesItsSlot)
{
    Simulator sim;
    int fired = 0;
    sim.scheduleInOrder(1.0, [] { dhl::fatal("boom"); });
    sim.scheduleAt(2.0, [&] { ++fired; });
    EXPECT_THROW(sim.run(), dhl::FatalError);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_EQ(fired, 1);
    // The freed slot is reused without disturbing anything.
    sim.scheduleInOrder(3.0, [&] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 2);
}

//----------------------------------------------------------------------
// Delay lanes: schedule(delay) against the reference queue
//----------------------------------------------------------------------

namespace {

/**
 * One seeded script of schedule / scheduleInOrder / cancel / runUntil /
 * step operations and snapshot hops, run on the kernel and on the
 * reference queue in lockstep.  The delays mix many more recurring
 * values than the kernel has lanes, 0.0 and -0.0, and one-off random
 * values, so events move between the heap and the lanes as slots are
 * keyed, collide and re-keyed.  Cancels aim at the oldest and the
 * newest pending event of one delay: its lane's head and tail.  A hop
 * cancels everything, then restores an earlier clock onto the emptied
 * queue, leaving cancelled entries later than the clock in the lanes.
 */
void
runDelayLaneScript(std::uint64_t seed)
{
    Rng rng(seed);
    Simulator sim;
    ReferenceQueue ref;
    std::vector<Fired> fired_sim;
    std::vector<Fired> fired_ref;

    struct Pending
    {
        EventHandle handle;
        std::uint64_t ref_seq;
        int token;
        int delay_id; // index into the recurring delays, -1 if none
    };
    std::vector<Pending> pending; // schedule order; fired ones linger
    std::vector<char> done;       // per token: fired or cancelled
    double order_tail = 0.0;      // bound for the next in-order time
    std::string saved;            // clock snapshot for a later hop

    constexpr int kRecurring = 40;
    const auto recurring = [](int id) {
        return static_cast<double>(id) * 0.125;
    };

    const auto schedule = [&](double delay, int delay_id) {
        const int token = static_cast<int>(done.size());
        done.push_back(0);
        const EventHandle h = sim.schedule(delay, [&, token] {
            fired_sim.push_back(Fired{sim.now(), token});
            done[static_cast<std::size_t>(token)] = 1;
        });
        pending.push_back(
            Pending{h, ref.schedule(sim.now(), delay, token), token,
                    delay_id});
    };
    const auto scheduleInOrder = [&](double when) {
        const int token = static_cast<int>(done.size());
        done.push_back(0);
        order_tail = when;
        const EventHandle h = sim.scheduleInOrder(when, [&, token] {
            fired_sim.push_back(Fired{sim.now(), token});
            done[static_cast<std::size_t>(token)] = 1;
        });
        pending.push_back(Pending{h, ref.scheduleAt(when, token), token, -1});
    };
    const auto cancel = [&](const Pending &p) {
        const bool ok_sim = sim.cancel(p.handle);
        ASSERT_EQ(ok_sim, ref.cancel(p.ref_seq)) << "seed " << seed;
        if (ok_sim)
            done[static_cast<std::size_t>(p.token)] = 1;
    };
    const auto drainRef = [&](double until) {
        ReferenceQueue::Event e;
        while (ref.popUpTo(until, e))
            fired_ref.push_back(Fired{e.when, e.token});
    };

    for (int op = 0; op < 4000; ++op) {
        const auto kind = static_cast<int>(rng.uniformInt(0, 99));
        if (kind < 40) {
            // Recurring delays, skewed towards a few the way a fleet's
            // fixed step times are.
            const int id = static_cast<int>(
                rng.uniformInt(0, 3) == 0 ? rng.uniformInt(0, kRecurring - 1)
                                          : rng.uniformInt(0, 7));
            schedule(recurring(id), id);
        } else if (kind < 46) {
            schedule(rng.uniformInt(0, 1) == 0 ? 0.0 : -0.0, -1);
        } else if (kind < 52) {
            schedule(rng.uniform(0.0, 4.0), -1); // one-off
        } else if (kind < 58) {
            const int k = static_cast<int>(rng.uniformInt(1, 4));
            double when = std::max(order_tail, sim.now());
            for (int i = 0; i < k; ++i) {
                when += static_cast<double>(rng.uniformInt(0, 2)) * 0.25;
                scheduleInOrder(when);
            }
        } else if (kind < 72) {
            // Cancel the oldest or the newest pending event of one
            // recurring delay: the head or the tail of its lane.
            const int id = static_cast<int>(rng.uniformInt(0, 7));
            const bool head = rng.uniformInt(0, 1) == 0;
            const Pending *target = nullptr;
            for (const Pending &p : pending) {
                if (p.delay_id != id ||
                    done[static_cast<std::size_t>(p.token)])
                    continue;
                target = &p;
                if (head)
                    break;
            }
            if (target != nullptr)
                cancel(*target);
        } else if (kind < 76) {
            if (!pending.empty())
                cancel(pending[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(pending.size()) - 1))]);
        } else if (kind < 88) {
            // Horizons on the delay grid land exactly on event times.
            const double until =
                sim.now() + static_cast<double>(rng.uniformInt(0, 12)) * 0.125;
            sim.runUntil(until);
            drainRef(until);
        } else if (kind < 96) {
            const std::uint64_t n = sim.step(
                static_cast<std::uint64_t>(rng.uniformInt(1, 6)));
            for (std::uint64_t k = 0; k < n; ++k) {
                ReferenceQueue::Event e;
                ASSERT_TRUE(ref.popUpTo(
                    std::numeric_limits<double>::infinity(), e));
                fired_ref.push_back(Fired{e.when, e.token});
            }
        } else if (kind < 98) {
            std::ostringstream os;
            {
                dhl::sim::SnapshotWriter w(os);
                sim.snapshot(w);
            }
            saved = os.str();
        } else if (!saved.empty()) {
            for (const Pending &p : pending)
                cancel(p);
            ASSERT_EQ(sim.pendingEvents(), 0u);
            std::istringstream is(saved);
            dhl::sim::SnapshotReader r(is);
            sim.snapshot(r);
            order_tail = sim.now();
        }
        ASSERT_EQ(fired_sim.size(), fired_ref.size())
            << "seed " << seed << " op " << op;
        ASSERT_EQ(sim.pendingEvents(), ref.pending())
            << "seed " << seed << " op " << op;
        if (pending.size() > 256) {
            std::erase_if(pending, [&](const Pending &p) {
                return done[static_cast<std::size_t>(p.token)] != 0;
            });
        }
    }
    sim.run();
    drainRef(std::numeric_limits<double>::infinity());

    ASSERT_EQ(fired_sim.size(), fired_ref.size()) << "seed " << seed;
    for (std::size_t i = 0; i < fired_sim.size(); ++i) {
        ASSERT_EQ(fired_sim[i], fired_ref[i])
            << "seed " << seed << " firing " << i << ": sim={"
            << fired_sim[i].when << "," << fired_sim[i].token << "} ref={"
            << fired_ref[i].when << "," << fired_ref[i].token << "}";
    }
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

} // namespace

TEST(SimulatorDelayLanes, DifferentialVsReferenceQueue)
{
    for (std::uint64_t seed = 1; seed <= 60; ++seed)
        runDelayLaneScript(seed);
}

TEST(SimulatorDelayLanes, SignedZeroDelaysFireInScheduleOrder)
{
    // 0.0 and -0.0 have different bit patterns, so they may sit in
    // different lanes; both mean "now", and schedule order decides.
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 12; ++i) {
        const double delay = (i % 3 == 0) ? -0.0 : 0.0;
        sim.schedule(delay, [&order, i] { order.push_back(i); });
    }
    sim.schedule(1.0, [&] {
        for (int i = 12; i < 24; ++i) {
            const double delay = (i % 2 == 0) ? -0.0 : 0.0;
            sim.schedule(delay, [&order, i] { order.push_back(i); });
        }
    });
    sim.run();
    std::vector<int> want(24);
    for (int i = 0; i < 24; ++i)
        want[static_cast<std::size_t>(i)] = i;
    EXPECT_EQ(order, want);
    EXPECT_EQ(sim.now(), 1.0);
    EXPECT_FALSE(std::signbit(sim.now()));
}
