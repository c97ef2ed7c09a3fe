/**
 * @file
 * Unit tests for the open-loop arrival process
 * (workloads/arrival.hpp): staged profiles, the cursor, the same-grid
 * determinism contract, and snapshot round-trips.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/units.hpp"
#include "sim/snapshot.hpp"
#include "workloads/arrival.hpp"

using namespace dhl;
using namespace dhl::workloads;
namespace u = dhl::units;

namespace {

std::vector<StageSpec>
rampHoldDrain()
{
    RequestClass bulk{"bulk", 3.0, u::gigabytes(64), 0.0, 0};
    RequestClass urgent{"urgent", 1.0, u::gigabytes(8), 0.4, 1};
    return {
        StageSpec{"ramp", 600.0, 0.0, 0.2, {bulk, urgent}},
        StageSpec{"hold", 1200.0, 0.2, 0.2, {bulk, urgent}},
        StageSpec{"drain", 600.0, 0.2, 0.0, {bulk, urgent}},
    };
}

bool
sameEvent(const ArrivalEvent &a, const ArrivalEvent &b)
{
    return a.at == b.at && a.bytes == b.bytes && a.tag == b.tag &&
           a.stage == b.stage && a.priority == b.priority;
}

std::vector<ArrivalEvent>
drainOnGrid(StagedArrivalProcess &p, double step, double end)
{
    std::vector<ArrivalEvent> all;
    for (double t = step; t <= end + 1e-9; t += step)
        for (ArrivalEvent &ev : p.take(t))
            all.push_back(std::move(ev));
    return all;
}

} // namespace

TEST(StagedArrival, TakeAdvancesTheCursorMonotonically)
{
    StagedArrivalProcess p(rampHoldDrain(), 5);
    p.take(700.0);
    EXPECT_EQ(p.cursor(), 700.0);
    EXPECT_TRUE(p.take(700.0).empty()); // an empty window is fine
    EXPECT_THROW(p.take(699.0), FatalError);
    EXPECT_EQ(p.cursor(), 700.0);
    p.take(1e9);
    EXPECT_TRUE(p.exhausted());
}

TEST(StagedArrival, SameGridIsDeterministic)
{
    StagedArrivalProcess a(rampHoldDrain(), 42);
    StagedArrivalProcess b(rampHoldDrain(), 42);
    const auto ea = drainOnGrid(a, 300.0, a.totalDuration());
    const auto eb = drainOnGrid(b, 300.0, b.totalDuration());
    ASSERT_FALSE(ea.empty());
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i)
        EXPECT_TRUE(sameEvent(ea[i], eb[i])) << "event " << i;

    // A different seed produces a different stream.
    StagedArrivalProcess c(rampHoldDrain(), 43);
    const auto ec = drainOnGrid(c, 300.0, c.totalDuration());
    bool any_diff = ec.size() != ea.size();
    for (std::size_t i = 0; !any_diff && i < ea.size(); ++i)
        any_diff = !sameEvent(ea[i], ec[i]);
    EXPECT_TRUE(any_diff);
}

TEST(StagedArrival, ArrivalsLandInsideTheirStage)
{
    StagedArrivalProcess p(rampHoldDrain(), 7);
    EXPECT_EQ(p.totalDuration(), 2400.0);
    const auto events = drainOnGrid(p, 600.0, p.totalDuration());
    ASSERT_FALSE(events.empty());
    double prev = 0.0;
    for (const ArrivalEvent &ev : events) {
        ASSERT_GE(ev.stage, 0);
        ASSERT_LT(ev.stage, 3);
        const StageSpec &s = p.stage(std::size_t(ev.stage));
        double start = 0.0;
        for (int k = 0; k < ev.stage; ++k)
            start += p.stage(std::size_t(k)).duration;
        EXPECT_GE(ev.at, start);
        EXPECT_LT(ev.at, start + s.duration);
        EXPECT_GE(ev.at, prev); // time ordered across takes
        prev = ev.at;
        // Class fields propagate.
        if (ev.tag == "bulk") {
            EXPECT_EQ(ev.priority, 0);
            EXPECT_EQ(ev.bytes, u::gigabytes(64)); // sigma 0: constant
        } else {
            EXPECT_EQ(ev.tag, "urgent");
            EXPECT_EQ(ev.priority, 1);
            EXPECT_GT(ev.bytes, 0.0);
        }
    }
    EXPECT_TRUE(p.exhausted());
    EXPECT_EQ(p.emitted(), events.size());
}

TEST(StagedArrival, ZeroRateStagesProduceNothing)
{
    RequestClass only{"idle", 1.0, u::gigabytes(1), 0.0, 0};
    std::vector<StageSpec> stages = {
        StageSpec{"quiet", 500.0, 0.0, 0.0, {only}},
        StageSpec{"still", 500.0, 0.0, 0.0, {only}},
    };
    StagedArrivalProcess p(stages, 11);
    EXPECT_TRUE(p.take(400.0).empty());
    EXPECT_FALSE(p.exhausted());
    EXPECT_TRUE(p.take(1000.0).empty());
    EXPECT_TRUE(p.exhausted());
    EXPECT_EQ(p.emitted(), 0u);
}

TEST(StagedArrival, SnapshotContinuesByteForByteOnSameGrid)
{
    // Oracle: one process consumed on a fixed grid, uninterrupted.
    StagedArrivalProcess oracle(rampHoldDrain(), 99);
    const auto want = drainOnGrid(oracle, 200.0, oracle.totalDuration());

    // Subject: same grid, but snapshot/restore into a fresh process at
    // an interior boundary.
    StagedArrivalProcess first(rampHoldDrain(), 99);
    std::vector<ArrivalEvent> got = drainOnGrid(first, 200.0, 800.0);

    std::stringstream doc;
    {
        sim::SnapshotWriter w(doc);
        first.snapshot(w);
    }
    StagedArrivalProcess second(rampHoldDrain(), 1); // wrong seed on purpose
    sim::SnapshotReader r(doc);
    second.snapshot(r);
    EXPECT_EQ(second.cursor(), 800.0);
    for (double t = 1000.0; t <= second.totalDuration() + 1e-9; t += 200.0)
        for (ArrivalEvent &ev : second.take(t))
            got.push_back(std::move(ev));

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(sameEvent(got[i], want[i])) << "event " << i;
}

TEST(StagedArrival, BufferTakeMatchesReturningTakeAcrossARestore)
{
    // Oracle: the returning take() on a fixed grid, uninterrupted.
    StagedArrivalProcess oracle(rampHoldDrain(), 99);
    const auto want = drainOnGrid(oracle, 150.0, oracle.totalDuration());
    ASSERT_GT(want.size(), 100u);

    // Subject: take(t, buffer) into one reused buffer that starts with
    // stale events, restored into a fresh process at an interior epoch.
    std::vector<ArrivalEvent> buffer(3);
    std::vector<ArrivalEvent> got;
    StagedArrivalProcess first(rampHoldDrain(), 99);
    double t = 150.0;
    for (; t <= 900.0 + 1e-9; t += 150.0) {
        first.take(t, buffer);
        got.insert(got.end(), buffer.begin(), buffer.end());
    }
    std::stringstream doc;
    {
        sim::SnapshotWriter w(doc);
        first.snapshot(w);
    }
    StagedArrivalProcess second(rampHoldDrain(), 1); // wrong seed on purpose
    sim::SnapshotReader r(doc);
    second.snapshot(r);
    for (; t <= second.totalDuration() + 1e-9; t += 150.0) {
        second.take(t, buffer);
        got.insert(got.end(), buffer.begin(), buffer.end());
    }

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(sameEvent(got[i], want[i])) << "event " << i;
}

TEST(StagedArrival, RateAtAndStageAtFollowTheProfile)
{
    StagedArrivalProcess p(rampHoldDrain(), 1);
    EXPECT_EQ(p.stageAt(0.0), 0u);
    EXPECT_EQ(p.stageAt(600.0), 1u);
    EXPECT_EQ(p.stageAt(1799.0), 1u);
    EXPECT_EQ(p.stageAt(1e9), 2u); // clamped to the last stage
    EXPECT_DOUBLE_EQ(p.rateAt(0.0), 0.0);
    EXPECT_NEAR(p.rateAt(300.0), 0.1, 1e-12); // midway up the ramp
    EXPECT_NEAR(p.rateAt(1200.0), 0.2, 1e-12);
    EXPECT_NEAR(p.rateAt(2100.0), 0.1, 1e-12); // midway down the drain
}

TEST(StagedArrival, ConstructionValidatesStages)
{
    RequestClass ok{"x", 1.0, u::gigabytes(1), 0.0, 0};
    EXPECT_THROW(StagedArrivalProcess({}, 1), FatalError);
    EXPECT_THROW(StagedArrivalProcess(
                     {StageSpec{"bad", 0.0, 1.0, 1.0, {ok}}}, 1),
                 FatalError); // zero duration
    EXPECT_THROW(StagedArrivalProcess(
                     {StageSpec{"bad", 10.0, -1.0, 1.0, {ok}}}, 1),
                 FatalError); // negative rate
    EXPECT_THROW(
        StagedArrivalProcess({StageSpec{"bad", 10.0, 1.0, 1.0, {}}}, 1),
        FatalError); // empty mix
    RequestClass bad_weight{"x", 0.0, u::gigabytes(1), 0.0, 0};
    EXPECT_THROW(StagedArrivalProcess(
                     {StageSpec{"bad", 10.0, 1.0, 1.0, {bad_weight}}}, 1),
                 FatalError);
}

TEST(StagedArrival, ParseStageSpec)
{
    const auto stages =
        parseStageSpec("ramp:600:0:0.5,peak:1200:0.5,cool:600:0.5:0",
                       u::gigabytes(64), 0.25);
    ASSERT_EQ(stages.size(), 3u);
    EXPECT_EQ(stages[0].name, "ramp");
    EXPECT_DOUBLE_EQ(stages[0].duration, 600.0);
    EXPECT_DOUBLE_EQ(stages[0].start_rate, 0.0);
    EXPECT_DOUBLE_EQ(stages[0].end_rate, 0.5);
    // Three-field form is a hold stage: end_rate == start_rate.
    EXPECT_DOUBLE_EQ(stages[1].start_rate, 0.5);
    EXPECT_DOUBLE_EQ(stages[1].end_rate, 0.5);
    EXPECT_DOUBLE_EQ(stages[2].end_rate, 0.0);
    ASSERT_EQ(stages[0].mix.size(), 1u);
    EXPECT_EQ(stages[0].mix[0].tag, "serve");
    EXPECT_DOUBLE_EQ(stages[0].mix[0].median_bytes, u::gigabytes(64));
    EXPECT_DOUBLE_EQ(stages[0].mix[0].sigma, 0.25);

    EXPECT_THROW(parseStageSpec("", u::gigabytes(1), 0.0), FatalError);
    EXPECT_THROW(parseStageSpec("noduration", u::gigabytes(1), 0.0),
                 FatalError);
    EXPECT_THROW(parseStageSpec("a:xyz:1", u::gigabytes(1), 0.0),
                 FatalError);
    EXPECT_THROW(parseStageSpec("a:600:1:2:3", u::gigabytes(1), 0.0),
                 FatalError); // too many fields
}
