/**
 * @file
 * Unit tests for the trace recorder.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/logging.hpp"
#include "sim/trace.hpp"

using namespace dhl::sim;

TEST(TraceTest, DisabledByDefault)
{
    Simulator sim;
    TraceRecorder trace(sim);
    trace.record("cat", "obj", "msg");
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_EQ(trace.totalEmitted(), 0u);
}

TEST(TraceTest, RecordsWithTimestamps)
{
    Simulator sim;
    TraceRecorder trace(sim);
    trace.enable();
    trace.record("track", "t0", "launch");
    sim.schedule(2.5, [&] { trace.record("dock", "st0", "docked"); });
    sim.run();
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_DOUBLE_EQ(trace.records()[0].when, 0.0);
    EXPECT_DOUBLE_EQ(trace.records()[1].when, 2.5);
    EXPECT_EQ(trace.records()[1].category, "dock");
    EXPECT_EQ(trace.records()[1].object, "st0");
    EXPECT_EQ(trace.records()[1].message, "docked");
}

TEST(TraceTest, CapacityEvictsOldest)
{
    Simulator sim;
    TraceRecorder trace(sim, 3);
    trace.enable();
    for (int i = 0; i < 5; ++i)
        trace.record("c", "o", std::string("m").append(std::to_string(i)));
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.totalEmitted(), 5u);
    EXPECT_EQ(trace.dropped(), 2u);
    EXPECT_EQ(trace.records().front().message, "m2");
    EXPECT_EQ(trace.records().back().message, "m4");
}

TEST(TraceTest, FilterByCategory)
{
    Simulator sim;
    TraceRecorder trace(sim);
    trace.enable();
    trace.record("a", "o", "1");
    trace.record("b", "o", "2");
    trace.record("a", "o", "3");
    const auto only_a = trace.filter("a");
    ASSERT_EQ(only_a.size(), 2u);
    EXPECT_EQ(only_a[1].message, "3");
    EXPECT_TRUE(trace.filter("zzz").empty());
}

TEST(TraceTest, DisableStopsRecording)
{
    Simulator sim;
    TraceRecorder trace(sim);
    trace.enable();
    trace.record("a", "o", "kept");
    trace.enable(false);
    trace.record("a", "o", "lost");
    EXPECT_EQ(trace.size(), 1u);
}

TEST(TraceTest, ClearKeepsCounters)
{
    Simulator sim;
    TraceRecorder trace(sim);
    trace.enable();
    trace.record("a", "o", "x");
    trace.clear();
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_EQ(trace.totalEmitted(), 1u);
}

TEST(TraceTest, DumpFormats)
{
    Simulator sim;
    TraceRecorder trace(sim);
    trace.enable();
    trace.record("api", "dhl", "open cart 3");
    std::ostringstream text;
    trace.dump(text);
    EXPECT_NE(text.str().find("[api] dhl: open cart 3"),
              std::string::npos);

    trace.record("api", "dhl", "with,comma");
    std::ostringstream csv;
    trace.dumpCsv(csv);
    EXPECT_NE(csv.str().find("time,category,object,message"),
              std::string::npos);
    EXPECT_NE(csv.str().find("\"with,comma\""), std::string::npos);
}

TEST(TraceTest, RejectsZeroCapacity)
{
    Simulator sim;
    EXPECT_THROW(TraceRecorder(sim, 0), dhl::FatalError);
}

TEST(TraceTest, SetCapacityShrinkEvictsOldest)
{
    Simulator sim;
    TraceRecorder trace(sim, 8);
    trace.enable();
    for (int i = 0; i < 6; ++i)
        trace.record("api", "dhl", std::string("r").append(std::to_string(i)));
    ASSERT_EQ(trace.size(), 6u);

    // Rotation mode for soak runs: shrink to the newest three.
    trace.setCapacity(3);
    EXPECT_EQ(trace.capacity(), 3u);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.records()[0].message, "r3");
    EXPECT_EQ(trace.records()[2].message, "r5");
    // Evictions count as drops, exactly like record()-time rotation.
    EXPECT_EQ(trace.dropped(), 3u);
    EXPECT_EQ(trace.totalEmitted(), 6u);

    // Subsequent records keep rotating at the new bound.
    trace.record("api", "dhl", "r6");
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.records()[0].message, "r4");
    EXPECT_EQ(trace.dropped(), 4u);
}

TEST(TraceTest, SetCapacityGrowKeepsRecords)
{
    Simulator sim;
    TraceRecorder trace(sim, 2);
    trace.enable();
    trace.record("api", "dhl", "a");
    trace.record("api", "dhl", "b");
    trace.setCapacity(5);
    trace.record("api", "dhl", "c");
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.records()[0].message, "a");
    EXPECT_EQ(trace.dropped(), 0u);
    EXPECT_THROW(trace.setCapacity(0), dhl::FatalError);
}

TEST(TraceTest, RecordsFromStringViews)
{
    // record() takes views: literals, substrings and prebuilt buffers
    // flow through without materialising intermediate std::strings.
    Simulator sim;
    TraceRecorder trace(sim);
    trace.enable();
    const std::string buffer = "category-object-message";
    const std::string_view cat(buffer.data(), 8);
    trace.record(cat, std::string_view("object"), "a literal");
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace.records()[0].category, "category");
    EXPECT_EQ(trace.records()[0].object, "object");
    EXPECT_EQ(trace.records()[0].message, "a literal");

    // filter() accepts views too.
    EXPECT_EQ(trace.filter(std::string_view("category")).size(), 1u);
    EXPECT_EQ(trace.filter("nope").size(), 0u);
}
