/**
 * @file
 * Unit tests for the snapshot layer (sim/snapshot.hpp): scoped
 * key/value round-trips, bit-exact doubles, RNG stream positions, the
 * Simulator kernel's own save/restore contract, the sequential
 * reader's rejection of tampered documents, and a differential check
 * of the buffered writer and in-order reader against the unbuffered
 * originals kept in tests/snapshot_reference.hpp.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "sim/simulator.hpp"
#include "sim/snapshot.hpp"
#include "snapshot_reference.hpp"

using namespace dhl;
using namespace dhl::sim;

TEST(SnapshotTest, ScopedRoundTrip)
{
    std::stringstream doc;
    {
        SnapshotWriter w(doc);
        w.putString("name", "fleet");
        w.putU64("tracks", 7);
        {
            SnapshotScope<SnapshotWriter> scope(w, "t0");
            w.putI64("delta", -42);
            w.putBool("up", true);
            {
                SnapshotScope<SnapshotWriter> inner(w, "track");
                w.putU64("launches", 9);
            }
        }
        w.putBool("done", false);
    }

    // A reader takes the keys back in the order they were written.
    SnapshotReader r(doc);
    EXPECT_EQ(r.getString("name"), "fleet");
    EXPECT_EQ(r.getU64("tracks"), 7u);
    {
        SnapshotScope<SnapshotReader> scope(r, "t0");
        EXPECT_EQ(r.getI64("delta"), -42);
        EXPECT_TRUE(r.getBool("up"));
        {
            SnapshotScope<SnapshotReader> inner(r, "track");
            EXPECT_EQ(r.getU64("launches"), 9u);
        }
    }
    EXPECT_FALSE(r.getBool("done"));
    EXPECT_NO_THROW(r.finish());
}

TEST(SnapshotTest, DoublesAreBitExact)
{
    // The equivalence oracle depends on restored doubles being the
    // *identical* IEEE-754 value, not a decimal round trip.
    const double values[] = {
        0.1 + 0.2, // classic non-representable sum
        1.0 / 3.0,
        -0.0,
        5e-324,                                  // smallest denormal
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    std::stringstream doc;
    {
        SnapshotWriter w(doc);
        for (std::size_t i = 0; i < std::size(values); ++i)
            w.putDouble(IndexedKey("v", i), values[i]);
        w.putDouble("nan", std::nan(""));
    }
    SnapshotReader r(doc);
    for (std::size_t i = 0; i < std::size(values); ++i) {
        // Bit for bit, so -0.0 keeps its sign bit.
        const double got = r.getDouble(IndexedKey("v", i));
        EXPECT_EQ(std::memcmp(&got, &values[i], sizeof got), 0)
            << "value " << i;
    }
    EXPECT_TRUE(std::isnan(r.getDouble("nan")));
}

TEST(SnapshotTest, SeriesWritesThePutDoubleBytes)
{
    // A series is byte for byte the putDouble() line per indexed key,
    // inside scopes of several lengths (so batches end at different
    // offsets of the writer's buffer), across buffer flushes (10002
    // lines is many flushes) and across the index rollovers 9/10 ...
    // 9999/10000; and it reads back bit-exact.
    std::vector<double> values = {0.0, -0.0, 1.0 / 3.0, 5e-324,
                                  std::numeric_limits<double>::infinity()};
    Rng rng(9);
    while (values.size() < 10002)
        values.push_back(rng.lognormal(0.0, 3.0));
    const std::size_t lengths[] = {0, 1, 9, 10, 11, 99, 100, 101, 1000, 1001,
                                   9999, 10000, 10001, values.size()};
    // Appended piece by piece: GCC 12 at -O3 warns (-Wrestrict) on
    // "l" + std::to_string(n).
    const auto keyFor = [](std::size_t n) {
        std::string key = "l";
        key += std::to_string(n);
        key += '_';
        return key;
    };
    for (const std::string scope : {"s", "serve.stage_with_a_long_name"}) {
        std::stringstream series, per_key;
        {
            SnapshotWriter a(series);
            SnapshotWriter b(per_key);
            for (SnapshotWriter *w : {&a, &b})
                w->push(scope);
            for (const std::size_t n : lengths) {
                const std::vector<double> head(values.begin(),
                                               values.begin() + n);
                const std::string key = keyFor(n);
                a.series(key, n, head);
                for (std::size_t j = 0; j < n; ++j)
                    b.putDouble(IndexedKey(key, j), values[j]);
            }
            for (SnapshotWriter *w : {&a, &b}) {
                w->pop();
                w->putU64("after", 1);
            }
        }
        // Not ASSERT_EQ: gtest would diff two 0.5 MB documents line by
        // line on a failure.
        const std::string got = series.str();
        const std::string want = per_key.str();
        const std::size_t at = static_cast<std::size_t>(
            std::mismatch(got.begin(), got.end(), want.begin(), want.end())
                .first -
            got.begin());
        ASSERT_TRUE(got == want)
            << scope << ": first difference at byte " << at << ": '"
            << got.substr(at, 40) << "' against '" << want.substr(at, 40)
            << "'";
        for (const char *rollover :
             {"_9 = ", "_10 = ", "_99 = ", "_100 = ", "_999 = ", "_1000 = ",
              "_9999 = ", "_10000 = "})
            EXPECT_NE(series.str().find(rollover), std::string::npos)
                << rollover;

        SnapshotReader r(series);
        r.push(scope);
        for (const std::size_t n : lengths) {
            std::vector<double> got = {7.0}; // appended to, not replaced
            r.series(keyFor(n), n, got);
            ASSERT_EQ(got.size(), n + 1);
            for (std::size_t j = 0; j < n; ++j) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j + 1]),
                          std::bit_cast<std::uint64_t>(values[j]))
                    << "series " << n << " sample " << j;
            }
        }
        r.pop();
        EXPECT_EQ(r.getU64("after"), 1u);
        EXPECT_NO_THROW(r.finish());
    }
}

TEST(SnapshotTest, SeriesReadsOtherSpellingsAndNamesTheMissingSample)
{
    // Each sample is read as getDouble() reads it: a comment, a blank
    // line, upper-case or short hex and a decimal value all pass.
    std::istringstream doc("dhl-snapshot 1\n"
                           "s.l0 = 0x3ff0000000000000\n"
                           "# comment\n"
                           "\n"
                           "s.l1 = 0x3FF8000000000000\n"
                           "s.l2 = 0x1\n"
                           "s.l3 = 4607182418800017408\n"
                           "s.l4 = 0x4000000000000000\n"
                           "after = 1\n");
    SnapshotReader r(doc);
    r.push("s");
    std::vector<double> got;
    r.series("l", 5, got);
    EXPECT_EQ(got, (std::vector<double>{1.0, 1.5, 5e-324, 1.0, 2.0}));
    // A count past the written samples ends at the first line that is
    // not the next sample, and names that sample.
    try {
        r.series("l", 1, got);
        ADD_FAILURE() << "read a sample that is not there";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(),
                     "snapshot: expected key 's.l0', found 'after = 1'");
    }
    r.pop();
    EXPECT_EQ(r.getU64("after"), 1u);
    try {
        std::vector<double> more;
        r.series("l", 1, more);
        ADD_FAILURE() << "read past the end of the document";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "snapshot: expected key 'l0', found the end "
                               "of the document");
    }

    // A gap in the index run names the sample that is missing.
    std::istringstream gap("dhl-snapshot 1\nl0 = 0x0\nl2 = 0x0\n");
    SnapshotReader g(gap);
    std::vector<double> some;
    try {
        g.series("l", 3, some);
        ADD_FAILURE() << "read across a gap";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(),
                     "snapshot: expected key 'l1', found 'l2 = 0x0'");
    }
    EXPECT_EQ(some.size(), 1u);

    // A sample that is not exactly 16 hex digits fails as getDouble()
    // fails on it.
    for (const char *bad : {"l0 = 0x3ff000000000000g\n",
                            "l0 = 0x3ff0000000000000 \n",
                            "l0 = 0x3ff00000000000001\n"}) {
        std::istringstream in(std::string("dhl-snapshot 1\n") + bad);
        SnapshotReader b(in);
        std::vector<double> v;
        try {
            b.series("l", 1, v);
            ADD_FAILURE() << "accepted " << bad;
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()).rfind(
                          "snapshot: bad integer for 'l0': '0x3ff", 0),
                      0u)
                << e.what();
        }
    }
}

TEST(SnapshotTest, RngContinuesIdentically)
{
    Rng original(1234);
    for (int i = 0; i < 100; ++i)
        original.uniform();
    // Park a Box-Muller spare so the full state is exercised.
    original.normal();

    std::stringstream doc;
    {
        SnapshotWriter w(doc);
        w.putRng("rng", original);
    }
    SnapshotReader r(doc);
    Rng restored(1); // different seed: state must come from the doc
    r.getRng("rng", restored);

    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(original.uniform(), restored.uniform());
        EXPECT_EQ(original.normal(), restored.normal());
        EXPECT_EQ(original.exponential(3.0), restored.exponential(3.0));
    }
}

TEST(SnapshotTest, MissingKeyAndMalformedDocumentFail)
{
    std::stringstream doc;
    {
        SnapshotWriter w(doc);
        w.putU64("present", 1);
    }
    SnapshotReader r(doc);
    // A key that is not the next line names both; the line stays
    // unread.
    try {
        r.getU64("absent");
        ADD_FAILURE() << "read a key that is not the next line";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(),
                     "snapshot: expected key 'absent', found 'present = 1'");
    }
    EXPECT_THROW(r.getU64("present.nested"), FatalError);
    EXPECT_THROW(r.getU64("resent"), FatalError); // a suffix is not the key
    EXPECT_THROW(r.getU64("pres"), FatalError);   // nor is a prefix
    EXPECT_EQ(r.getU64("present"), 1u);
    EXPECT_NO_THROW(r.finish());
    try {
        r.getU64("more");
        ADD_FAILURE() << "read past the end of the document";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "snapshot: expected key 'more', found the "
                               "end of the document");
    }

    std::stringstream garbage("not a snapshot\n");
    EXPECT_THROW(SnapshotReader bad(garbage), FatalError);
}

namespace {

/** A small document: scalars, a scope, an RNG and a series. */
std::string
strictnessDoc()
{
    std::ostringstream out;
    {
        SnapshotWriter w(out);
        w.putU64("epochs", 3);
        w.push("s0");
        w.putDouble("bytes", 2.5);
        w.putU64("samples", 12);
        std::vector<double> samples;
        for (int i = 0; i < 12; ++i)
            samples.push_back(0.5 * i);
        w.series("l", samples.size(), samples);
        w.pop();
        w.putRng("rng", Rng(4));
        w.putBool("done", true);
    }
    return out.str();
}

/** Read strictnessDoc()'s keys in order and finish; the FatalError
 *  text, or "" if @p doc reads cleanly. */
std::string
strictRead(const std::string &doc)
{
    std::istringstream in(doc);
    try {
        SnapshotReader r(in);
        r.getU64("epochs");
        r.push("s0");
        r.getDouble("bytes");
        std::vector<double> samples;
        r.series("l", r.getU64("samples"), samples);
        r.pop();
        Rng rng(1);
        r.getRng("rng", rng);
        r.getBool("done");
        r.finish();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** @p doc's lines, newline included, header first. */
std::vector<std::string>
docLines(const std::string &doc)
{
    std::vector<std::string> lines;
    for (std::size_t at = 0; at < doc.size();) {
        const std::size_t end = doc.find('\n', at) + 1;
        lines.push_back(doc.substr(at, end - at));
        at = end;
    }
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string doc;
    for (const std::string &line : lines)
        doc += line;
    return doc;
}

} // namespace

TEST(SnapshotTest, TamperedDocumentsNameTheExpectedKey)
{
    // The reader accepts exactly the written lines in the written
    // order: reordering, padding, duplicating or truncating a document
    // ends in a fatal that names the key the reader expected.
    const std::string doc = strictnessDoc();
    ASSERT_EQ(strictRead(doc), "");
    const std::vector<std::string> lines = docLines(doc);
    ASSERT_EQ(lines[1], "epochs = 3\n");
    ASSERT_EQ(lines[2], "s0.bytes = 0x4004000000000000\n");

    std::vector<std::string> swapped = lines;
    std::swap(swapped[1], swapped[2]);
    EXPECT_EQ(strictRead(joinLines(swapped)),
              "snapshot: expected key 'epochs', found "
              "'s0.bytes = 0x4004000000000000'");

    std::vector<std::string> reversed = lines;
    std::reverse(reversed.begin() + 1, reversed.end());
    EXPECT_EQ(strictRead(joinLines(reversed)),
              "snapshot: expected key 'epochs', found 'done = true'");

    EXPECT_EQ(strictRead(doc + "bogus.key = 42\n"),
              "snapshot: expected the end of the document, found "
              "'bogus.key = 42'");
    // Trailing blank and comment lines are not content.
    EXPECT_EQ(strictRead(doc + "\n# end\n"), "");

    std::vector<std::string> doubled = lines;
    doubled.insert(doubled.begin() + 2, lines[1]);
    EXPECT_EQ(strictRead(joinLines(doubled)),
              "snapshot: expected key 's0.bytes', found 'epochs = 3'");
    std::vector<std::string> doubled_last = lines;
    doubled_last.push_back(lines.back());
    EXPECT_EQ(strictRead(joinLines(doubled_last)),
              "snapshot: expected the end of the document, found "
              "'done = true'");

    // The series' last sample dropped: its key is expected where the
    // RNG's first line stands.
    std::vector<std::string> short_series = lines;
    const auto last_sample =
        std::find_if(short_series.begin(), short_series.end(),
                     [](const std::string &l) {
                         return l.rfind("s0.l11 = ", 0) == 0;
                     });
    ASSERT_NE(last_sample, short_series.end());
    const std::string next = *(last_sample + 1);
    short_series.erase(last_sample);
    EXPECT_EQ(strictRead(joinLines(short_series)),
              "snapshot: expected key 's0.l11', found '" +
                  next.substr(0, next.size() - 1) + "'");

    EXPECT_EQ(strictRead(doc.substr(0, doc.find("s0.l5 = "))),
              "snapshot: expected key 's0.l5', found the end of the "
              "document");
}

TEST(SnapshotTest, ReadsFromTheStreamPositionWithOrWithoutSeeking)
{
    // A seekable stream is read in one piece from where it stands; a
    // stream that cannot seek is read in chunks.  Both give the whole
    // rest of the stream, however long.
    std::ostringstream out;
    {
        SnapshotWriter w(out);
        w.putString("long", std::string(100000, 'x'));
        w.putU64("last", 5);
    }
    const std::string doc = out.str();

    struct OneWayBuf : std::streambuf
    {
        explicit OneWayBuf(std::string text) : text_(std::move(text))
        {
            setg(text_.data(), text_.data(), text_.data() + text_.size());
        }
        std::string text_;
    };
    OneWayBuf one_way(doc);
    std::istream unseekable(&one_way);
    ASSERT_EQ(unseekable.tellg(), std::streampos(-1));

    std::istringstream seekable("preamble\n" + doc);
    std::string skipped;
    std::getline(seekable, skipped);

    for (std::istream *in : {&unseekable, static_cast<std::istream *>(&seekable)}) {
        SnapshotReader r(*in);
        EXPECT_EQ(r.getString("long").size(), 100000u);
        EXPECT_EQ(r.getU64("last"), 5u);
        EXPECT_NO_THROW(r.finish());
    }
}

TEST(SnapshotTest, WriteFailureShowsInStreamState)
{
    // The writer buffers, so its last write happens in its destructor:
    // a failure there must land in the stream's state, and must not end
    // the program even when the stream is set to throw.
    struct RefusingBuf : std::streambuf
    {
        int_type overflow(int_type) override { return traits_type::eof(); }
        std::streamsize xsputn(const char *, std::streamsize) override
        {
            return 0;
        }
    };
    for (const bool throwing : {false, true}) {
        RefusingBuf buf;
        std::ostream os(&buf);
        if (throwing)
            os.exceptions(std::ios::badbit);
        {
            SnapshotWriter w(os);
            w.putU64("a", 1);
        }
        EXPECT_TRUE(os.bad()) << "throwing=" << throwing;
    }
}

TEST(SnapshotTest, SimulatorKernelRoundTrip)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(1.0, [&] { ++fired; });
    sim.schedule(2.0, [&] { ++fired; });
    sim.run();
    ASSERT_EQ(fired, 2);

    std::stringstream doc;
    {
        SnapshotWriter w(doc);
        sim.snapshot(w);
    }

    Simulator copy;
    SnapshotReader r(doc);
    copy.snapshot(r);
    EXPECT_EQ(copy.now(), sim.now());

    // Restored clock gates future scheduling exactly like the original.
    EXPECT_THROW(copy.scheduleAt(0.5, [] {}), FatalError);
    bool ran = false;
    copy.scheduleAt(3.0, [&] { ran = true; });
    copy.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(copy.now(), 3.0);
}

TEST(SnapshotTest, SimulatorRefusesRestoreWithPendingEvents)
{
    Simulator sim;
    sim.schedule(1.0, [] {});
    sim.run();
    std::stringstream doc;
    {
        SnapshotWriter w(doc);
        sim.snapshot(w);
    }

    Simulator busy;
    busy.schedule(5.0, [] {});
    SnapshotReader r(doc);
    try {
        busy.snapshot(r);
        ADD_FAILURE() << "restored onto a non-empty queue";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "simulator restore requires an empty event "
                               "queue (cancel constructor-scheduled events "
                               "first)");
    }
}

TEST(SnapshotTest, RunEpochStopsAtBoundary)
{
    Simulator sim;
    std::vector<double> fired;
    for (double t : {1.0, 2.0, 3.0, 7.0})
        sim.scheduleAt(t, [&fired, t] { fired.push_back(t); });

    const auto first = sim.runEpoch(3.0);
    EXPECT_EQ(first.end, 3.0);
    EXPECT_EQ(first.events, 3u);
    EXPECT_FALSE(first.queue_empty);
    EXPECT_EQ(sim.now(), 3.0);

    const auto second = sim.runEpoch(10.0);
    EXPECT_EQ(second.events, 1u);
    EXPECT_TRUE(second.queue_empty);
    ASSERT_EQ(fired.size(), 4u);
    EXPECT_EQ(fired.back(), 7.0);
}

//===========================================================================
// Differential check against tests/snapshot_reference.hpp
//===========================================================================

namespace {

/** One writer call, replayed identically on both writers. */
struct PutOp
{
    enum Kind { Push, Pop, String, U64, I64, Bool, Double, RngPut };

    Kind kind;
    std::string key; ///< Key, or scope name for Push.
    std::string text; ///< String value.
    std::uint64_t bits = 0; ///< U64/I64/Double bits, Bool, or RNG seed.
};

double
edgeDouble(std::mt19937_64 &gen)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    auto bits = [](std::uint64_t v) { return std::bit_cast<double>(v); };
    const double edges[] = {
        0.0,
        -0.0,
        inf,
        -inf,
        std::numeric_limits<double>::quiet_NaN(),
        bits(0x7ff0000000000001), // signalling NaN
        bits(0xfff8000000000123), // negative quiet NaN with a payload
        bits(0x7fffffffffffffff), // all-ones payload
        5e-324,                   // smallest denormal
        bits(0x000fffffffffffff), // largest denormal
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        0.1 + 0.2,
    };
    if (gen() % 2 == 0)
        return edges[gen() % std::size(edges)];
    return std::bit_cast<double>(gen());
}

std::string
randomText(std::mt19937_64 &gen)
{
    static const std::string pieces[] = {
        "", " = ", "a = b = c", "#not a comment", " ", "x", "=", " =",
        "= ", "tab\there", "\r", "0x", "-1", "true", "caf\xc3\xa9",
    };
    std::string out;
    const std::size_t n = gen() % 4;
    for (std::size_t i = 0; i < n; ++i)
        out += pieces[gen() % std::size(pieces)];
    if (gen() % 64 == 0) // occasionally longer than the writer's buffer
        out.append(40000 + gen() % 30000, static_cast<char>('a' + gen() % 26));
    return out;
}

/**
 * A random, well-formed put sequence: every full key is unique (each
 * key carries a running index), scopes nest up to four deep, and every
 * put type appears.  Scopes still open at the end are left open.
 */
std::vector<PutOp>
randomOps(std::uint64_t seed, std::size_t count)
{
    static const char *const names[] = {"t", "track", "faults", "q",
                                        "serve", "s0", "x_y", "ctl"};
    std::mt19937_64 gen(seed);
    std::vector<PutOp> ops;
    std::vector<std::string> scopes;
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t pick = gen() % 16;
        PutOp op{PutOp::Push, {}, {}, 0};
        const std::string key =
            std::string(names[gen() % std::size(names)]) +
            std::to_string(i);
        if (pick == 0 && scopes.size() < 4) {
            op.kind = PutOp::Push;
            op.key = names[gen() % std::size(names)];
            if (gen() % 2 == 0)
                op.key += std::to_string(gen() % 100);
            scopes.push_back(op.key);
            ops.push_back(op);
            continue;
        }
        if (pick == 1 && !scopes.empty()) {
            op.kind = PutOp::Pop;
            scopes.pop_back();
            ops.push_back(op);
            continue;
        }
        op.key = key;
        switch (pick % 7) {
        case 0:
            op.kind = PutOp::String;
            op.text = randomText(gen);
            break;
        case 1: {
            op.kind = PutOp::U64;
            const std::uint64_t edges[] = {
                0, 1, 9, 10, std::numeric_limits<std::uint64_t>::max(),
                std::uint64_t{1} << 63};
            op.bits = gen() % 2 ? edges[gen() % std::size(edges)]
                                : gen() >> (gen() % 64);
            break;
        }
        case 2: {
            op.kind = PutOp::I64;
            const std::int64_t edges[] = {
                0, -1, 1, std::numeric_limits<std::int64_t>::min(),
                std::numeric_limits<std::int64_t>::max()};
            op.bits = static_cast<std::uint64_t>(
                gen() % 2 ? edges[gen() % std::size(edges)]
                          : static_cast<std::int64_t>(gen()) >>
                                (gen() % 64));
            break;
        }
        case 3:
            op.kind = PutOp::Bool;
            op.bits = gen() % 2;
            break;
        case 4:
        case 5:
            op.kind = PutOp::Double;
            op.bits = std::bit_cast<std::uint64_t>(edgeDouble(gen));
            break;
        default:
            op.kind = PutOp::RngPut;
            op.bits = gen();
            break;
        }
        ops.push_back(op);
    }
    return ops;
}

Rng
rngFor(std::uint64_t seed)
{
    Rng rng(seed);
    for (std::uint64_t i = 0; i < seed % 7; ++i)
        rng.uniform();
    if (seed % 2 != 0)
        rng.normal(); // park a Box-Muller spare
    return rng;
}

template <typename Writer>
std::string
writeDoc(const std::vector<PutOp> &ops)
{
    std::stringstream out;
    {
        Writer w(out);
        for (const PutOp &op : ops) {
            switch (op.kind) {
            case PutOp::Push:
                w.push(op.key);
                break;
            case PutOp::Pop:
                w.pop();
                break;
            case PutOp::String:
                w.putString(op.key, op.text);
                break;
            case PutOp::U64:
                w.putU64(op.key, op.bits);
                break;
            case PutOp::I64:
                w.putI64(op.key, static_cast<std::int64_t>(op.bits));
                break;
            case PutOp::Bool:
                w.putBool(op.key, op.bits != 0);
                break;
            case PutOp::Double:
                w.putDouble(op.key, std::bit_cast<double>(op.bits));
                break;
            case PutOp::RngPut:
                w.putRng(op.key, rngFor(op.bits));
                break;
            }
        }
    }
    return out.str();
}

/** Run one read, recording its value or the FatalError text. */
void
record(std::vector<std::string> &out,
       const std::function<std::string()> &read)
{
    try {
        out.push_back("ok " + read());
    } catch (const FatalError &e) {
        out.push_back(std::string("fatal ") + e.what());
    }
}

/** The one-line getter @p kind (String ... Double) on @p key, as text. */
template <typename Reader>
std::string
readAs(Reader &r, PutOp::Kind kind, const std::string &key)
{
    switch (kind) {
    case PutOp::U64:
        return std::to_string(r.getU64(key));
    case PutOp::I64:
        return std::to_string(r.getI64(key));
    case PutOp::Bool:
        return r.getBool(key) ? "1" : "0";
    case PutOp::Double:
        return std::to_string(std::bit_cast<std::uint64_t>(r.getDouble(key)));
    default:
        return r.getString(key);
    }
}

/** The one-line getters, for reading a line with another type. */
constexpr PutOp::Kind kLineKinds[] = {PutOp::String, PutOp::U64, PutOp::I64,
                                      PutOp::Bool, PutOp::Double};

/** The end of a read: the strict reader's finish(); the reference
 *  reader has nothing to check. */
template <typename Reader>
void
recordEnd(Reader &r, std::vector<std::string> &out)
{
    record(out, [&] {
        if constexpr (std::is_same_v<Reader, SnapshotReader>)
            r.finish();
        return std::string("end");
    });
}

/**
 * Read @p ops back in the order they were written, as a snapshot body
 * does: a getter per put under the same scopes, then the end.  Every
 * third one-line put is read with another getter, so value errors are
 * compared too (a line is consumed whether or not its value parses).
 */
template <typename Reader>
std::vector<std::string>
readInOrder(const std::string &doc, const std::vector<PutOp> &ops)
{
    std::vector<std::string> out;
    std::istringstream in(doc);
    Reader r(in);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const PutOp &op = ops[i];
        switch (op.kind) {
        case PutOp::Push:
            r.push(op.key);
            break;
        case PutOp::Pop:
            r.pop();
            break;
        case PutOp::RngPut:
            record(out, [&] {
                Rng rng(1);
                r.getRng(op.key, rng);
                const RngState s = rng.saveState();
                return std::to_string(s.state[0]) + " " +
                       std::to_string(s.state[1]) + " " +
                       std::to_string(s.state[2]) + " " +
                       std::to_string(s.state[3]) + " " +
                       std::to_string(s.has_spare) + " " +
                       std::to_string(std::bit_cast<std::uint64_t>(s.spare));
            });
            break;
        default: {
            const PutOp::Kind kind =
                i % 3 == 0 ? kLineKinds[i / 3 % std::size(kLineKinds)]
                           : op.kind;
            record(out, [&] { return readAs(r, kind, op.key); });
        }
        }
    }
    recordEnd(r, out);
    return out;
}

/**
 * Read each content line of @p doc in order, once per key, as a
 * snapshot body would: the key is the text before the first " = " (the
 * whole line if there is none), a dotted key is read inside a scope of
 * its first part, and line i uses getter (i + @p shift) of kLineKinds.
 * A key already read is not asked for again.  Records each value or
 * error, or the constructor's error.
 */
template <typename Reader>
std::vector<std::string>
readLines(const std::string &doc, std::size_t shift)
{
    std::vector<std::string> out;
    std::istringstream in(doc);
    try {
        Reader r(in);
        out.push_back("parsed");
        std::set<std::string> asked;
        std::size_t i = 0;
        for (std::size_t at = doc.find('\n'); at < doc.size();) {
            const std::size_t end = std::min(doc.find('\n', at + 1), doc.size());
            const std::string line = doc.substr(at + 1, end - at - 1);
            at = end;
            if (line.empty() || line[0] == '#' ||
                !asked.insert(line.substr(0, line.find(" = "))).second)
                continue;
            const std::string key = line.substr(0, line.find(" = "));
            const std::size_t dot = key.find('.');
            const PutOp::Kind kind =
                kLineKinds[(i++ + shift) % std::size(kLineKinds)];
            if (dot == std::string::npos) {
                record(out, [&] { return readAs(r, kind, key); });
            } else {
                r.push(key.substr(0, dot));
                record(out,
                       [&] { return readAs(r, kind, key.substr(dot + 1)); });
                r.pop();
            }
        }
        recordEnd(r, out);
    } catch (const FatalError &e) {
        out.push_back(std::string("fatal ") + e.what());
    }
    return out;
}

} // namespace

TEST(SnapshotDifferential, WriterMatchesReferenceBytes)
{
    std::size_t longest = 0;
    for (std::uint64_t seed = 1; seed <= 240; ++seed) {
        const std::size_t count = seed % 20 == 0 ? 6000 : seed % 50;
        const auto ops = randomOps(seed, count);
        const std::string want = writeDoc<reference::SnapshotWriter>(ops);
        const std::string got = writeDoc<SnapshotWriter>(ops);
        ASSERT_EQ(got, want) << "seed " << seed;
        longest = std::max(longest, got.size());
    }
    // Some documents are many times the writer's internal buffer.
    EXPECT_GT(longest, 256u * 1024u);
}

TEST(SnapshotDifferential, ReaderMatchesReferenceOnValidDocuments)
{
    // Read in the written order, the strict reader returns every value
    // and value error the reference reader does, and finds nothing left
    // at the end.
    for (std::uint64_t seed = 1; seed <= 240; ++seed) {
        const std::size_t count = seed % 60 == 0 ? 1500 : seed % 50;
        const auto ops = randomOps(seed, count);
        const std::string doc = writeDoc<reference::SnapshotWriter>(ops);
        const auto want = readInOrder<reference::SnapshotReader>(doc, ops);
        const auto got = readInOrder<SnapshotReader>(doc, ops);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], want[i]) << "seed " << seed << " read " << i;
    }
}

TEST(SnapshotDifferential, ReaderMatchesReferenceOnMalformedDocuments)
{
    const std::string docs[] = {
        "",                                  // no header
        "\n",                                // empty header line
        "not a snapshot\n",
        "dhl-snapshot 2\na = 1\n",
        "dhl-snapshot 1 \n",                 // trailing space
        "dhl-snapshot 1\r\na = 1\r\n",       // CRLF
        "dhl-snapshot 1",                    // header only, no newline
        "dhl-snapshot 1\n",                  // header only
        "dhl-snapshot 1\na = 1\nmalformed\n",
        "dhl-snapshot 1\na=1\n",
        "dhl-snapshot 1\na = 1\nb = 2\na = 3\n", // duplicate key
        "dhl-snapshot 1\na = 0xzz\n",        // bad hex integer
        "dhl-snapshot 1\na = 0x\n",
        "dhl-snapshot 1\na = 0x10000000000000000\n", // hex overflow
        "dhl-snapshot 1\na = 12x\n",         // bad decimal integer
        "dhl-snapshot 1\na = -5\n",
        "dhl-snapshot 1\na = +5\n",
        "dhl-snapshot 1\na = 18446744073709551616\n",
        "dhl-snapshot 1\na = \n",            // empty value
        "dhl-snapshot 1\nb = maybe\n",       // bad bool
        "dhl-snapshot 1\nb = True\n",
        "dhl-snapshot 1\n\n\n# comment\n#a = 9\na = 7\n\nb = true\n",
        "dhl-snapshot 1\na = 1\nb = false",  // last line without newline
        "dhl-snapshot 1\n = empty key\n",
        "dhl-snapshot 1\nk =  = v\nk2 = a = b\n",
        "dhl-snapshot 1\na.b = 3\ns.s0 = 1\ns.s1 = 2\ns.s2 = 3\n"
        "s.s3 = 4\ns.has_spare = true\ns.spare = 0x3ff0000000000000\n",
        "dhl-snapshot 1\ns.s0 = 1\ns.s1 = 2\ns.s2 = 3\ns.s3 = 4\n"
        "s.has_spare = yes\ns.spare = 0x0\n",
        std::string("dhl-snapshot 1\na = 1\0002\n", 22), // embedded NUL
        "dhl-snapshot 1\nx.y = -9223372036854775808\n",
        "dhl-snapshot 1\nx.y = -9223372036854775809\n",
    };
    // Read line by line in order, the strict reader agrees with the
    // reference on every document the reference accepts.  A document
    // the reference rejects (bad header, malformed line, duplicate key)
    // the strict reader rejects too: at once for a bad header, with the
    // same message, otherwise at the line or at the end.
    for (const std::string &doc : docs) {
        for (std::size_t shift = 0; shift < std::size(kLineKinds); ++shift) {
            const auto want = readLines<reference::SnapshotReader>(doc, shift);
            const auto got = readLines<SnapshotReader>(doc, shift);
            if (want.size() == 1 && got.size() != 1) {
                EXPECT_NE(std::find_if(got.begin(), got.end(),
                                       [](const std::string &o) {
                                           return o.rfind("fatal ", 0) == 0;
                                       }),
                          got.end())
                    << "accepted: '" << doc << "' (reference: " << want[0]
                    << ")";
            } else {
                EXPECT_EQ(got, want) << "document: '" << doc << "'";
            }
        }
    }
}

TEST(SnapshotDifferential, NewlineInStringFailsLikeReference)
{
    auto attempt = [](auto tag) {
        using Writer = typename decltype(tag)::type;
        std::stringstream out;
        std::string error;
        try {
            Writer w(out);
            w.putU64("before", 1);
            w.putString("bad", "two\nlines");
        } catch (const FatalError &e) {
            error = e.what();
        }
        return error + "|" + out.str();
    };
    EXPECT_EQ(attempt(std::type_identity<SnapshotWriter>{}),
              attempt(std::type_identity<reference::SnapshotWriter>{}));
}
