/**
 * @file
 * Unit tests for the snapshot layer (sim/snapshot.hpp): scoped
 * key/value round-trips, bit-exact doubles, RNG stream positions, the
 * Simulator kernel's own save/restore contract, and a differential
 * check of the buffered writer and view-indexing reader against the
 * unbuffered originals kept in tests/snapshot_reference.hpp.
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

    SnapshotReader r(doc);
    EXPECT_EQ(r.getString("name"), "fleet");
    EXPECT_EQ(r.getU64("tracks"), 7u);
    EXPECT_FALSE(r.getBool("done"));
    {
        SnapshotScope<SnapshotReader> scope(r, "t0");
        EXPECT_EQ(r.getI64("delta"), -42);
        EXPECT_TRUE(r.getBool("up"));
        EXPECT_TRUE(r.has("track.launches"));
        {
            SnapshotScope<SnapshotReader> inner(r, "track");
            EXPECT_EQ(r.getU64("launches"), 9u);
        }
    }
    EXPECT_FALSE(r.has("t0"));          // scopes are prefixes, not keys
    EXPECT_FALSE(r.has("nonexistent"));
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
        const double got = r.getDouble(IndexedKey("v", i));
        EXPECT_EQ(std::memcmp(&got, &values[i], sizeof got), 0)
            << "value " << i;
    }
    EXPECT_TRUE(std::isnan(r.getDouble("nan")));
    // -0.0 keeps its sign bit.
    EXPECT_TRUE(std::signbit(r.getDouble("v2")));
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
    EXPECT_THROW(r.getU64("absent"), FatalError);
    EXPECT_THROW(r.getU64("present.nested"), FatalError);

    std::stringstream garbage("not a snapshot\n");
    EXPECT_THROW(SnapshotReader bad(garbage), FatalError);
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

/** A written key, with the scopes it was written under. */
struct WrittenKey
{
    std::vector<std::string> scopes;
    std::string key;
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
randomOps(std::uint64_t seed, std::size_t count,
          std::vector<WrittenKey> &written)
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
        written.push_back({scopes, key});
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

/** Run one lookup, recording its value or the FatalError text. */
void
record(std::vector<std::string> &out,
       const std::function<std::string()> &lookup)
{
    try {
        out.push_back("ok " + lookup());
    } catch (const FatalError &e) {
        out.push_back(std::string("fatal ") + e.what());
    }
}

/** Every getter on one key, in a fixed order. */
template <typename Reader>
void
probe(Reader &r, const std::string &key, std::vector<std::string> &out)
{
    record(out, [&] { return std::string(r.has(key) ? "has" : "no"); });
    record(out, [&] { return r.getString(key); });
    record(out, [&] { return std::to_string(r.getU64(key)); });
    record(out, [&] { return std::to_string(r.getI64(key)); });
    record(out, [&] { return std::string(r.getBool(key) ? "1" : "0"); });
    record(out, [&] {
        return std::to_string(std::bit_cast<std::uint64_t>(r.getDouble(key)));
    });
    record(out, [&] {
        Rng rng(1);
        try {
            r.getRng(key, rng);
        } catch (const FatalError &) {
            r.pop(); // getRng leaves its own scope pushed when it throws
            throw;
        }
        const RngState s = rng.saveState();
        return std::to_string(s.state[0]) + " " + std::to_string(s.state[1]) +
               " " + std::to_string(s.state[2]) + " " +
               std::to_string(s.state[3]) + " " +
               std::to_string(s.has_spare) + " " +
               std::to_string(std::bit_cast<std::uint64_t>(s.spare));
    });
}

/** Look up every written key (and near misses) under its scopes. */
template <typename Reader>
std::vector<std::string>
probeAll(const std::string &doc, const std::vector<WrittenKey> &keys)
{
    std::vector<std::string> out;
    std::istringstream in(doc);
    Reader r(in);
    for (const WrittenKey &wk : keys) {
        for (const std::string &scope : wk.scopes)
            r.push(scope);
        probe(r, wk.key, out);
        const std::string absent = wk.key + "_absent";
        record(out, [&] { return std::string(r.has(absent) ? "has" : "no"); });
        record(out, [&] { return r.getString(absent); });
        for (std::size_t i = 0; i < wk.scopes.size(); ++i)
            r.pop();
        if (!wk.scopes.empty()) { // the same key, unscoped, as a dotted path
            const std::string dotted = wk.scopes.front() + "." + wk.key;
            record(out, [&] { return r.getString(dotted); });
        }
    }
    return out;
}

/** Construct a reader and run fixed probes; record the outcome. */
template <typename Reader>
std::vector<std::string>
parseAndProbe(const std::string &doc)
{
    static const char *const keys[] = {"a", "b", "k", "", "missing",
                                       "x.y", "a.b", "s"};
    std::vector<std::string> out;
    std::istringstream in(doc);
    try {
        Reader r(in);
        out.push_back("parsed");
        for (const char *key : keys)
            probe(r, key, out);
        r.push("a");
        probe(r, "b", out);
        r.pop();
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
        std::vector<WrittenKey> written;
        const auto ops = randomOps(seed, count, written);
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
    for (std::uint64_t seed = 1; seed <= 240; ++seed) {
        const std::size_t count = seed % 60 == 0 ? 1500 : seed % 50;
        std::vector<WrittenKey> written;
        const auto ops = randomOps(seed, count, written);
        const std::string doc = writeDoc<reference::SnapshotWriter>(ops);
        const auto want = probeAll<reference::SnapshotReader>(doc, written);
        const auto got = probeAll<SnapshotReader>(doc, written);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], want[i]) << "seed " << seed << " probe " << i;
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
    for (const std::string &doc : docs) {
        EXPECT_EQ(parseAndProbe<SnapshotReader>(doc),
                  parseAndProbe<reference::SnapshotReader>(doc))
            << "document: '" << doc << "'";
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
