/**
 * @file
 * Tests for the open-loop serving layer (serve/serving.hpp): request
 * conservation, overload shedding, per-stage availability, and the
 * checkpoint/restore equivalence property — a run restored from a
 * checkpoint must be byte-identical to one that was never interrupted,
 * including with fault injection, planned maintenance, and correlated
 * plant outages active.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/units.hpp"
#include "exp/slo.hpp"
#include "serve/serving.hpp"

using namespace dhl;
namespace u = dhl::units;

namespace {

/** A small healthy two-track fleet under a ramp/hold/drain profile. */
serve::ServeConfig
smallConfig()
{
    serve::ServeConfig cfg;
    cfg.dhl = core::defaultConfig();
    cfg.tracks = 2;
    cfg.seed = 7;
    cfg.epoch = 300.0;
    cfg.carts_per_track = 2;
    cfg.max_pending = 64;
    cfg.policy = ops::DispatchPolicy::LeastQueued;
    workloads::RequestClass bulk{"bulk", 3.0, u::gigabytes(64), 0.0, 0};
    workloads::RequestClass urgent{"urgent", 1.0, u::gigabytes(16), 0.3,
                                   1};
    cfg.stages = {
        workloads::StageSpec{"ramp", 600.0, 0.0, 0.1, {bulk, urgent}},
        workloads::StageSpec{"hold", 600.0, 0.1, 0.1, {bulk, urgent}},
        workloads::StageSpec{"drain", 600.0, 0.1, 0.0, {bulk, urgent}},
    };
    return cfg;
}

/** The same fleet losing components: accelerated faults, one planned
 *  window, and a shared vacuum plant spanning both tracks. */
serve::ServeConfig
degradedConfig()
{
    serve::ServeConfig cfg = smallConfig();
    cfg.policy = ops::DispatchPolicy::AvailabilityAware;
    cfg.min_priority_degraded = 1;
    cfg.faults.enabled = true;
    cfg.faults.seed = 7;
    cfg.faults.lim_mtbf = 2.0;
    cfg.faults.lim_mttr = 0.1;
    cfg.faults.track_mtbf = 4.0;
    cfg.faults.track_mttr = 0.2;
    cfg.faults.station_mtbf = 3.0;
    cfg.faults.station_mttr = 0.05;
    cfg.faults.cart_repair_per_trip = 5e-3;
    cfg.faults.cart_repair_hours = 0.05;
    cfg.maintenance.windows.push_back({500.0, 200.0, 0.0, 1});
    cfg.domains.enabled = true;
    cfg.domains.domain_size = 2;
    cfg.domains.plant_mtbf = 0.5;
    cfg.domains.plant_mttr = 0.05;
    cfg.domains.seed = 7;
    return cfg;
}

/** Everything the equivalence property compares: formatted SLO rows,
 *  fleet totals, and the full trace. */
std::string
digest(serve::ServingSim &sim)
{
    std::ostringstream os;
    for (const exp::StageSlo &stage : sim.sloTable())
        for (const std::string &c : exp::sloRow(stage))
            os << c << "|";
    os << sim.totalServed() << "|" << sim.totalShed() << "|"
       << sim.totalLaunches() << "|" << sim.totalEnergy() << "|"
       << sim.now() << "|" << sim.epochsCompleted() << "\n";
    sim.trace().dump(os);
    return os.str();
}

/** @p doc with the value of its line for @p key replaced. */
std::string
withValue(const std::string &doc, const std::string &key,
          const std::string &value)
{
    const std::string needle = "\n" + key + " = ";
    const std::size_t at = doc.find(needle);
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t start = at + needle.size();
    return doc.substr(0, start) + value + doc.substr(doc.find('\n', start));
}

} // namespace

TEST(ServingTest, ConservesRequestsWhenDone)
{
    serve::ServingSim sim(smallConfig());
    sim.run();
    EXPECT_TRUE(sim.done());
    EXPECT_EQ(sim.queueDepth(), 0u);
    EXPECT_EQ(sim.inFlight(), 0u);
    EXPECT_GE(sim.epochsCompleted(), 6u);

    // Every offered request was either served or shed, per stage.
    std::uint64_t offered = 0, served = 0, shed = 0;
    for (std::size_t k = 0; k < 3; ++k) {
        const auto &slo = sim.stageSlo(k);
        EXPECT_EQ(slo.offered(), slo.served() + slo.shed())
            << "stage " << k;
        offered += slo.offered();
        served += slo.served();
        shed += slo.shed();
    }
    EXPECT_GT(offered, 0u);
    EXPECT_EQ(sim.totalServed(), served);
    EXPECT_EQ(sim.totalShed(), shed);
    EXPECT_GT(sim.totalLaunches(), 0u);
    EXPECT_GT(sim.totalEnergy(), 0.0);
    // A healthy fleet sheds nothing at this load.
    EXPECT_EQ(shed, 0u);
}

TEST(ServingTest, DeterministicAcrossInstances)
{
    serve::ServingSim a(smallConfig());
    serve::ServingSim b(smallConfig());
    a.trace().enable();
    b.trace().enable();
    a.run();
    b.run();
    EXPECT_EQ(digest(a), digest(b));
}

TEST(ServingTest, OverloadShedsInsteadOfDroppingSilently)
{
    serve::ServeConfig cfg = smallConfig();
    cfg.tracks = 1;
    cfg.carts_per_track = 1;
    cfg.max_pending = 2;
    workloads::RequestClass big{"big", 1.0, u::terabytes(1024), 0.0, 0};
    cfg.stages = {workloads::StageSpec{"burst", 300.0, 0.5, 0.5, {big}}};
    serve::ServingSim sim(cfg);
    sim.run();
    EXPECT_TRUE(sim.done());
    const auto &slo = sim.stageSlo(0);
    EXPECT_EQ(slo.offered(), slo.served() + slo.shed());
    EXPECT_GT(slo.shed(), 0u);     // the bound actually bit
    EXPECT_GT(slo.deferred(), 0u); // and the backlog was visible
    EXPECT_GT(slo.served(), 0u);   // but admitted work still finished
}

TEST(ServingTest, DegradedFleetStartsWorkOnlyOnTracksThatAreUp)
{
    // AvailabilityAware with track 0 held down: low-priority requests
    // wait in the queue, urgent ones start on track 1 only.
    serve::ServeConfig cfg = smallConfig();
    cfg.policy = ops::DispatchPolicy::AvailabilityAware;
    cfg.min_priority_degraded = 1;
    workloads::RequestClass bulk{"bulk", 1.0, u::gigabytes(64), 0.0, 0};
    workloads::RequestClass urgent{"urgent", 1.0, u::gigabytes(16), 0.0,
                                   1};
    cfg.stages = {
        workloads::StageSpec{"high", 300.0, 0.05, 0.05, {urgent}},
        workloads::StageSpec{"low", 300.0, 0.05, 0.05, {bulk}},
    };
    serve::ServingSim sim(cfg);
    sim.faultState(0).pushLaunchInhibit("test outage");
    ASSERT_TRUE(sim.stepEpoch());
    ASSERT_TRUE(sim.stepEpoch());

    const auto &high = sim.stageSlo(0);
    const auto &low = sim.stageSlo(1);
    EXPECT_GT(low.offered(), 0u);
    EXPECT_EQ(low.served(), 0u);
    EXPECT_EQ(low.deferred(), low.offered());
    EXPECT_EQ(sim.queueDepth(), low.offered());
    EXPECT_GT(high.served(), 0u);
    EXPECT_EQ(high.served(), high.offered());
    EXPECT_EQ(sim.controller(0).launches(), 0u);
    EXPECT_EQ(sim.controller(0).heldOpens(), 0u);
    EXPECT_GT(sim.controller(1).launches(), 0u);

    // Back up: the held requests start, on both tracks.
    sim.faultState(0).popLaunchInhibit("test outage");
    sim.run();
    EXPECT_EQ(low.served(), low.offered());
    EXPECT_EQ(sim.queueDepth(), 0u);
    EXPECT_GT(sim.controller(0).launches(), 0u);
}

TEST(ServingTest, MaintenanceWindowShowsUpInStageAvailability)
{
    serve::ServeConfig cfg = smallConfig();
    // Fleet-wide window [700, 1000): entirely inside the hold stage
    // [600, 1200), taking both tracks down for half the stage.
    cfg.maintenance.windows.push_back({700.0, 300.0, 0.0, -1});
    serve::ServingSim sim(cfg);
    sim.run();
    EXPECT_NEAR(sim.stageAvailability(0), 1.0, 1e-12);
    EXPECT_NEAR(sim.stageAvailability(1), 0.5, 1e-9);
    for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_GE(sim.stageAvailability(k), 0.0);
        EXPECT_LE(sim.stageAvailability(k), 1.0);
    }
}

TEST(ServingTest, CheckpointRestoreMatchesUninterruptedRun)
{
    // The tentpole property, with every stateful subsystem active:
    // component faults, a planned maintenance window, and correlated
    // plant outages.  Restoring a mid-run checkpoint into a freshly
    // built fleet and running to completion must be byte-identical to
    // the run that was never interrupted — SLO tables, totals, trace,
    // and a re-checkpoint.
    const serve::ServeConfig cfg = degradedConfig();

    serve::ServingSim oracle(cfg);
    oracle.trace().enable();
    oracle.run();
    EXPECT_GT(oracle.totalServed(), 0u);
    const std::string want = digest(oracle);
    std::ostringstream want_ck;
    oracle.checkpoint(want_ck);

    serve::ServingSim first(cfg);
    first.trace().enable();
    first.run(3); // stop at an interior drained epoch boundary
    EXPECT_FALSE(first.done());
    std::stringstream ck;
    first.checkpoint(ck);

    serve::ServingSim resumed(cfg);
    resumed.trace().enable(); // enablement is host state, not simulated
    resumed.restore(ck);
    EXPECT_EQ(resumed.epochsCompleted(), first.epochsCompleted());
    EXPECT_EQ(resumed.now(), first.now());
    resumed.run();

    EXPECT_EQ(digest(resumed), want);
    std::ostringstream got_ck;
    resumed.checkpoint(got_ck);
    EXPECT_EQ(got_ck.str(), want_ck.str());
}

TEST(ServingTest, CheckpointAtEveryBoundaryStaysIdentical)
{
    // Tighter variant of the property on the healthy fleet: hop
    // through a checkpoint at *every* epoch boundary.
    const serve::ServeConfig cfg = smallConfig();
    serve::ServingSim oracle(cfg);
    oracle.run();
    const std::string want = digest(oracle);

    auto hopper = std::make_unique<serve::ServingSim>(cfg);
    std::size_t hops = 0;
    while (hopper->stepEpoch()) {
        std::stringstream ck;
        hopper->checkpoint(ck);
        auto fresh = std::make_unique<serve::ServingSim>(cfg);
        fresh->restore(ck);
        hopper = std::move(fresh);
        ++hops;
    }
    EXPECT_GE(hops, 6u);
    EXPECT_EQ(digest(*hopper), want);
}

TEST(ServingTest, RestoreRejectsMismatchedConfig)
{
    serve::ServingSim donor(smallConfig());
    donor.run(1);
    std::stringstream ck;
    donor.checkpoint(ck);

    // Different fleet shape.
    serve::ServeConfig other = smallConfig();
    other.tracks = 3;
    serve::ServingSim wrong_fleet(other);
    EXPECT_THROW(wrong_fleet.restore(ck), FatalError);

    // Different load profile.
    ck.clear();
    ck.seekg(0);
    serve::ServeConfig reshaped = smallConfig();
    reshaped.stages[1].end_rate = 0.2;
    serve::ServingSim wrong_profile(reshaped);
    EXPECT_THROW(wrong_profile.restore(ck), FatalError);

    // Restore target must be freshly constructed.
    ck.clear();
    ck.seekg(0);
    serve::ServingSim stepped(smallConfig());
    stepped.run(1);
    EXPECT_THROW(stepped.restore(ck), FatalError);
}

TEST(ServingTest, RestoreRejectsCorruptCounts)
{
    // Counts read from a checkpoint are untrusted: a corrupt one must
    // end in a clean FatalError at the first line that is not the next
    // key, never in an allocation sized by the document
    // (std::length_error, bad_alloc).
    serve::ServingSim donor(smallConfig());
    donor.run(2);
    std::ostringstream ck;
    donor.checkpoint(ck);
    const std::string doc = ck.str();


    {
        std::istringstream intact(doc);
        serve::ServingSim fresh(smallConfig());
        EXPECT_NO_THROW(fresh.restore(intact));
    }
    const std::pair<const char *, const char *> corrupt[] = {
        {"serve.s0.samples", "18446744073709551615"},
        {"serve.s0.samples", "1000000000000"},
        {"serve.queued", "18446744073709551615"},
    };
    for (const auto &[key, value] : corrupt) {
        std::istringstream in(withValue(doc, key, value));
        serve::ServingSim fresh(smallConfig());
        EXPECT_THROW(fresh.restore(in), FatalError) << key << " = " << value;
    }
}

namespace {

/** The degraded fleet with TE on too: every checkpointed subsystem. */
serve::ServeConfig
fullConfig()
{
    serve::ServeConfig cfg = degradedConfig();
    cfg.te.enabled = true;
    cfg.te.small_bytes = u::gigabytes(20); // urgent requests go optical
    return cfg;
}

/** A checkpoint of fullConfig() after three epochs, trace on. */
std::string
fullCheckpoint()
{
    serve::ServingSim donor(fullConfig());
    donor.trace().enable();
    donor.run(3);
    EXPECT_FALSE(donor.done());
    std::ostringstream ck;
    donor.checkpoint(ck);
    return ck.str();
}

/** The FatalError message restoring @p doc into a fresh fullConfig()
 *  fleet raises, or "" if the restore succeeds. */
std::string
restoreError(const std::string &doc)
{
    std::istringstream in(doc);
    serve::ServingSim fresh(fullConfig());
    try {
        fresh.restore(in);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(ServingTest, RestoreReadsEveryCheckpointLine)
{
    // Every line a checkpoint writes must be one restore() needs: with
    // faults, plants, maintenance, TE and the trace all on, dropping any
    // single line fails the restore.  One line per key shape is dropped
    // (digit runs folded, so l0 ... lN count once).
    const std::string doc = fullCheckpoint();
    EXPECT_EQ(restoreError(doc), "");

    std::set<std::string> shapes;
    for (std::size_t start = doc.find('\n') + 1; start < doc.size();) {
        const std::size_t end = doc.find('\n', start);
        const std::string key =
            doc.substr(start, doc.find(" = ", start) - start);
        std::string shape;
        for (char c : key) {
            if (!std::isdigit(static_cast<unsigned char>(c)))
                shape += c;
            else if (shape.empty() || shape.back() != '#')
                shape += '#';
        }
        if (shapes.insert(shape).second) {
            EXPECT_NE(restoreError(doc.substr(0, start) +
                                   doc.substr(end + 1)),
                      "")
                << key;
        }
        start = end + 1;
    }

    // The document covers every checkpointed subsystem.
    for (const char *shape :
         {"config.te.floor", "serve.s#.l#", "kernel.now", "trace.r#.message",
          "arrivals.rng.s#", "t#.controller.track.launches",
          "t#.faults.edge#.up", "t#.injector.u#.when", "t#.p#",
          "maintenance.w#.count", "plants.d#.down", "te.c#.l#",
          "te.ctl.estimator.d#.h#"})
        EXPECT_EQ(shapes.count(shape), 1u) << shape;
}

TEST(ServingTest, RestoreNamesEachMismatch)
{
    // Each section of the fingerprint and each count checked against
    // the constructed fleet fails with its own message.
    const std::string doc = fullCheckpoint();
    const std::string other_config =
        "serving checkpoint belongs to a different configuration";
    const std::pair<const char *, std::string> cases[] = {
        {"config.tracks", other_config},
        {"config.stages", other_config},
        {"config.te.period",
         "serving checkpoint TE configuration does not match"},
        {"config.stage1.end_rate",
         "serving checkpoint stage profile does not match"},
        {"config.stage0.class1.priority",
         "serving checkpoint traffic mix does not match"},
        {"trace.capacity",
         "trace restore: capacity does not match the checkpoint"},
        {"arrivals.stage",
         "arrival restore: stage index beyond the profile (the "
         "checkpoint was taken against a different profile)"},
        {"t0.faults.lims.n",
         "fault restore: component count does not match the checkpoint"},
        {"t1.injector.units",
         "injector restore: unit count does not match the checkpoint"},
        {"t0.pool", "serving restore: cart pool size does not match"},
        {"maintenance.windows",
         "maintenance restore: window count does not match the "
         "checkpoint"},
        {"plants.domains",
         "plant restore: domain count does not match the checkpoint"},
        {"te.ctl.estimator.d0.n", "te: snapshot history exceeds window"},
    };
    for (const auto &[key, message] : cases)
        EXPECT_EQ(restoreError(withValue(doc, key, "99")), message) << key;

    // The restore target must be freshly constructed.
    serve::ServingSim stepped(fullConfig());
    stepped.run(1);
    std::istringstream in(doc);
    try {
        stepped.restore(in);
        ADD_FAILURE() << "restored into a stepped fleet";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(),
                     "serving restore requires a freshly constructed fleet");
    }
}

namespace {

/** @p doc's lines after the magic line, without their newlines. */
std::vector<std::string>
bodyLines(const std::string &doc)
{
    std::vector<std::string> lines;
    for (std::size_t at = doc.find('\n') + 1; at < doc.size();) {
        const std::size_t end = doc.find('\n', at);
        lines.push_back(doc.substr(at, end - at));
        at = end + 1;
    }
    return lines;
}

std::string
withBody(const std::string &doc, const std::vector<std::string> &lines)
{
    std::string out = doc.substr(0, doc.find('\n') + 1);
    for (const std::string &line : lines)
        out += line + "\n";
    return out;
}

} // namespace

TEST(ServingTest, RestoreRejectsTamperedCheckpoints)
{
    // restore() reads a checkpoint in the order checkpoint() wrote it
    // and then requires its end, so a reordered, padded, duplicated or
    // truncated document fails, naming the key the restore expected.
    const std::string doc = fullCheckpoint();
    ASSERT_EQ(restoreError(doc), "");
    const std::vector<std::string> lines = bodyLines(doc);
    ASSERT_EQ(withBody(doc, lines), doc);
    ASSERT_EQ(lines.front().rfind("config.tracks = ", 0), 0u);

    std::vector<std::string> reversed(lines.rbegin(), lines.rend());
    EXPECT_EQ(restoreError(withBody(doc, reversed)),
              "snapshot: expected key 'config.tracks', found '" +
                  lines.back() + "'");

    EXPECT_EQ(restoreError(doc + "bogus.key = 42\n"),
              "snapshot: expected the end of the document, found "
              "'bogus.key = 42'");

    std::vector<std::string> doubled = lines;
    const auto epochs =
        std::find_if(doubled.begin(), doubled.end(), [](const std::string &l) {
            return l.rfind("serve.epochs = ", 0) == 0;
        });
    ASSERT_NE(epochs, doubled.end());
    ASSERT_EQ((epochs + 1)->rfind("serve.boundary = ", 0), 0u);
    const std::string epochs_line = *epochs;
    doubled.insert(epochs + 1, epochs_line);
    EXPECT_EQ(restoreError(withBody(doc, doubled)),
              "snapshot: expected key 'serve.boundary', found '" +
                  epochs_line + "'");

    // Drop the last latency sample of the first stage that has any.
    std::vector<std::string> short_series = lines;
    std::string last_key;
    for (std::size_t i = 0; i < short_series.size(); ++i) {
        const std::string &l = short_series[i];
        if (l.rfind("serve.s", 0) != 0 || l.find(".samples = ") == l.npos)
            continue;
        const std::string scope = l.substr(0, l.find(".samples = "));
        const std::string n = l.substr(l.find(" = ") + 3);
        if (n == "0")
            continue;
        last_key = scope + ".l" + std::to_string(std::stoull(n) - 1);
        break;
    }
    ASSERT_FALSE(last_key.empty());
    const auto last = std::find_if(
        short_series.begin(), short_series.end(),
        [&](const std::string &l) { return l.rfind(last_key + " = ", 0) == 0; });
    ASSERT_NE(last, short_series.end());
    const std::string next = *(last + 1);
    short_series.erase(last);
    EXPECT_EQ(restoreError(withBody(doc, short_series)),
              "snapshot: expected key '" + last_key + "', found '" + next +
                  "'");
}

TEST(ServingTest, RestoredFleetRecheckpointsIdentically)
{
    // A restore followed at once by a checkpoint writes the bytes it
    // read: nothing is dropped, reordered or re-encoded in between.
    for (const serve::ServeConfig &cfg : {smallConfig(), fullConfig()}) {
        serve::ServingSim donor(cfg);
        donor.trace().enable();
        donor.run(3);
        std::ostringstream ck;
        donor.checkpoint(ck);

        std::istringstream in(ck.str());
        serve::ServingSim fresh(cfg);
        fresh.restore(in);
        std::ostringstream again;
        fresh.checkpoint(again);
        EXPECT_EQ(again.str(), ck.str());
    }
}

TEST(ServingTest, RestoreRejectsShardedCheckpoint)
{
    // The fingerprint records the DES shard count, and every fleet runs
    // one event loop: a checkpoint recording two shards belongs to a
    // different configuration, while an untouched one resumes exactly.
    serve::ServeConfig cfg = degradedConfig();
    cfg.tracks = 4; // two shared-plant domains of two tracks

    serve::ServingSim oracle(cfg);
    oracle.run();
    const std::string want = digest(oracle);

    serve::ServingSim first(cfg);
    first.run(3);
    std::ostringstream ck;
    first.checkpoint(ck);
    const std::string doc = ck.str();
    const std::string one = "\nconfig.des_shards = 1\n";
    const std::size_t at = doc.find(one);
    ASSERT_NE(at, std::string::npos);
    std::string sharded = doc;
    sharded.replace(at, one.size(), "\nconfig.des_shards = 2\n");

    {
        std::istringstream in(sharded);
        serve::ServingSim fresh(cfg);
        try {
            fresh.restore(in);
            ADD_FAILURE() << "a sharded checkpoint restored";
        } catch (const FatalError &e) {
            EXPECT_STREQ(e.what(), "serving checkpoint belongs to a "
                                   "different configuration");
        }
    }

    std::istringstream intact(doc);
    serve::ServingSim resumed(cfg);
    resumed.restore(intact);
    resumed.run();
    EXPECT_EQ(digest(resumed), want);
}

TEST(ServingTest, ValidateRejectsNonsense)
{
    serve::ServeConfig cfg = smallConfig();
    cfg.tracks = 0;
    EXPECT_THROW(serve::validate(cfg), FatalError);
    cfg = smallConfig();
    cfg.epoch = 0.0;
    EXPECT_THROW(serve::validate(cfg), FatalError);
    cfg = smallConfig();
    cfg.stages.clear();
    EXPECT_THROW(serve::validate(cfg), FatalError);
    cfg = smallConfig();
    cfg.carts_per_track = 0;
    EXPECT_THROW(serve::validate(cfg), FatalError);
    cfg = smallConfig();
    cfg.max_pending = 0;
    EXPECT_THROW(serve::validate(cfg), FatalError);
}

TEST(ServingTest, DumpStatsReportsServeCounters)
{
    serve::ServingSim sim(smallConfig());
    sim.run();
    std::ostringstream os;
    sim.dumpStats(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("serve"), std::string::npos);
    EXPECT_NE(text.find("offered"), std::string::npos);
}

namespace {

/** The kernel's events_executed line of a fleet's stats dump. */
std::string
eventsExecutedLine(serve::ServingSim &sim)
{
    std::ostringstream os;
    sim.dumpStats(os);
    std::istringstream is(os.str());
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("kernel.events_executed ", 0) == 0)
            return line;
    return "";
}

} // namespace

TEST(ServingTest, RestoredRunReportsTheWholeRunsEvents)
{
    // The executed-event count is simulated state: a restored fleet's
    // stat covers the epochs before the hop too.
    const serve::ServeConfig cfg = degradedConfig();
    serve::ServingSim oracle(cfg);
    oracle.run();

    serve::ServingSim first(cfg);
    first.run(3);
    std::stringstream ck;
    first.checkpoint(ck);
    serve::ServingSim resumed(cfg);
    resumed.restore(ck);
    resumed.run();

    const std::string want = eventsExecutedLine(oracle);
    EXPECT_NE(want, "");
    EXPECT_EQ(eventsExecutedLine(resumed), want);
}
