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

#include <memory>
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
    // end in a clean FatalError at the first missing key, never in an
    // allocation sized by the document (std::length_error, bad_alloc).
    serve::ServingSim donor(smallConfig());
    donor.run(2);
    std::ostringstream ck;
    donor.checkpoint(ck);
    const std::string doc = ck.str();

    auto withValue = [&doc](const std::string &key,
                            const std::string &value) {
        const std::string needle = "\n" + key + " = ";
        const std::size_t at = doc.find(needle);
        EXPECT_NE(at, std::string::npos) << key;
        const std::size_t start = at + needle.size();
        return doc.substr(0, start) + value +
               doc.substr(doc.find('\n', start));
    };

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
        std::istringstream in(withValue(key, value));
        serve::ServingSim fresh(smallConfig());
        EXPECT_THROW(fresh.restore(in), FatalError) << key << " = " << value;
    }
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
