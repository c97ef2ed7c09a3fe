/**
 * @file
 * Unit tests for the Monte-Carlo capacity-planning subsystem: scenario
 * sampler determinism, scalar/batched evaluator identity, the plant
 * availability derate, and the planner's winner selection,
 * jobs-invariance and bit identity with the reference scoring path
 * (tests/plan_reference.hpp).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "plan/planner.hpp"
#include "plan_reference.hpp"

using namespace dhl;
using namespace dhl::plan;

namespace {

/** A small, fast planner setup with an attainable target. */
PlannerConfig
smallPlanner()
{
    PlannerConfig cfg;
    cfg.assumptions.dhl.docking_stations = 2;
    cfg.assumptions.target_quantile = 0.5;
    cfg.demand.users_median = 0.25e6;
    cfg.tracks_max = 3;
    cfg.carts_min = 2;
    cfg.carts_max = 6;
    cfg.scenarios = 256;
    cfg.batch = 100; // deliberately not a divisor of scenarios
    cfg.bootstrap = 50;
    cfg.seed = 11;
    return cfg;
}

/** Every field of a report, doubles as hexfloat: equal strings mean
 *  bit-identical reports. */
std::string
hexReport(const DesignReport &r)
{
    const DesignConstants &c = r.constants;
    std::ostringstream os;
    os << std::hexfloat << "t" << c.design.tracks << ".c"
       << c.design.carts_per_track << ".p" << c.design.plants
       << " cap=" << c.cart_capacity << " trip=" << c.trip_time
       << " launch_e=" << c.launch_energy << " read=" << c.read_per_byte
       << " track_rate=" << c.track_launch_rate
       << " plant_f=" << c.plant_factor
       << " fleet_rate=" << c.fleet_launch_rate << " capex=" << c.capex
       << " hotel=" << c.hotel_power << " feasible=" << c.feasible
       << " att=" << r.attainment << " lo=" << r.attainment_lo
       << " hi=" << r.attainment_hi << " p50=" << r.latency_p50
       << " slo_q=" << r.latency_slo_q << " util=" << r.mean_utilisation
       << " energy=" << r.mean_energy_day << " meets=" << r.meets_target;
    return os.str();
}

} // namespace

//===========================================================================
// ScenarioSampler
//===========================================================================

TEST(ScenarioSamplerTest, StreamIsAPureFunctionOfSeedAndIndex)
{
    const ScenarioDistributions dist;
    const ScenarioSampler a(dist, 42);
    const ScenarioSampler b(dist, 42);

    // Same seed: identical scenarios, in any access order.
    const Scenario s9 = b.at(9);
    for (std::uint64_t i = 0; i < 10; ++i) {
        const Scenario x = a.at(i);
        const Scenario y = b.at(i);
        EXPECT_EQ(x.users, y.users);
        EXPECT_EQ(x.bytes_per_user_day, y.bytes_per_user_day);
        EXPECT_EQ(x.peak_factor, y.peak_factor);
        EXPECT_EQ(x.bulk_share, y.bulk_share);
        EXPECT_EQ(x.request_bytes, y.request_bytes);
    }
    EXPECT_EQ(s9.users, a.at(9).users); // out-of-order access agrees

    // Different seed: a different stream.
    const ScenarioSampler c(dist, 43);
    EXPECT_NE(a.at(0).users, c.at(0).users);
}

TEST(ScenarioSamplerTest, ChunkedFillMatchesWholeFill)
{
    const ScenarioSampler s(ScenarioDistributions{}, 7);
    ScenarioBatch whole;
    s.fill(0, 64, whole);

    ScenarioBatch chunk;
    s.fill(40, 8, chunk); // an interior window
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(chunk.users[i], whole.users[40 + i]);
        EXPECT_EQ(chunk.request_bytes[i], whole.request_bytes[40 + i]);
    }
}

TEST(ScenarioSamplerTest, SamplesRespectDistributionBounds)
{
    ScenarioDistributions dist;
    dist.peak_min = 1.5;
    dist.peak_max = 2.5;
    dist.bulk_share_min = 0.4;
    dist.bulk_share_max = 0.6;
    const ScenarioSampler s(dist, 3);
    for (std::uint64_t i = 0; i < 500; ++i) {
        const Scenario sc = s.at(i);
        EXPECT_GT(sc.users, 0.0);
        EXPECT_GT(sc.bytes_per_user_day, 0.0);
        EXPECT_GT(sc.request_bytes, 0.0);
        EXPECT_GE(sc.peak_factor, dist.peak_min);
        EXPECT_LE(sc.peak_factor, dist.peak_max);
        EXPECT_GE(sc.bulk_share, dist.bulk_share_min);
        EXPECT_LE(sc.bulk_share, dist.bulk_share_max);
    }
}

TEST(ScenarioSamplerTest, PeakCorrelationHasTheRequestedSign)
{
    ScenarioDistributions dist;
    dist.peak_user_corr = 0.9;
    const ScenarioSampler s(dist, 5);
    double sum_uv = 0.0, sum_u = 0.0, sum_v = 0.0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        const Scenario sc = s.at(static_cast<std::uint64_t>(i));
        sum_u += sc.users;
        sum_v += sc.peak_factor;
        sum_uv += sc.users * sc.peak_factor;
    }
    const double cov =
        sum_uv / n - (sum_u / n) * (sum_v / n);
    EXPECT_GT(cov, 0.0); // busier days peak harder
}

TEST(ScenarioSamplerTest, RejectsNonsenseDistributions)
{
    ScenarioDistributions dist;
    dist.peak_min = 0.5; // a peak below the mean is meaningless
    EXPECT_THROW(ScenarioSampler(dist, 1), dhl::FatalError);
    dist = ScenarioDistributions{};
    dist.bulk_share_max = 1.5;
    EXPECT_THROW(ScenarioSampler(dist, 1), dhl::FatalError);
    dist = ScenarioDistributions{};
    dist.peak_user_corr = -2.0;
    EXPECT_THROW(ScenarioSampler(dist, 1), dhl::FatalError);
}

//===========================================================================
// Batched evaluator
//===========================================================================

TEST(BatchEvalTest, BatchedIsBitIdenticalToScalar)
{
    const PlanAssumptions assume;
    const DesignPoint design{3, 6, 1};
    const ScenarioSampler sampler(ScenarioDistributions{}, 17);

    ScenarioBatch in;
    sampler.fill(0, 256, in);
    const DesignConstants c = designConstants(assume, design);
    EvalBatch out;
    evaluateBatch(c, in, assume.slo_latency, out);
    ASSERT_EQ(out.size(), 256u);

    for (std::size_t i = 0; i < in.size(); ++i) {
        const ScenarioOutcome s =
            evaluateScalar(assume, design, in.row(i));
        // Bit equality, not tolerance: both paths must inline the
        // same kernel on the same constants.
        EXPECT_EQ(s.utilisation, out.utilisation[i]);
        EXPECT_EQ(s.latency, out.latency[i]);
        EXPECT_EQ(s.energy_day, out.energy_day[i]);
        EXPECT_EQ(s.meets_slo, out.meets_slo[i] != 0);
    }
}

TEST(BatchEvalTest, PlantFactorIsAnAvailabilityDerate)
{
    const double u = 0.1;
    // No plants, no capacity; enough perfect plants, full capacity.
    EXPECT_EQ(plantCapacityFactor(2, 0, u), 0.0);
    EXPECT_EQ(plantCapacityFactor(2, 2, 0.0), 1.0);
    // Monotone in spares, capped at 1.
    const double exact_need = plantCapacityFactor(2, 2, u);
    const double one_spare = plantCapacityFactor(2, 3, u);
    const double two_spare = plantCapacityFactor(2, 4, u);
    EXPECT_LT(exact_need, one_spare);
    EXPECT_LT(one_spare, two_spare);
    EXPECT_LE(two_spare, 1.0);
    // With exactly the required plants the expectation is per-plant
    // availability.
    EXPECT_NEAR(exact_need, 1.0 - u, 1e-12);
}

TEST(BatchEvalTest, DesignConstantsFlagInfeasiblePlantCounts)
{
    PlanAssumptions a;
    a.tracks_per_plant = 2;
    const DesignConstants ok = designConstants(a, {4, 4, 2});
    EXPECT_TRUE(ok.feasible);
    const DesignConstants starved = designConstants(a, {4, 4, 1});
    EXPECT_FALSE(starved.feasible);
    EXPECT_LT(starved.plant_factor, ok.plant_factor);
    EXPECT_LT(starved.fleet_launch_rate, ok.fleet_launch_rate);
}

TEST(BatchEvalTest, SaturatedScenarioGetsInfiniteLatency)
{
    const PlanAssumptions a;
    const DesignConstants c = designConstants(a, {1, 1, 1});
    Scenario huge{};
    huge.users = 1.0e9;
    huge.bytes_per_user_day = units::gigabytes(50.0);
    huge.peak_factor = 3.0;
    huge.bulk_share = 0.1;
    huge.request_bytes = units::gigabytes(1.0);
    const ScenarioOutcome o = scenarioKernel(
        c, huge.users, huge.bytes_per_user_day, huge.peak_factor,
        huge.bulk_share, huge.request_bytes, a.slo_latency);
    EXPECT_GE(o.utilisation, 1.0);
    EXPECT_TRUE(std::isinf(o.latency));
    EXPECT_FALSE(o.meets_slo);
}

//===========================================================================
// CapacityPlanner
//===========================================================================

TEST(CapacityPlannerTest, LatticeIsDeterministicAndCoversSpares)
{
    PlannerConfig cfg = smallPlanner();
    cfg.spare_plants_max = 1;
    const CapacityPlanner planner(cfg);
    const auto points = planner.lattice();
    // tracks 1..3 x carts {2,4,6} x plants {1,2} (1 required + spare).
    ASSERT_EQ(points.size(), 3u * 3u * 2u);
    EXPECT_EQ(points.front().tracks, 1u);
    EXPECT_EQ(points.front().plants, 1u);
    EXPECT_EQ(points[1].plants, 2u); // the spare follows immediately
    EXPECT_EQ(points.back().tracks, 3u);
    EXPECT_EQ(points.back().carts_per_track, 6u);
}

TEST(CapacityPlannerTest, WinnerIsTheCheapestDesignMeetingTheTarget)
{
    const CapacityPlanner planner(smallPlanner());
    const PlanResult result = planner.plan();
    ASSERT_TRUE(result.hasWinner());

    const double winner_capex = result.winnerReport().constants.capex;
    for (const DesignReport &r : result.reports) {
        if (!r.meets_target)
            continue;
        EXPECT_LE(winner_capex, r.constants.capex);
    }
    EXPECT_TRUE(result.winnerReport().meets_target);
}

TEST(CapacityPlannerTest, BootstrapCiBracketsTheAttainment)
{
    const CapacityPlanner planner(smallPlanner());
    const PlanResult result = planner.plan();
    for (const DesignReport &r : result.reports) {
        EXPECT_GE(r.attainment, 0.0);
        EXPECT_LE(r.attainment, 1.0);
        EXPECT_LE(r.attainment_lo, r.attainment);
        EXPECT_GE(r.attainment_hi, r.attainment);
        EXPECT_GE(r.attainment_lo, 0.0);
        EXPECT_LE(r.attainment_hi, 1.0);
    }
}

TEST(CapacityPlannerTest, ParallelPlanIsByteIdenticalToSerial)
{
    PlannerConfig cfg = smallPlanner();
    cfg.jobs = 1;
    const PlanResult serial = CapacityPlanner(cfg).plan();
    cfg.jobs = 4;
    const PlanResult parallel = CapacityPlanner(cfg).plan();

    ASSERT_EQ(serial.reports.size(), parallel.reports.size());
    EXPECT_EQ(serial.winner, parallel.winner);
    for (std::size_t i = 0; i < serial.reports.size(); ++i) {
        const DesignReport &a = serial.reports[i];
        const DesignReport &b = parallel.reports[i];
        EXPECT_EQ(a.attainment, b.attainment);
        EXPECT_EQ(a.attainment_lo, b.attainment_lo);
        EXPECT_EQ(a.attainment_hi, b.attainment_hi);
        EXPECT_EQ(a.latency_p50, b.latency_p50);
        EXPECT_EQ(a.latency_slo_q, b.latency_slo_q);
        EXPECT_EQ(a.mean_utilisation, b.mean_utilisation);
        EXPECT_EQ(a.mean_energy_day, b.mean_energy_day);
        EXPECT_EQ(a.constants.capex, b.constants.capex);
    }
}

TEST(CapacityPlannerTest, MoreTracksNeverHurtAttainment)
{
    const CapacityPlanner planner(smallPlanner());
    const PlanResult result = planner.plan();
    // Fix carts=6, plants=1 and walk tracks 1..3: attainment must be
    // monotone (same scenario stream, strictly more capacity).
    double prev = -1.0;
    for (const DesignReport &r : result.reports) {
        if (r.constants.design.carts_per_track != 6 ||
            r.constants.design.plants != 1)
            continue;
        EXPECT_GE(r.attainment, prev);
        prev = r.attainment;
    }
}

TEST(CapacityPlannerTest, DesValidationReportsASustainedRate)
{
    PlannerConfig cfg = smallPlanner();
    cfg.validate_des = true;
    cfg.des_trips_per_track = 8;
    const PlanResult result = CapacityPlanner(cfg).plan();
    ASSERT_TRUE(result.hasWinner());
    ASSERT_TRUE(result.des.ran);
    EXPECT_GT(result.des.des_rate, 0.0);
    EXPECT_GT(result.des.analytical_rate, 0.0);
    // The DES serializes dock/undock at both endpoints, so it lands
    // below the closed-form bound but within a stable band.
    EXPECT_GE(result.des.ratio, 0.30);
    EXPECT_LE(result.des.ratio, 1.05);
}

TEST(CapacityPlannerTest, RejectsNonsenseConfigs)
{
    PlannerConfig cfg = smallPlanner();
    cfg.scenarios = 0;
    EXPECT_THROW(CapacityPlanner{cfg}, dhl::FatalError);
    cfg = smallPlanner();
    cfg.tracks_min = 4; // above tracks_max
    EXPECT_THROW(CapacityPlanner{cfg}, dhl::FatalError);
    cfg = smallPlanner();
    cfg.assumptions.target_quantile = 1.0;
    EXPECT_THROW(CapacityPlanner{cfg}, dhl::FatalError);
}

TEST(CapacityPlannerTest, BitIdenticalToReferenceScoringPath)
{
    // The shared stream walked in windows and the raw-bit bootstrap
    // against the per-point re-sampling, uniform()-compare definition:
    // 24 seeds, each with its own demand level, at window sizes that
    // divide the stream, do not, exceed it, and are a single scenario,
    // serial and parallel.
    const std::size_t kScenarios = 240;
    const std::size_t kBatches[] = {48, 100, 1000, 1};
    std::size_t interior = 0; // reports with 0 < attainment < 1
    std::size_t extreme = 0;  // reports with attainment 0 or 1
    for (std::uint64_t s = 1; s <= 24; ++s) {
        PlannerConfig cfg = smallPlanner();
        cfg.seed = s * 7919 + 3;
        cfg.demand.users_median = 0.1e6 * static_cast<double>(1 + s % 6);
        cfg.scenarios = kScenarios;
        for (std::size_t batch : kBatches) {
            cfg.batch = batch;
            const PlanResult want = reference::plan(cfg);
            for (std::size_t jobs : {1u, 4u}) {
                cfg.jobs = jobs;
                const PlanResult got = CapacityPlanner(cfg).plan();
                ASSERT_EQ(got.reports.size(), want.reports.size());
                EXPECT_EQ(got.winner, want.winner)
                    << "seed " << cfg.seed << " batch " << batch
                    << " jobs " << jobs;
                EXPECT_EQ(got.scenarios, want.scenarios);
                for (std::size_t i = 0; i < want.reports.size(); ++i)
                    EXPECT_EQ(hexReport(got.reports[i]),
                              hexReport(want.reports[i]))
                        << "seed " << cfg.seed << " batch " << batch
                        << " jobs " << jobs;
            }
            for (const DesignReport &r : want.reports) {
                if (r.attainment > 0.0 && r.attainment < 1.0)
                    ++interior;
                else
                    ++extreme;
            }
        }
    }
    // The seeds exercise both the counted and the all-or-nothing
    // bootstrap thresholds.
    EXPECT_GT(interior, 0u);
    EXPECT_GT(extreme, 0u);
}
