/**
 * @file
 * Experiment E13 — google-benchmark microbenchmarks of the simulation
 * substrates: DES event throughput, flow-sim reallocation cost (a
 * synthetic churn and a serving-shaped shared uplink), the
 * closed-form model evaluation rate (how fast the design space can be
 * swept), and a whole capacity plan.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/units.hpp"
#include "dhl/analytical.hpp"
#include "dhl/simulation.hpp"
#include "network/flowsim.hpp"
#include "plan/batch_eval.hpp"
#include "plan/planner.hpp"
#include "plan/scenario.hpp"
#include "sim/simulator.hpp"

using namespace dhl;
namespace u = dhl::units;

//===========================================================================
// DES kernel
//===========================================================================

static void
BM_KernelScheduleRun(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        sim::Simulator sim;
        std::uint64_t fired = 0;
        for (std::size_t i = 0; i < n; ++i) {
            sim.schedule(static_cast<double>(i % 97), [&fired] {
                ++fired;
            });
        }
        sim.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KernelScheduleRun)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

static void
BM_KernelCascade(benchmark::State &state)
{
    // Each event schedules the next: worst-case pointer-chasing.
    const auto n = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        sim::Simulator sim;
        std::uint64_t left = n;
        std::function<void()> step = [&] {
            if (--left > 0)
                sim.schedule(0.001, step);
        };
        sim.schedule(0.001, step);
        sim.run();
        benchmark::DoNotOptimize(left);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KernelCascade)->Arg(1 << 12)->Arg(1 << 16);

//===========================================================================
// Flow simulator
//===========================================================================

static void
BM_FlowSimChurn(benchmark::State &state)
{
    const auto n_flows = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::Simulator sim;
        network::FlowSim fs(sim);
        std::vector<int> links;
        for (int i = 0; i < 8; ++i)
            links.push_back(fs.addLink(u::gigabitsPerSecond(400)));
        for (int i = 0; i < n_flows; ++i) {
            fs.startFlow({links[i % 8], links[(i + 1) % 8]},
                         u::gigabytes(1 + i % 7), 24.0, nullptr);
        }
        sim.run();
        benchmark::DoNotOptimize(fs.bytesDelivered());
    }
    state.SetItemsProcessed(state.iterations() * n_flows);
}
BENCHMARK(BM_FlowSimChurn)->Arg(16)->Arg(64)->Arg(256);

/** Arrivals in one BM_FlowSimSharedUplink run. */
constexpr int kUplinkFlows = 4000;

/** Exact bytes delivered and finish time of the run below (hexfloat). */
constexpr const char *kUplinkDigest =
    "0x1.d1f03d6916fdbp+42|0x1.4049e4c714553p+9";

/**
 * One 100 Gbit/s uplink fed by open-loop Poisson arrivals at about twice
 * its capacity, sizes lognormal (median 1 GB, sigma 1.5) capped at 8 GB:
 * the shape of the serving study's optical substrate.  An arrival finds
 * about 800 flows in flight on average, so every start and completion
 * pays for the whole population.  Returns bytes delivered and the
 * finish time as hexfloat.
 */
static std::string
sharedUplinkRun()
{
    sim::Simulator sim;
    network::FlowSim fs(sim);
    const std::vector<int> uplink{fs.addLink(u::gigabitsPerSecond(100))};
    Rng rng(13);
    int left = kUplinkFlows;
    std::function<void()> arrive = [&] {
        const double bytes =
            std::min(rng.lognormal(std::log(u::gigabytes(1)), 1.5),
                     u::gigabytes(8));
        fs.startFlow(uplink, bytes, 24.0, nullptr);
        if (--left > 0)
            sim.schedule(rng.exponential(1.0 / 12.0), arrive);
    };
    sim.schedule(0.0, arrive);
    sim.run();
    std::ostringstream os;
    os << std::hexfloat << fs.bytesDelivered() << "|" << sim.now();
    return os.str();
}

static void
BM_FlowSimSharedUplink(benchmark::State &state)
{
    // Identity gate: a kernel that computes different bytes or finish
    // times is not measured.
    if (sharedUplinkRun() != kUplinkDigest) {
        state.SkipWithError("shared-uplink run diverged from its digest");
        return;
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(sharedUplinkRun());
    state.SetItemsProcessed(state.iterations() * kUplinkFlows);
}
BENCHMARK(BM_FlowSimSharedUplink)->Unit(benchmark::kMillisecond);

//===========================================================================
// Closed-form model and DES end-to-end
//===========================================================================

static void
BM_AnalyticalDesignSpace(benchmark::State &state)
{
    const double dataset = u::petabytes(29);
    for (auto _ : state) {
        double acc = 0.0;
        for (const auto &row : core::tableViRows()) {
            const core::AnalyticalModel m(row.config);
            acc += m.bulk(dhl::qty::Bytes{dataset}).total_time.value();
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(core::tableViRows().size()));
}
BENCHMARK(BM_AnalyticalDesignSpace);

//===========================================================================
// Capacity-planning evaluator: scalar (per-call model re-derivation,
// the paper-artefact pattern) vs batched SoA (constants hoisted once).
// The two paths are bit-identical by construction — asserted here
// before timing so the speedup never comes from computing less.
//===========================================================================

static void
BM_ScalarEval(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const plan::PlanAssumptions assume;
    const plan::DesignPoint design{4, 8, 1};
    const plan::ScenarioSampler sampler(plan::ScenarioDistributions{}, 13);
    plan::ScenarioBatch in;
    sampler.fill(0, n, in);
    for (auto _ : state) {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            acc += plan::evaluateScalar(assume, design, in.row(i)).latency;
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ScalarEval)->Arg(1 << 10);

static void
BM_BatchedEval(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const plan::PlanAssumptions assume;
    const plan::DesignPoint design{4, 8, 1};
    const plan::ScenarioSampler sampler(plan::ScenarioDistributions{}, 13);
    plan::ScenarioBatch in;
    sampler.fill(0, n, in);
    const plan::DesignConstants constants =
        plan::designConstants(assume, design);
    plan::EvalBatch out;

    // Identity gate: the batched path must reproduce the scalar path
    // bit for bit, or the comparison times two different computations.
    plan::evaluateBatch(constants, in, assume.slo_latency, out);
    for (std::size_t i = 0; i < n; ++i) {
        const plan::ScenarioOutcome o =
            plan::evaluateScalar(assume, design, in.row(i));
        if (o.latency != out.latency[i] ||
            o.energy_day != out.energy_day[i]) {
            state.SkipWithError("batched != scalar");
            return;
        }
    }

    for (auto _ : state) {
        plan::evaluateBatch(constants, in, assume.slo_latency, out);
        benchmark::DoNotOptimize(out.latency.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BatchedEval)->Arg(1 << 10)->Arg(1 << 14);

/** E21's heavy tier (2 M users, tracks <= 8, carts <= 10, 100
 *  bootstrap resamples) at twice E21's stream, DES check off. */
static plan::PlannerConfig
capacityPlanConfig()
{
    plan::PlannerConfig cfg;
    cfg.assumptions.dhl.track_mode = core::TrackMode::Pipelined;
    cfg.assumptions.dhl.docking_stations = 2;
    cfg.assumptions.slo_latency = 60.0;
    cfg.assumptions.target_quantile = 0.9;
    cfg.demand.users_median = 2.0e6;
    cfg.tracks_max = 8;
    cfg.carts_max = 10;
    cfg.scenarios = 4096;
    cfg.bootstrap = 100;
    cfg.jobs = 1;
    cfg.seed = 1;
    return cfg;
}

/** Winner and its attainment / CI bounds (hexfloat) of the plan above. */
constexpr const char *kCapacityPlanDigest =
    "t8.c6.p2|0x1.d3p-1|0x1.ceef333333333p-1|0x1.d730ccccccccdp-1";

/** The winning design and its attainment triple, as hexfloat. */
static std::string
capacityPlanDigest(const plan::PlanResult &res)
{
    if (!res.hasWinner())
        return "none";
    const plan::DesignReport &w = res.winnerReport();
    const plan::DesignPoint &d = w.constants.design;
    std::ostringstream os;
    os << "t" << d.tracks << ".c" << d.carts_per_track << ".p" << d.plants
       << "|" << std::hexfloat << w.attainment << "|" << w.attainment_lo
       << "|" << w.attainment_hi;
    return os.str();
}

static void
BM_CapacityPlan(benchmark::State &state)
{
    // Identity gate: a planner that picks a different winner or scores
    // it differently is not measured.
    const plan::CapacityPlanner planner(capacityPlanConfig());
    const plan::PlanResult first = planner.plan();
    if (capacityPlanDigest(first) != kCapacityPlanDigest) {
        state.SkipWithError("capacity plan diverged from its digest");
        return;
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(planner.plan().winner);
    // Items are scenario evaluations: lattice points x scenarios.
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(first.reports.size() * first.scenarios));
}
BENCHMARK(BM_CapacityPlan)->Unit(benchmark::kMillisecond);

static void
BM_DesBulkTransfer(benchmark::State &state)
{
    const auto carts = static_cast<double>(state.range(0));
    const core::DhlConfig cfg = core::defaultConfig();
    for (auto _ : state) {
        core::DhlSimulation des(cfg);
        const auto r =
            des.runBulkTransfer(carts * cfg.cartCapacity().value());
        benchmark::DoNotOptimize(r.total_time);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(carts));
}
BENCHMARK(BM_DesBulkTransfer)->Arg(4)->Arg(16)->Arg(64);

BENCHMARK_MAIN();
