/**
 * @file
 * Test-only oracle: the capacity planner's original scoring path, kept
 * in behaviour so plan::CapacityPlanner can be checked against it bit
 * for bit (tests/test_plan.cpp).
 *
 * Every lattice point re-samples its own copy of the scenario stream,
 * one `batch`-sized window at a time, through ScenarioSampler::fill,
 * and draws every bootstrap resample as `uniform() < attainment` one
 * variate at a time.  It is deliberately the slow, direct definition
 * the planner's shared stream and raw-bit bootstrap must reproduce.
 * The DES cross-check is not part of it.
 */

#ifndef DHL_TESTS_PLAN_REFERENCE_HPP
#define DHL_TESTS_PLAN_REFERENCE_HPP

#include <algorithm>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "exp/experiment_runner.hpp"
#include "plan/planner.hpp"

namespace dhl {
namespace plan {
namespace reference {

/** Score one lattice point, sampling the stream window by window. */
inline DesignReport
scoreDesign(const PlannerConfig &cfg, const ScenarioSampler &sampler,
            const DesignPoint &d, Rng &bootstrap_rng)
{
    DesignReport r;
    r.constants = designConstants(cfg.assumptions, d);

    const double clamp = cfg.latencyClamp();
    stats::QuantileSketch sketch(0.0, clamp, cfg.sketch_bins);
    std::uint64_t met = 0;
    double util_sum = 0.0;
    double energy_sum = 0.0;

    ScenarioBatch in;
    EvalBatch out;
    for (std::uint64_t first = 0; first < cfg.scenarios;
         first += cfg.batch) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(cfg.batch, cfg.scenarios - first));
        sampler.fill(first, n, in);
        evaluateBatch(r.constants, in, cfg.assumptions.slo_latency, out);
        for (std::size_t i = 0; i < n; ++i) {
            sketch.sample(std::min(out.latency[i], clamp));
            met += out.meets_slo[i];
            util_sum += std::min(out.utilisation[i], 1.0);
            energy_sum += out.energy_day[i];
        }
    }

    const auto n = static_cast<double>(cfg.scenarios);
    r.attainment = static_cast<double>(met) / n;
    r.latency_p50 = sketch.quantile(50.0);
    r.latency_slo_q =
        sketch.quantile(100.0 * cfg.assumptions.target_quantile);
    r.mean_utilisation = util_sum / n;
    r.mean_energy_day = energy_sum / n;
    r.meets_target = r.constants.feasible &&
                     r.attainment >= cfg.assumptions.target_quantile;

    std::vector<double> resampled(cfg.bootstrap);
    for (std::size_t b = 0; b < cfg.bootstrap; ++b) {
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i < cfg.scenarios; ++i)
            hits += bootstrap_rng.uniform() < r.attainment ? 1 : 0;
        resampled[b] = static_cast<double>(hits) / n;
    }
    r.attainment_lo = stats::percentile(resampled, 2.5);
    r.attainment_hi = stats::percentile(resampled, 97.5);
    return r;
}

/** Score the lattice and pick the winner (no DES cross-check). */
inline PlanResult
plan(const PlannerConfig &cfg)
{
    const std::vector<DesignPoint> points = CapacityPlanner(cfg).lattice();
    const ScenarioSampler sampler(cfg.demand, cfg.seed);

    PlanResult result;
    result.scenarios = cfg.scenarios;
    result.reports.resize(points.size());

    exp::Experiment grid("capacity_plan");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const DesignPoint d = points[i];
        DesignReport *slot = &result.reports[i];
        std::string name = "t";
        name += std::to_string(d.tracks);
        name += ".c";
        name += std::to_string(d.carts_per_track);
        name += ".p";
        name += std::to_string(d.plants);
        grid.add(name, [&cfg, &sampler, d, slot](exp::ScenarioContext &ctx) {
            *slot = scoreDesign(cfg, sampler, d, ctx.rng);
            return exp::ScenarioRows{};
        });
    }

    exp::RunOptions run_opts;
    run_opts.jobs = 1;
    run_opts.seed = cfg.seed;
    exp::ExperimentRunner(run_opts).run(grid);

    for (std::size_t i = 0; i < result.reports.size(); ++i) {
        const DesignReport &r = result.reports[i];
        if (!r.meets_target)
            continue;
        if (result.winner < 0 ||
            r.constants.capex < result.winnerReport().constants.capex) {
            result.winner = static_cast<std::ptrdiff_t>(i);
        }
    }
    return result;
}

} // namespace reference
} // namespace plan
} // namespace dhl

#endif // DHL_TESTS_PLAN_REFERENCE_HPP
