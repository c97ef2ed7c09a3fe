/**
 * @file
 * Implementation of the Monte-Carlo capacity planner.
 */

#include "plan/planner.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/stats.hpp"
#include "dhl/simulation.hpp"
#include "exp/experiment_runner.hpp"

namespace dhl {
namespace plan {

void
validate(const PlannerConfig &cfg)
{
    validate(cfg.assumptions);
    validate(cfg.demand);
    fatal_if(cfg.tracks_min == 0, "tracks_min must be >= 1");
    fatal_if(cfg.tracks_max < cfg.tracks_min,
             "tracks_max must be >= tracks_min");
    fatal_if(cfg.carts_min == 0, "carts_min must be >= 1");
    fatal_if(cfg.carts_max < cfg.carts_min,
             "carts_max must be >= carts_min");
    fatal_if(cfg.carts_step == 0, "carts_step must be >= 1");
    fatal_if(cfg.scenarios == 0, "scenarios must be >= 1");
    fatal_if(cfg.batch == 0, "batch must be >= 1");
    fatal_if(cfg.bootstrap == 0, "bootstrap must be >= 1");
    fatal_if(cfg.sketch_bins == 0, "sketch_bins must be >= 1");
    fatal_if(cfg.des_trips_per_track == 0,
             "des_trips_per_track must be >= 1");
}

const DesignReport &
PlanResult::winnerReport() const
{
    fatal_if(winner < 0, "PlanResult has no winner");
    return reports[static_cast<std::size_t>(winner)];
}

CapacityPlanner::CapacityPlanner(const PlannerConfig &cfg) : cfg_(cfg)
{
    validate(cfg_);
}

std::vector<DesignPoint>
CapacityPlanner::lattice() const
{
    std::vector<DesignPoint> points;
    for (std::size_t t = cfg_.tracks_min; t <= cfg_.tracks_max; ++t) {
        const std::size_t required =
            (t + cfg_.assumptions.tracks_per_plant - 1) /
            cfg_.assumptions.tracks_per_plant;
        for (std::size_t c = cfg_.carts_min; c <= cfg_.carts_max;
             c += cfg_.carts_step) {
            for (std::size_t p = required;
                 p <= required + cfg_.spare_plants_max; ++p) {
                points.push_back(DesignPoint{t, c, p});
            }
        }
    }
    return points;
}

namespace {

/** Score one lattice point against the shared scenario stream,
 *  walking it in cfg.batch windows. */
DesignReport
scoreDesign(const PlannerConfig &cfg, const ScenarioBatch &stream,
            const DesignPoint &d, Rng &bootstrap_rng)
{
    DesignReport r;
    r.constants = designConstants(cfg.assumptions, d);

    const double clamp = cfg.latencyClamp();
    stats::QuantileSketch sketch(0.0, clamp, cfg.sketch_bins);
    std::uint64_t met = 0;
    double util_sum = 0.0;
    double energy_sum = 0.0;

    EvalBatch out;
    for (std::size_t first = 0; first < cfg.scenarios; first += cfg.batch) {
        const std::size_t n = std::min(cfg.batch, cfg.scenarios - first);
        evaluateBatch(r.constants, stream, first, n,
                      cfg.assumptions.slo_latency, out);
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

    // Percentile bootstrap on the attainment: the per-scenario SLO
    // outcome is Bernoulli, so a resample of the dataset reduces to a
    // Binomial(n, attainment) draw — O(bootstrap) memory, counts only.
    // countBelow counts the uniform() < attainment draws on raw bits.
    std::vector<double> resampled(cfg.bootstrap);
    for (std::size_t b = 0; b < cfg.bootstrap; ++b) {
        const std::uint64_t hits =
            bootstrap_rng.countBelow(cfg.scenarios, r.attainment);
        resampled[b] = static_cast<double>(hits) / n;
    }
    r.attainment_lo = stats::percentile(resampled, 2.5);
    r.attainment_hi = stats::percentile(resampled, 97.5);
    return r;
}

/** The DES cross-check: replay the winner's per-track launch stream
 *  as a pipelined bulk transfer on one simulated track and compare
 *  the sustained launch rate against the closed-form bound the
 *  planner hoisted.  The fleet rate is tracks * track rate by
 *  construction, so one track is the whole validation surface. */
DesValidation
validateWinner(const PlannerConfig &cfg, const DesignReport &winner)
{
    // The hoisted launch-rate bound models back-to-back launches at
    // the headway/station period; only dual-track semantics sustain
    // that in the DES (a single tube drains on direction reversal).
    core::DhlConfig dhl = cfg.assumptions.dhl;
    dhl.track_mode = core::TrackMode::DualTrack;

    const double period =
        std::max(dhl.headway,
                 2.0 * dhl.dock_time /
                     static_cast<double>(dhl.docking_stations));

    core::DhlSimulation track(dhl, deriveSeed(cfg.seed, 0xde5ull));
    const double bytes = static_cast<double>(cfg.des_trips_per_track) *
                         winner.constants.cart_capacity;
    core::BulkRunOptions opts;
    opts.pipelined = true;
    const core::BulkRunResult res = track.runBulkTransfer(bytes, opts);

    DesValidation v;
    v.ran = true;
    v.analytical_rate = 1.0 / period;
    // Launches are one-way and every loaded trip returns, so the
    // sustained launch rate halves the launch count.
    v.des_rate = static_cast<double>(res.launches) /
                 (2.0 * res.total_time);
    v.ratio = v.des_rate / v.analytical_rate;
    return v;
}

} // namespace

PlanResult
CapacityPlanner::plan() const
{
    const std::vector<DesignPoint> points = lattice();

    // The common scenario stream, sampled once and shared read-only by
    // every lattice point (and every worker): the sampler is a pure
    // function of (seed, index), so this is the stream each point would
    // draw for itself.
    ScenarioBatch stream;
    ScenarioSampler(cfg_.demand, cfg_.seed).fill(0, cfg_.scenarios, stream);

    PlanResult result;
    result.scenarios = cfg_.scenarios;
    result.reports.resize(points.size());

    // One ExperimentRunner scenario per lattice point, writing its
    // report into a preallocated slot (disjoint writes, no locking).
    // The bootstrap uses ctx.rng — seeded from (experiment seed,
    // index, name), never from execution order — so a parallel plan
    // is byte-identical to a serial one.
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
        grid.add(name, [this, &stream, d, slot](exp::ScenarioContext &ctx) {
            *slot = scoreDesign(cfg_, stream, d, ctx.rng);
            return exp::ScenarioRows{};
        });
    }

    exp::RunOptions run_opts;
    run_opts.jobs = cfg_.jobs;
    run_opts.seed = cfg_.seed;
    const exp::ExperimentRunner runner(run_opts);
    runner.run(grid);

    // Cheapest design meeting the target; lattice order breaks ties.
    for (std::size_t i = 0; i < result.reports.size(); ++i) {
        const DesignReport &r = result.reports[i];
        if (!r.meets_target)
            continue;
        if (result.winner < 0 ||
            r.constants.capex < result.winnerReport().constants.capex) {
            result.winner = static_cast<std::ptrdiff_t>(i);
        }
    }

    if (cfg_.validate_des && result.hasWinner())
        result.des = validateWinner(cfg_, result.winnerReport());
    return result;
}

} // namespace plan
} // namespace dhl
