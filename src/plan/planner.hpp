/**
 * @file
 * Monte-Carlo capacity planner: search the (tracks, carts, plants)
 * lattice for the cheapest deployment whose SLO attainment over the
 * sampled demand scenarios meets a target quantile.
 *
 * Every lattice point is scored against the *same* deterministic
 * scenario stream (common random numbers, see scenario.hpp).  plan()
 * samples that stream once, into one ScenarioBatch shared read-only by
 * every point and worker: memory is O(scenarios), 40 B per scenario.
 * Each point walks it in `batch`-sized windows through the SoA
 * evaluator, with streaming aggregation — a QuantileSketch for the
 * latency distribution and counters for SLO attainment.  A bootstrap
 * over the attainment counts yields a 95 % CI.  Lattice points run as
 * scenarios of an exp::ExperimentRunner grid: reports land in lattice
 * order and a parallel plan is byte-identical to a serial one.
 */

#ifndef DHL_PLAN_PLANNER_HPP
#define DHL_PLAN_PLANNER_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "plan/batch_eval.hpp"
#include "plan/scenario.hpp"

namespace dhl {
namespace plan {

/** The planner's search space and execution policy. */
struct PlannerConfig
{
    /** Model assumptions shared by every lattice point. */
    PlanAssumptions assumptions{};

    /** Demand distributions the scenario stream is drawn from. */
    ScenarioDistributions demand{};

    //------------------------------------------------------------------
    // The (tracks, carts, plants) lattice
    //------------------------------------------------------------------

    std::size_t tracks_min = 1;
    std::size_t tracks_max = 6;
    std::size_t carts_min = 2;
    std::size_t carts_max = 12;
    std::size_t carts_step = 2;

    /** Plants sweep from the minimum able to evacuate the tracks
     *  (ceil(tracks / tracks_per_plant)) to minimum + spare_plants_max:
     *  spares only matter through the availability derate. */
    std::size_t spare_plants_max = 1;

    //------------------------------------------------------------------
    // Monte-Carlo controls
    //------------------------------------------------------------------

    /** Scenarios per lattice point (the common random-number stream). */
    std::size_t scenarios = 4096;

    /** Evaluation window over the shared stream: scenarios per SoA
     *  evaluator call (sizes the per-point output buffer). */
    std::size_t batch = 1024;

    /** Bootstrap resamples behind the attainment CI. */
    std::size_t bootstrap = 200;

    /** Latency-sketch bins; range is [0, latency_clamp()]. */
    std::size_t sketch_bins = 2048;

    /** Run a DES cross-check of the winner (see DesValidation). */
    bool validate_des = false;

    /** Loaded trips per track for the DES cross-check. */
    std::size_t des_trips_per_track = 16;

    //------------------------------------------------------------------
    // Execution
    //------------------------------------------------------------------

    /** Lattice parallelism (ExperimentRunner jobs; 0 = hardware). */
    std::size_t jobs = 1;

    /** Root seed: scenario stream + per-design bootstrap streams. */
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;

    /**
     * Saturated scenarios have infinite latency; the sketch stores
     * min(latency, clamp) so its range stays finite.  Any quantile
     * reported *at* the clamp means "saturated", and attainment
     * accounting is unaffected (infinity never meets the SLO).
     */
    double latencyClamp() const { return 10.0 * assumptions.slo_latency; }
};

/** Validate a planner configuration; fatal() on nonsense. */
void validate(const PlannerConfig &cfg);

/** One scored lattice point. */
struct DesignReport
{
    DesignConstants constants;

    /** Fraction of scenarios meeting the latency SLO. */
    double attainment = 0.0;

    /** Bootstrap 95 % CI on the attainment. */
    double attainment_lo = 0.0;
    double attainment_hi = 0.0;

    /** Latency quantiles over the scenario stream, s (clamped at
     *  PlannerConfig::latencyClamp() — see there). */
    double latency_p50 = 0.0;
    double latency_slo_q = 0.0; ///< At the target quantile.

    double mean_utilisation = 0.0;
    double mean_energy_day = 0.0; ///< J per day, fleet-wide.

    /** attainment >= target_quantile (and the design is feasible). */
    bool meets_target = false;
};

/** Result of the optional DES cross-check of the winning design. */
struct DesValidation
{
    bool ran = false;

    /** The pipelined per-track launch-rate bound the planner hoisted
     *  (1 / launch period), 1/s. */
    double analytical_rate = 0.0;

    /** Launch rate the event-driven fleet actually sustained, 1/s
     *  per track. */
    double des_rate = 0.0;

    /** des_rate / analytical_rate (~1 when the closed form holds). */
    double ratio = 0.0;
};

/** The planner's full answer. */
struct PlanResult
{
    /** Every lattice point, in deterministic lattice order
     *  (tracks, then carts, then plants ascending). */
    std::vector<DesignReport> reports;

    /** Index into reports of the cheapest design meeting the target,
     *  or -1 when none does. */
    std::ptrdiff_t winner = -1;

    /** Scenarios scored per design. */
    std::size_t scenarios = 0;

    DesValidation des;

    bool hasWinner() const { return winner >= 0; }
    const DesignReport &winnerReport() const;
};

/**
 * The planner.  plan() is const and reusable; parallelism is across
 * lattice points only, so results are independent of `jobs`.
 */
class CapacityPlanner
{
  public:
    explicit CapacityPlanner(const PlannerConfig &cfg);

    const PlannerConfig &config() const { return cfg_; }

    /** Enumerate the lattice in report order (exposed for tests). */
    std::vector<DesignPoint> lattice() const;

    /** Score the lattice and pick the winner. */
    PlanResult plan() const;

  private:
    PlannerConfig cfg_;
};

} // namespace plan
} // namespace dhl

#endif // DHL_PLAN_PLANNER_HPP
