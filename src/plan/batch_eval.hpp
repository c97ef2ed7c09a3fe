/**
 * @file
 * Batched structure-of-arrays evaluation of the analytical DHL models
 * for capacity planning.
 *
 * A planning run scores a (tracks, carts, plants) lattice against
 * thousands of sampled demand scenarios.  Evaluating scenario-by-
 * scenario through core::AnalyticalModel re-derives the launch
 * metrics, cost model and plant-availability factor on every call —
 * exactly what the paper-artefact design-space scans do, at roughly
 * 3.6 M evals/s.  The batched path hoists everything that depends
 * only on the design point into DesignConstants once, then streams
 * the scenario columns (SoA) through a branch-light arithmetic
 * kernel.
 *
 * Identity contract: evaluateBatch() produces bit-identical outputs
 * to evaluateScalar() for every scenario — both funnel through the
 * same inline kernel, the batched path merely amortises the constant
 * derivation.  BM_BatchedEval gates on this before timing either
 * path, and test_plan pins it.
 */

#ifndef DHL_PLAN_BATCH_EVAL_HPP
#define DHL_PLAN_BATCH_EVAL_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/units.hpp"
#include "dhl/config.hpp"
#include "plan/scenario.hpp"

namespace dhl {
namespace plan {

/** One candidate deployment: a point of the planner's search lattice. */
struct DesignPoint
{
    std::size_t tracks = 1;          ///< Parallel DHL tracks.
    std::size_t carts_per_track = 4; ///< Cart pool per track.
    std::size_t plants = 1;          ///< Shared vacuum plants.
};

/**
 * Everything a planning run assumes beyond the demand distributions:
 * the per-track DHL geometry (paper Table V), the SLO being sized
 * for, and the beyond-paper capex/availability constants of the
 * lattice dimensions the paper does not cost (vacuum plants, cart
 * pools).
 */
struct PlanAssumptions
{
    /** Per-track geometry and kinematics (Table V defaults). */
    core::DhlConfig dhl = core::defaultConfig();

    /** Per-request completion bound the operator is selling, s. */
    double slo_latency = 60.0;

    /** Required SLO-attainment quantile (0.999 = "99.9 % of sampled
     *  demand days meet the latency bound"). */
    double target_quantile = 0.999;

    /** Tracks one vacuum plant can evacuate (ops domain fan-out). */
    std::size_t tracks_per_plant = 4;

    /** Vacuum-plant MTBF / MTTR, h (ops-layer defaults). */
    double plant_mtbf_hours = 8760.0;
    double plant_mttr_hours = 4.0;

    /** Beyond-paper capex anchors, USD. */
    double plant_capex = 12000.0;
    double cart_capex = 1500.0;

    /** Vacuum-plant hotel power (pumping against leaks), W. */
    double plant_power = units::kilowatts(5.0);
};

/** Validate assumptions; fatal() on nonsense. */
void validate(const PlanAssumptions &a);

/**
 * The per-design constants hoisted out of the scenario loop.  Derived
 * from core::AnalyticalModel (launch metrics, docked read rate) and
 * cost::CostModel (rail + LIM materials), plus the plant-availability
 * derate.  All plain doubles: this struct is the planning sweep's I/O
 * boundary, like the raw Table V fields on DhlConfig (DESIGN.md §9).
 */
struct DesignConstants
{
    DesignPoint design;

    double cart_capacity = 0.0;   ///< B per cart.
    double trip_time = 0.0;       ///< One-way trip incl. docking, s.
    double launch_energy = 0.0;   ///< J per launch (one direction).
    double read_per_byte = 0.0;   ///< Docked PCIe read time, s/B.

    /** Per-track launch-rate cap, 1/s: the pipelined headway/station
     *  bound and the cart-pool round-trip bound, whichever binds. */
    double track_launch_rate = 0.0;

    /** Expected capacity retained under vacuum-plant outages. */
    double plant_factor = 0.0;

    /** Fleet launch capacity, 1/s: tracks * rate * plant_factor. */
    double fleet_launch_rate = 0.0;

    /** Deployment capex, USD: tracks * (rail + LIM) + plants + carts. */
    double capex = 0.0;

    /** Fleet hotel power (plants), W. */
    double hotel_power = 0.0;

    /** False when the plants cannot evacuate the tracks at all. */
    bool feasible = false;
};

/** Derive the constants of one lattice point (the hoisted work). */
DesignConstants designConstants(const PlanAssumptions &a,
                                const DesignPoint &d);

/**
 * Expected fraction of @p required plants operational when @p built
 * are installed and each is independently up with availability
 * 1 - @p unavailability: E[min(Binomial(built, 1-u), required)] /
 * required.  Spare plants (built > required) push the factor towards
 * 1; built < required derates linearly on top of availability.
 */
double plantCapacityFactor(std::size_t required, std::size_t built,
                           double unavailability);

/** Per-scenario outputs, SoA like the inputs. */
struct EvalBatch
{
    std::vector<double> utilisation; ///< Peak launch demand / capacity.
    std::vector<double> latency;     ///< Request latency at peak, s.
    std::vector<double> energy_day;  ///< Fleet energy per day, J.
    std::vector<std::uint8_t> meets_slo; ///< 1 when latency <= bound.

    std::size_t size() const { return latency.size(); }
    void resize(std::size_t n);
};

/** What one scenario costs one design (the AoS view). */
struct ScenarioOutcome
{
    double utilisation = 0.0;
    double latency = 0.0;
    double energy_day = 0.0;
    bool meets_slo = false;
};

/**
 * The shared per-scenario kernel.  Demand model (DESIGN.md §15):
 * interactive requests each ride one cart launch; bulk bytes ride
 * full carts.  The diurnal peak scales the launch-rate demand, an
 * M/D/1-flavoured wait models queueing below saturation, and the
 * request latency adds the trip plus the docked PCIe read.  Both
 * evaluation paths inline exactly this function, which is what makes
 * them bit-identical.
 */
inline ScenarioOutcome
scenarioKernel(const DesignConstants &c, double users,
               double bytes_per_user_day, double peak_factor,
               double bulk_share, double request_bytes,
               double slo_latency)
{
    ScenarioOutcome o;
    const double mean_bw = users * bytes_per_user_day / units::days(1.0);
    const double bulk_launch = mean_bw * bulk_share / c.cart_capacity;
    const double interactive_launch =
        mean_bw * (1.0 - bulk_share) / request_bytes;
    const double peak_launch =
        (bulk_launch + interactive_launch) * peak_factor;

    o.utilisation = c.feasible && c.fleet_launch_rate > 0.0
                        ? peak_launch / c.fleet_launch_rate
                        : std::numeric_limits<double>::infinity();
    if (o.utilisation < 1.0) {
        const double wait =
            c.trip_time * o.utilisation / (2.0 * (1.0 - o.utilisation));
        o.latency = c.trip_time + request_bytes * c.read_per_byte + wait;
    } else {
        o.latency = std::numeric_limits<double>::infinity();
    }
    o.meets_slo = o.latency <= slo_latency;

    // Every loaded trip returns empty (Table VI accounting), and the
    // plants pump around the clock.
    const double launches_day =
        (bulk_launch + interactive_launch) * units::days(1.0);
    o.energy_day = 2.0 * launches_day * c.launch_energy +
                   c.hotel_power * units::days(1.0);
    return o;
}

/**
 * The scalar reference path: re-derives DesignConstants through the
 * analytical models on *every* call, the way the paper-artefact scans
 * evaluate their grids.  This is the baseline BM_BatchedEval beats.
 */
ScenarioOutcome evaluateScalar(const PlanAssumptions &a,
                               const DesignPoint &d, const Scenario &s);

/**
 * The batched SoA path: constants already hoisted, scenario columns
 * streamed contiguously.  Scores the window [first, first + n) of
 * @p in into out[0, n) (@p out is resized to n), so a planner can walk
 * one shared read-only stream in fixed-size chunks.  Bit-identical to
 * evaluateScalar on every element.
 */
void evaluateBatch(const DesignConstants &c, const ScenarioBatch &in,
                   std::size_t first, std::size_t n, double slo_latency,
                   EvalBatch &out);

/** The whole-batch form: the window [0, in.size()). */
void evaluateBatch(const DesignConstants &c, const ScenarioBatch &in,
                   double slo_latency, EvalBatch &out);

} // namespace plan
} // namespace dhl

#endif // DHL_PLAN_BATCH_EVAL_HPP
