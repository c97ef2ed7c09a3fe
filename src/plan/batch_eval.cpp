/**
 * @file
 * Implementation of the batched design-point evaluator.
 */

#include "plan/batch_eval.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "cost/cost_model.hpp"
#include "dhl/analytical.hpp"

namespace dhl {
namespace plan {

void
validate(const PlanAssumptions &a)
{
    core::validate(a.dhl);
    fatal_if(!(a.slo_latency > 0.0), "slo_latency must be positive");
    fatal_if(a.target_quantile <= 0.0 || a.target_quantile >= 1.0,
             "target_quantile must be in (0, 1)");
    fatal_if(a.tracks_per_plant == 0,
             "tracks_per_plant must be at least 1");
    fatal_if(!(a.plant_mtbf_hours > 0.0), "plant_mtbf_hours must be > 0");
    fatal_if(a.plant_mttr_hours < 0.0, "plant_mttr_hours must be >= 0");
    fatal_if(a.plant_capex < 0.0, "plant_capex must be >= 0");
    fatal_if(a.cart_capex < 0.0, "cart_capex must be >= 0");
    fatal_if(a.plant_power < 0.0, "plant_power must be >= 0");
}

double
plantCapacityFactor(std::size_t required, std::size_t built,
                    double unavailability)
{
    panic_if(required == 0, "plantCapacityFactor: required must be >= 1");
    fatal_if(unavailability < 0.0 || unavailability > 1.0,
             "plant unavailability must be in [0, 1]");
    if (built == 0)
        return 0.0;

    // E[min(K, required)] for K ~ Binomial(built, 1 - u), evaluated by
    // direct summation: the lattice never builds more than a handful of
    // plants, so the exact sum beats any approximation.
    const double up = 1.0 - unavailability;
    double pmf = std::pow(unavailability, static_cast<double>(built));
    double expect = 0.0;
    for (std::size_t k = 0; k <= built; ++k) {
        if (k > 0) {
            // Binomial recurrence: pmf(k) from pmf(k - 1).
            pmf *= static_cast<double>(built - k + 1) /
                   static_cast<double>(k) * up / unavailability;
        }
        const double capped = static_cast<double>(std::min(k, required));
        expect += pmf * capped;
    }
    // unavailability == 0 degenerates the recurrence (0/0); handle it
    // exactly: every plant is always up.
    if (unavailability == 0.0)
        expect = static_cast<double>(std::min(built, required));
    return expect / static_cast<double>(required);
}

DesignConstants
designConstants(const PlanAssumptions &a, const DesignPoint &d)
{
    validate(a);
    fatal_if(d.tracks == 0, "a design needs at least one track");
    fatal_if(d.carts_per_track == 0,
             "a design needs at least one cart per track");

    const core::AnalyticalModel model(a.dhl);
    const core::LaunchMetrics m = model.launch();

    DesignConstants c;
    c.design = d;
    c.cart_capacity = m.capacity.value();
    c.trip_time = m.trip_time.value();
    c.launch_energy = m.energy.value();
    c.read_per_byte = model.cartReadTime().value() / c.cart_capacity;

    // Pipelined launch period: bounded below by the convoy headway and
    // by the endpoint turnaround spread over the docking stations
    // (undock + dock per cart).  The cart pool caps sustained rate at
    // carts / round-trip independently of pipelining depth.
    const double period =
        std::max(a.dhl.headway,
                 2.0 * a.dhl.dock_time /
                     static_cast<double>(a.dhl.docking_stations));
    const double pool_rate = static_cast<double>(d.carts_per_track) /
                             (2.0 * c.trip_time);
    c.track_launch_rate = std::min(1.0 / period, pool_rate);

    const std::size_t required =
        (d.tracks + a.tracks_per_plant - 1) / a.tracks_per_plant;
    const double unavailability =
        a.plant_mttr_hours / (a.plant_mtbf_hours + a.plant_mttr_hours);
    c.plant_factor = plantCapacityFactor(required, d.plants, unavailability);
    c.feasible = d.plants >= required;

    c.fleet_launch_rate = static_cast<double>(d.tracks) *
                          c.track_launch_rate * c.plant_factor;

    const cost::CostModel cost_model;
    c.capex = static_cast<double>(d.tracks) *
                  cost_model.totalCost(a.dhl.track_length, a.dhl.max_speed) +
              static_cast<double>(d.plants) * a.plant_capex +
              static_cast<double>(d.tracks * d.carts_per_track) *
                  a.cart_capex;
    c.hotel_power = static_cast<double>(d.plants) * a.plant_power;
    return c;
}

void
EvalBatch::resize(std::size_t n)
{
    utilisation.resize(n);
    latency.resize(n);
    energy_day.resize(n);
    meets_slo.resize(n);
}

ScenarioOutcome
evaluateScalar(const PlanAssumptions &a, const DesignPoint &d,
               const Scenario &s)
{
    // Deliberately re-derives the constants per call: this is the
    // paper-artefact evaluation pattern the batched path amortises.
    const DesignConstants c = designConstants(a, d);
    return scenarioKernel(c, s.users, s.bytes_per_user_day, s.peak_factor,
                          s.bulk_share, s.request_bytes, a.slo_latency);
}

void
evaluateBatch(const DesignConstants &c, const ScenarioBatch &in,
              std::size_t first, std::size_t n, double slo_latency,
              EvalBatch &out)
{
    panic_if(first > in.size() || n > in.size() - first,
             "evaluateBatch window out of range");
    out.resize(n);
    const double *users = in.users.data() + first;
    const double *bytes = in.bytes_per_user_day.data() + first;
    const double *peak = in.peak_factor.data() + first;
    const double *bulk = in.bulk_share.data() + first;
    const double *req = in.request_bytes.data() + first;
    for (std::size_t i = 0; i < n; ++i) {
        const ScenarioOutcome o = scenarioKernel(
            c, users[i], bytes[i], peak[i], bulk[i], req[i], slo_latency);
        out.utilisation[i] = o.utilisation;
        out.latency[i] = o.latency;
        out.energy_day[i] = o.energy_day;
        out.meets_slo[i] = o.meets_slo ? 1 : 0;
    }
}

void
evaluateBatch(const DesignConstants &c, const ScenarioBatch &in,
              double slo_latency, EvalBatch &out)
{
    evaluateBatch(c, in, 0, in.size(), slo_latency, out);
}

} // namespace plan
} // namespace dhl
