/**
 * @file
 * Implementation of the batched design-point evaluator.
 */

#include "plan/batch_eval.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

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

namespace {

using lanes::LaneIsa;

/** The columns of one evaluateBatch() window. */
struct Window
{
    const double *users;
    const double *bytes;
    const double *peak;
    const double *bulk;
    const double *req;
    double *utilisation;
    double *latency;
    double *energy_day;
    std::uint8_t *meets_slo;
};

/** Check the window [first, first + n) against @p in, size @p out to
 *  n and point at both. */
Window
openWindow(const ScenarioBatch &in, std::size_t first, std::size_t n,
           EvalBatch &out)
{
    panic_if(first > in.size() || n > in.size() - first,
             "evaluateBatch window out of range");
    out.resize(n);
    return {in.users.data() + first,
            in.bytes_per_user_day.data() + first,
            in.peak_factor.data() + first,
            in.bulk_share.data() + first,
            in.request_bytes.data() + first,
            out.utilisation.data(),
            out.latency.data(),
            out.energy_day.data(),
            out.meets_slo.data()};
}

/** scenarioKernel over window elements [k, n): the scalar loop, which
 *  every lane instance runs on its tail. */
[[gnu::always_inline]] inline void
evalScalar(const DesignConstants &c, const Window &w, std::size_t k,
           std::size_t n, double slo_latency)
{
    for (; k < n; ++k) {
        const ScenarioOutcome o =
            scenarioKernel(c, w.users[k], w.bytes[k], w.peak[k], w.bulk[k],
                           w.req[k], slo_latency);
        w.utilisation[k] = o.utilisation;
        w.latency[k] = o.latency;
        w.energy_day[k] = o.energy_day;
        w.meets_slo[k] = o.meets_slo ? 1 : 0;
    }
}

#if defined(__x86_64__)
/** One meets_slo byte per lane. */
using U8x4 = std::uint8_t __attribute__((vector_size(4)));
using U8x8 = std::uint8_t __attribute__((vector_size(8)));

/**
 * scenarioKernel over window elements [0, n) on the lanes of @p I, with
 * a scalar tail.  Each lane does the kernel's operations in its order,
 * so every output has the scalar bits; its two branches become
 * selects, each of which keeps the scalar result in the lanes it
 * picks.  The selected-away arithmetic (a division by a zero fleet
 * rate, a wait past saturation) only makes values nobody reads.
 */
template <LaneIsa I>
[[gnu::always_inline]] inline void
evalLanes(const DesignConstants &c, const Window &w, std::size_t n,
          double slo_latency)
{
    using Vec = lanes::LaneVec<I>;
    using Mask = decltype(Vec{} < Vec{});
    constexpr std::size_t W = lanes::kLaneWidth<I>;
    using Bytes = std::conditional_t<W == 8, U8x8, U8x4>;

    const Vec zero{};
    const Vec one = zero + 1.0;
    const Vec two = zero + 2.0;
    const Vec inf = zero + std::numeric_limits<double>::infinity();
    const Vec day = zero + units::days(1.0);
    const Vec capacity = zero + c.cart_capacity;
    const Vec fleet = zero + c.fleet_launch_rate;
    const Vec trip = zero + c.trip_time;
    const Vec read_per_byte = zero + c.read_per_byte;
    const Vec launch_energy = zero + c.launch_energy;
    const Vec hotel_day = zero + c.hotel_power * units::days(1.0);
    const Vec slo = zero + slo_latency;
    const bool rated = c.feasible && c.fleet_launch_rate > 0.0;

    std::size_t k = 0;
    for (; k + W <= n; k += W) {
        Vec users, bytes, peak, bulk, req;
        std::memcpy(&users, w.users + k, sizeof users);
        std::memcpy(&bytes, w.bytes + k, sizeof bytes);
        std::memcpy(&peak, w.peak + k, sizeof peak);
        std::memcpy(&bulk, w.bulk + k, sizeof bulk);
        std::memcpy(&req, w.req + k, sizeof req);

        const Vec mean_bw = users * bytes / day;
        const Vec bulk_launch = mean_bw * bulk / capacity;
        const Vec interactive_launch = mean_bw * (one - bulk) / req;
        const Vec launches = bulk_launch + interactive_launch;
        const Vec utilisation = rated ? launches * peak / fleet : inf;
        const Vec wait =
            trip * utilisation / (two * (one - utilisation));
        const Vec latency = utilisation < one
                                ? trip + req * read_per_byte + wait
                                : inf;
        const Mask meets = latency <= slo;
        const Vec energy_day =
            two * (launches * day) * launch_energy + hotel_day;
        const Bytes meets_slo = __builtin_convertvector(-meets, Bytes);

        std::memcpy(w.utilisation + k, &utilisation, sizeof utilisation);
        std::memcpy(w.latency + k, &latency, sizeof latency);
        std::memcpy(w.energy_day + k, &energy_day, sizeof energy_day);
        std::memcpy(w.meets_slo + k, &meets_slo, sizeof meets_slo);
    }
    evalScalar(c, w, k, n, slo_latency);
}

[[gnu::target("avx512f")]] void
evalAvx512(const DesignConstants &c, const ScenarioBatch &in,
           std::size_t first, std::size_t n, double slo_latency,
           EvalBatch &out)
{
    evalLanes<LaneIsa::Avx512>(c, openWindow(in, first, n, out), n,
                               slo_latency);
}

[[gnu::target("avx2")]] void
evalAvx2(const DesignConstants &c, const ScenarioBatch &in,
         std::size_t first, std::size_t n, double slo_latency,
         EvalBatch &out)
{
    evalLanes<LaneIsa::Avx2>(c, openWindow(in, first, n, out), n,
                             slo_latency);
}
#endif

/** The scalar loop as a one-lane instance, for a host without AVX2. */
void
evalScalarAll(const DesignConstants &c, const ScenarioBatch &in,
              std::size_t first, std::size_t n, double slo_latency,
              EvalBatch &out)
{
    evalScalar(c, openWindow(in, first, n, out), 0, n, slo_latency);
}

} // namespace

namespace detail {

const std::vector<EvalLanes> &
supportedEvalLanes()
{
    static const std::vector<EvalLanes> instances =
        lanes::supportedInstances<EvalLanes>({
#if defined(__x86_64__)
            {LaneIsa::Avx512, evalAvx512},
            {LaneIsa::Avx2, evalAvx2},
#endif
            {LaneIsa::Scalar, evalScalarAll},
        });
    return instances;
}

} // namespace detail

void
evaluateBatch(const DesignConstants &c, const ScenarioBatch &in,
              std::size_t first, std::size_t n, double slo_latency,
              EvalBatch &out)
{
    static const detail::EvalLanes &instance =
        detail::supportedEvalLanes().front();
    instance.eval(c, in, first, n, slo_latency, out);
}

void
evaluateBatch(const DesignConstants &c, const ScenarioBatch &in,
              double slo_latency, EvalBatch &out)
{
    evaluateBatch(c, in, 0, in.size(), slo_latency, out);
}

} // namespace plan
} // namespace dhl
