/**
 * @file
 * Experiments E17 and E18 — reliability validation.
 *
 * E17 (fault-injection validation): the DES's observed service
 * availability under the seeded FaultInjector must converge to the
 * closed-form steady-state AvailabilityModel (series availability
 * MTBF/(MTBF+MTTR) per component), with a renewal-cycle bootstrap 95%
 * confidence interval on the observed value, and bulk transfers under
 * faults must derate towards the model's system availability.
 *
 * E18 (fleet operations): under a correlated vacuum-plant outage plus a
 * planned maintenance window, availability-aware dispatch must deliver
 * strictly more of the clean-fleet bandwidth (and a strictly lower P99
 * queued-open latency) than the static round-robin baseline.
 *
 * `--experiment e17|e18|all` selects what runs (default all).
 * Scenarios run through the ExperimentRunner; `--jobs 1` and parallel
 * runs print byte-identical tables (fault and ops timelines are pure
 * functions of (seed, config), never of thread interleaving).
 */

#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "dhl/reliability.hpp"
#include "dhl/simulation.hpp"
#include "faults/fault_injector.hpp"
#include "ops/fleet_ops.hpp"

using namespace dhl;
using namespace dhl::core;
namespace u = dhl::units;

namespace {

constexpr double kSecondsPerHour = 3600.0;

/**
 * Renewal-cycle bootstrap 95% CI on observed availability: pair the
 * service edge log into complete up/down cycles, resample cycles with
 * replacement, and take the 2.5th/97.5th percentiles of the resampled
 * availability ratios.  Deterministic (own seeded stream).
 */
std::pair<double, double>
bootstrapAvailabilityCI(const std::vector<std::pair<double, bool>> &log,
                        double horizon, std::uint64_t seed)
{
    std::vector<std::pair<double, double>> cycles; // (up, down), s
    double up_start = 0.0;   // service is up from t = 0
    double down_start = -1.0;
    double up_len = 0.0;
    for (const auto &edge : log) {
        if (edge.first > horizon)
            break;
        if (!edge.second) { // up -> down
            up_len = edge.first - up_start;
            down_start = edge.first;
        } else if (down_start >= 0.0) { // down -> up: cycle complete
            cycles.push_back({up_len, edge.first - down_start});
            up_start = edge.first;
            down_start = -1.0;
        }
    }
    if (cycles.size() < 2)
        return {1.0, 1.0}; // too few outages to resample

    Rng rng(deriveSeed(seed, 0xB007));
    constexpr int kResamples = 1000;
    std::vector<double> samples;
    samples.reserve(kResamples);
    const auto n = static_cast<std::int64_t>(cycles.size());
    for (int b = 0; b < kResamples; ++b) {
        double up = 0.0;
        double total = 0.0;
        for (std::int64_t i = 0; i < n; ++i) {
            const auto &c =
                cycles[static_cast<std::size_t>(rng.uniformInt(0, n - 1))];
            up += c.first;
            total += c.first + c.second;
        }
        samples.push_back(up / total);
    }
    return {stats::percentile(samples, 2.5),
            stats::percentile(samples, 97.5)};
}

/** Long-horizon availability measurement parameters: component rates
 *  accelerated ~500x over the engineering estimates so a 50000-hour
 *  horizon covers hundreds of failure cycles per component. */
ReliabilityConfig
acceleratedRates()
{
    ReliabilityConfig rel;
    rel.lim_mtbf = 100.0;
    rel.lim_mttr = 8.0;
    rel.track_mtbf = 200.0;
    rel.track_mttr = 24.0;
    rel.station_mtbf = 60.0;
    rel.station_mttr = 4.0;
    rel.cart_repair_per_trip = 0.0; // availability is outage-driven
    return rel;
}

/** One availability-convergence scenario: drive a bare FaultInjector
 *  for the full horizon and compare observed vs closed-form. */
exp::Scenario
availabilityScenario(const DhlConfig &dhl, const ReliabilityConfig &rel,
                     std::uint64_t seed, double horizon_hours)
{
    exp::Scenario s;
    s.name = "seed " + std::to_string(seed);
    s.run = [dhl, rel, seed, horizon_hours](exp::ScenarioContext &) {
        const double horizon_s = horizon_hours * kSecondsPerHour;
        sim::Simulator sim;
        faults::FaultState state(sim);
        const faults::FaultConfig fc = toFaultConfig(rel, seed, horizon_s);
        faults::FaultInjector injector(sim, state, fc,
                                       dhl.docking_stations);
        sim.run(); // drains shortly after the horizon

        const AvailabilityModel model(dhl, rel);
        const double predicted = model.report().system_availability;
        const double observed = state.observedAvailability(horizon_s);
        const double rel_err =
            std::abs(observed - predicted) / predicted;
        const auto ci =
            bootstrapAvailabilityCI(state.serviceLog(), horizon_s, seed);

        exp::ScenarioRows rows;
        rows.push_back({"seed " + std::to_string(seed),
                        std::to_string(injector.eventsInjected()),
                        std::to_string(state.serviceTransitions()),
                        cell(observed, 5), cell(ci.first, 5),
                        cell(ci.second, 5), cell(predicted, 5),
                        cell(rel_err * 100.0, 3)});
        return rows;
    };
    return s;
}

/** One degraded-throughput scenario: the same bulk transfer with and
 *  without fault injection; the bandwidth ratio tracks (loosely — the
 *  run is finite and queueing effects stack) the system availability. */
exp::Scenario
degradedScenario(std::string name, const ReliabilityConfig &rel,
                 std::uint64_t seed, std::uint64_t carts)
{
    exp::Scenario s;
    s.name = name;
    s.run = [name, rel, seed, carts](exp::ScenarioContext &) {
        const DhlConfig cfg = defaultConfig();
        const double dataset =
            static_cast<double>(carts) * cfg.cartCapacity().value();

        DhlSimulation clean(cfg);
        const BulkRunResult rc = clean.runBulkTransfer(dataset);

        DhlSimulation faulty(cfg);
        faulty.enableFaults(toFaultConfig(rel, seed));
        const BulkRunResult rf = faulty.runBulkTransfer(dataset);

        const AvailabilityModel model(cfg, rel);
        const double predicted = model.report().system_availability;

        exp::ScenarioRows rows;
        rows.push_back(
            {name, cell(predicted, 4),
             cell(rc.effective_bandwidth / u::gigabytes(1), 4),
             cell(rf.effective_bandwidth / u::gigabytes(1), 4),
             cell(rf.effective_bandwidth / rc.effective_bandwidth, 4),
             std::to_string(faulty.controller().parkedLaunches()),
             std::to_string(faulty.controller().heldOpens()),
             std::to_string(faulty.controller().cartBreakdowns())});
        return rows;
    };
    return s;
}

/** The E18 fault environment: two-track vacuum-plant domains with an
 *  aggressive trip process plus a one-shot maintenance window on the
 *  last track, so both correlated and planned downtime land inside a
 *  ~100 s transfer.  Identical for every policy (time-driven, never
 *  dispatch-driven), so rows differ only by dispatch. */
ops::OpsConfig
e18Environment(ops::DispatchPolicy policy, int min_priority_degraded)
{
    ops::OpsConfig oc;
    oc.dispatch.policy = policy;
    oc.dispatch.min_priority_degraded = min_priority_degraded;
    oc.domains.enabled = true;
    oc.domains.domain_size = 2;
    oc.domains.plant_mtbf = 0.02; // h: trips land within the run
    oc.domains.plant_mttr = 0.01; // h: 36 s pump-down per trip
    oc.domains.seed = 21;
    oc.maintenance.windows.push_back({10.0, 30.0, 0.0, 3});
    return oc;
}

/** One E18 scenario: the same bulk transfer on a clean fleet and under
 *  the shared fault environment, per dispatch policy.  Delivered
 *  availability is the faulted/clean effective-bandwidth ratio — the
 *  fraction of the fleet's healthy throughput the policy preserved. */
exp::Scenario
fleetPolicyScenario(std::string name, ops::DispatchPolicy policy,
                    int min_priority_degraded, std::uint64_t carts)
{
    exp::Scenario s;
    s.name = name;
    s.run = [name, policy, min_priority_degraded,
             carts](exp::ScenarioContext &) {
        DhlConfig cfg = defaultConfig();
        cfg.docking_stations = 2;
        constexpr std::size_t kTracks = 4;
        const double dataset =
            static_cast<double>(carts) * cfg.cartCapacity().value();

        ops::OpsConfig clean_ops;
        clean_ops.dispatch.policy = policy;
        ops::FleetOps clean(cfg, kTracks, clean_ops);
        const ops::OpsRunResult rc = clean.runBulkTransfer(dataset);

        // Half the jobs are bulk (priority 0), half latency-sensitive
        // (priority 1); only the admission-control row sets a floor.
        std::vector<ops::RequestMeta> meta(carts);
        for (std::size_t j = 0; j < meta.size(); ++j)
            meta[j].priority = static_cast<int>(j % 2);

        ops::FleetOps faulty(cfg, kTracks,
                             e18Environment(policy, min_priority_degraded));
        const ops::OpsRunResult rf =
            faulty.runBulkTransfer(dataset, {}, meta);

        const double delivered = rf.base.effective_bandwidth /
                                 rc.base.effective_bandwidth;
        exp::ScenarioRows rows;
        rows.push_back(
            {name, cell(delivered, 4),
             cell(rf.base.total_time, 4),
             cell(rf.open_latency_mean, 4),
             cell(rf.open_latency_p99, 4),
             std::to_string(rf.reroutes),
             std::to_string(rf.deferrals),
             std::to_string(rf.plant_outages),
             std::to_string(rf.maintenance_windows),
             cell(rf.fleet_availability, 4)});
        return rows;
    };
    return s;
}

/** Validate the shared --experiment flag: e17|e18|all (default all). */
std::string
checkExperiment(const bench::Options &opts)
{
    const std::string which =
        opts.experiment.empty() ? "all" : opts.experiment;
    if (which != "e17" && which != "e18" && which != "all") {
        std::cerr << "error: --experiment expects e17|e18|all, got '"
                  << which << "'\n";
        std::exit(2);
    }
    return which;
}

void
runE17(exp::ExperimentRunner &runner, const bench::Options &opts)
{
    // Part 1: long-run availability convergence across a seed sweep.
    const DhlConfig dhl = defaultConfig();
    const ReliabilityConfig rel = acceleratedRates();
    const double horizon_hours = 50000.0;

    exp::Experiment avail("availability convergence");
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        avail.add(availabilityScenario(dhl, rel, seed, horizon_hours));

    if (!opts.csv) {
        std::cout << "\nAvailability convergence (" << horizon_hours
                  << " h horizon, rates accelerated ~500x):\n";
    }
    bench::emit(runner.run(avail),
                {"Scenario", "Fault events", "Service edges",
                 "DES availability", "CI lo (95%)", "CI hi (95%)",
                 "Model availability", "Rel err (%)"},
                opts);

    // Part 2: bulk transfers on a faulty system derate towards the
    // system availability (heavily accelerated rates so outages land
    // within a ~1000 s transfer).
    ReliabilityConfig moderate;
    moderate.lim_mtbf = 0.2;
    moderate.lim_mttr = 0.0125;
    moderate.track_mtbf = 0.4;
    moderate.track_mttr = 0.012;
    moderate.station_mtbf = 0.12;
    moderate.station_mttr = 0.01;
    moderate.cart_repair_per_trip = 0.02;
    moderate.cart_repair_hours = 0.01;

    ReliabilityConfig heavy = moderate;
    heavy.lim_mtbf = 0.05;
    heavy.track_mtbf = 0.1;
    heavy.station_mtbf = 0.03;
    heavy.cart_repair_per_trip = 0.05;

    exp::Experiment degraded("degraded throughput");
    degraded.add(degradedScenario("moderate faults", moderate, 7, 48));
    degraded.add(degradedScenario("heavy faults", heavy, 7, 48));

    if (!opts.csv)
        std::cout << "\nDegraded-mode bulk transfers (48 carts):\n";
    bench::emit(runner.run(degraded),
                {"Scenario", "Model avail", "Clean BW (GB/s)",
                 "Faulted BW (GB/s)", "Ratio", "Parked", "Held opens",
                 "Breakdowns"},
                opts);

    if (!opts.csv) {
        std::cout
            << "\nThe DES availability converges to the closed form "
               "because both use the same MTBF/MTTR parameters and "
               "steady-state availability holds for exponential "
               "uptimes with fixed repairs.  The 95% CI resamples the "
               "run's own up/down renewal cycles (bootstrap); the "
               "model value must fall inside it.  Transfer derating "
               "exceeds the availability loss alone: outages also "
               "serialise queued work (parked trips, held opens).\n";
    }
}

void
runE18(exp::ExperimentRunner &runner, const bench::Options &opts)
{
    constexpr std::uint64_t kCarts = 48;

    exp::Experiment policies("fleet dispatch policies");
    policies.add(fleetPolicyScenario("round-robin",
                                     ops::DispatchPolicy::RoundRobin, 0,
                                     kCarts));
    policies.add(fleetPolicyScenario("least-queued",
                                     ops::DispatchPolicy::LeastQueued, 0,
                                     kCarts));
    policies.add(fleetPolicyScenario(
        "availability", ops::DispatchPolicy::AvailabilityAware, 0, kCarts));
    policies.add(fleetPolicyScenario("availability + admission",
                                     ops::DispatchPolicy::AvailabilityAware,
                                     1, kCarts));

    if (!opts.csv) {
        std::cout << "\nFleet dispatch under a correlated plant outage "
                     "+ maintenance window (4 tracks, "
                  << kCarts << " carts):\n";
    }
    const exp::ExperimentResult result = runner.run(policies);
    bench::emit(result,
                {"Policy", "Delivered avail", "Makespan (s)",
                 "Open mean (s)", "Open P99 (s)", "Reroutes",
                 "Deferrals", "Plant outages", "Maint windows",
                 "Fleet avail"},
                opts);

    if (!opts.csv) {
        // The acceptance claim, checked on the rows just printed:
        // availability-aware must strictly beat round-robin on both
        // delivered availability and P99 open latency.
        const auto rows = result.rows();
        const auto &rr = rows.at(0);
        const auto &aa = rows.at(2);
        const bool better = std::stod(aa.at(1)) > std::stod(rr.at(1)) &&
                            std::stod(aa.at(4)) < std::stod(rr.at(4));
        std::cout
            << "\nAvailability-aware vs round-robin: delivered "
               "availability " << rr.at(1) << " -> " << aa.at(1)
            << ", open P99 " << rr.at(4) << " s -> " << aa.at(4)
            << " s (" << (better ? "strictly better" : "NOT better")
            << ").\nRound-robin strands its pre-assigned share of the "
               "work behind every outage; the availability-aware "
               "policy drains queued opens off blocked tracks and "
               "re-routes the jobs, so only in-flight trips feel the "
               "downtime.  The admission-control row additionally "
               "defers bulk (priority 0) jobs while degraded, "
               "trading their latency for the high-priority class.\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options opts = bench::parseArgs(argc, argv);
    const std::string which = checkExperiment(opts);
    if (!opts.csv) {
        bench::banner("E17/E18 (beyond-paper)",
                      "fault-injection DES vs closed-form availability "
                      "model; fleet operations under correlated "
                      "outages");
    }

    exp::ExperimentRunner runner(bench::runOptions(opts));
    if (which == "e17" || which == "all")
        runE17(runner, opts);
    if (which == "e18" || which == "all")
        runE18(runner, opts);
    return 0;
}
