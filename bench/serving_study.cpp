/**
 * @file
 * Experiment E19 — open-loop serving study (beyond-paper).
 *
 * The paper's evaluation moves fixed datasets; a DHL deployed as a
 * *service* instead faces a load profile — ramp up, sustained peak,
 * ramp down — on a fleet that is simultaneously losing components,
 * taking maintenance windows, and sharing vacuum plants.  E19 runs the
 * same staged profile on a degraded 4-track fleet under each dispatch
 * policy and reports per-stage SLO outcomes (tail latency, per-stage
 * availability, goodput, deferrals and shed load).
 *
 * The final scenario is the checkpoint oracle: the same serve run is
 * executed uninterrupted, and checkpointed/restored at every epoch
 * boundary, and the two must produce byte-identical SLO tables, totals,
 * and a byte-identical re-checkpoint.  This is the property the DES
 * epoch/snapshot layer (DESIGN.md §11) guarantees, demoted from a test
 * to a standing table row so soak runs notice a regression immediately.
 */

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/units.hpp"
#include "exp/slo.hpp"
#include "serve/serving.hpp"

using namespace dhl;
namespace u = dhl::units;

namespace {

/** The shared E19 environment: a degraded 4-track fleet. */
serve::ServeConfig
e19Config(ops::DispatchPolicy policy, int min_priority_degraded)
{
    serve::ServeConfig cfg;
    cfg.dhl = core::defaultConfig();
    cfg.dhl.docking_stations = 2;
    cfg.tracks = 4;
    cfg.seed = 19;
    cfg.epoch = 600.0;
    cfg.carts_per_track = 4;
    cfg.max_pending = 256;
    cfg.policy = policy;
    cfg.min_priority_degraded = min_priority_degraded;

    // Staged profile: 20 min ramp to peak, 40 min hold, 20 min drain.
    // Two request classes: bulk (priority 0) and a smaller
    // latency-sensitive class (priority 1) that survives degraded-mode
    // admission under the availability policy.
    workloads::RequestClass bulk{"bulk", 3.0, u::gigabytes(192), 0.0, 0};
    workloads::RequestClass urgent{"urgent", 1.0, u::gigabytes(32), 0.0,
                                   1};
    cfg.stages = {
        workloads::StageSpec{"ramp", 1200.0, 0.0, 0.35, {bulk, urgent}},
        workloads::StageSpec{"peak", 2400.0, 0.35, 0.35, {bulk, urgent}},
        workloads::StageSpec{"drain", 1200.0, 0.35, 0.0, {bulk, urgent}},
    };

    // Accelerated component faults so outages land within the run.
    cfg.faults.enabled = true;
    cfg.faults.seed = 19;
    cfg.faults.lim_mtbf = 2.0;
    cfg.faults.lim_mttr = 0.1;
    cfg.faults.track_mtbf = 4.0;
    cfg.faults.track_mttr = 0.2;
    cfg.faults.station_mtbf = 3.0;
    cfg.faults.station_mttr = 0.05;
    cfg.faults.cart_repair_per_trip = 5e-3;
    cfg.faults.cart_repair_hours = 0.05;

    // One planned window on track 2, and shared plants two tracks wide
    // tripping within the hour.
    cfg.maintenance.windows.push_back({1500.0, 300.0, 0.0, 2});
    cfg.domains.enabled = true;
    cfg.domains.domain_size = 2;
    cfg.domains.plant_mtbf = 0.5;
    cfg.domains.plant_mttr = 0.05;
    cfg.domains.seed = 19;
    return cfg;
}

/** Per-stage SLO rows for one policy, prefixed with the policy name. */
exp::Scenario
policyScenario(std::string name, ops::DispatchPolicy policy,
               int min_priority_degraded)
{
    exp::Scenario s;
    s.name = name;
    s.separator_after = true;
    s.run = [name, policy, min_priority_degraded](exp::ScenarioContext &) {
        serve::ServingSim sim(e19Config(policy, min_priority_degraded));
        sim.run();
        exp::ScenarioRows rows;
        for (const exp::StageSlo &stage : sim.sloTable()) {
            std::vector<std::string> row{name};
            for (std::string &c : exp::sloRow(stage))
                row.push_back(std::move(c));
            rows.push_back(std::move(row));
        }
        return rows;
    };
    return s;
}

/** Serialise everything the oracle compares: the formatted SLO table
 *  plus the fleet totals. */
std::string
outcomeDigest(serve::ServingSim &sim)
{
    std::ostringstream os;
    for (const exp::StageSlo &stage : sim.sloTable())
        for (const std::string &c : exp::sloRow(stage))
            os << c << "|";
    os << sim.totalServed() << "|" << sim.totalShed() << "|"
       << sim.totalLaunches() << "|" << sim.totalEnergy() << "|"
       << sim.now() << "|" << sim.epochsCompleted();
    return os.str();
}

/** The checkpoint oracle: restore(checkpoint)+run == uninterrupted
 *  run, byte for byte, at every epoch boundary. */
exp::Scenario
checkpointOracleScenario()
{
    exp::Scenario s;
    s.name = "checkpoint oracle";
    s.run = [](exp::ScenarioContext &) {
        const auto cfg =
            e19Config(ops::DispatchPolicy::AvailabilityAware, 1);

        serve::ServingSim oracle(cfg);
        oracle.run();
        const std::string want = outcomeDigest(oracle);
        std::ostringstream want_ck;
        oracle.checkpoint(want_ck);

        // Hop through a checkpoint at every epoch boundary: each
        // epoch's state round-trips into a freshly built fleet.
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
        const std::string got = outcomeDigest(*hopper);
        std::ostringstream got_ck;
        hopper->checkpoint(got_ck);

        const bool identical =
            want == got && want_ck.str() == got_ck.str();
        exp::ScenarioRows rows;
        rows.push_back({"checkpoint oracle",
                        std::to_string(hops) + " hops",
                        identical ? "byte-identical" : "DIVERGED", "",
                        "", "", "", "", "", "", ""});
        if (!identical) {
            std::cerr << "E19 checkpoint oracle diverged!\n"
                      << "  want: " << want << "\n"
                      << "  got:  " << got << "\n";
            std::exit(1);
        }
        return rows;
    };
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options opts = bench::parseArgs(argc, argv);
    if (!opts.csv) {
        bench::banner("E19 (beyond-paper)",
                      "open-loop serving: staged load on a degraded "
                      "fleet, per-stage SLOs, checkpoint oracle");
    }

    exp::Experiment e19("e19");
    e19.add(policyScenario("round-robin", ops::DispatchPolicy::RoundRobin,
                           0));
    e19.add(policyScenario("least-queued",
                           ops::DispatchPolicy::LeastQueued, 0));
    e19.add(policyScenario("availability",
                           ops::DispatchPolicy::AvailabilityAware, 1));
    e19.add(checkpointOracleScenario());

    exp::ExperimentRunner runner(bench::runOptions(opts));
    const exp::ExperimentResult result = runner.run(e19);

    std::vector<std::string> headers{"Policy"};
    for (std::string &h : exp::sloHeaders())
        headers.push_back(std::move(h));
    bench::emit(result, std::move(headers), opts);

    if (!opts.csv) {
        std::cout << "\nPer-stage availability is the per-track mean "
                     "over the stage window; goodput is delivered "
                     "bytes / stage duration.  The checkpoint-oracle "
                     "row re-runs the availability scenario hopping "
                     "through a checkpoint at every epoch boundary "
                     "and byte-compares tables, totals, and the final "
                     "checkpoint.\n";
    }
    return 0;
}
