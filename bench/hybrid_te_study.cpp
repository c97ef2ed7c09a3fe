/**
 * @file
 * Experiment E20 — hybrid traffic-engineering study (beyond-paper).
 *
 * The paper sizes DHL against the optical network one transfer at a
 * time; a deployed DHL runs *alongside* that network, and a traffic
 * engineer chooses per request.  E20 serves the same two-class profile
 * (small latency-sensitive "interactive" requests and large "bulk"
 * ones) on a 2-track fleet three ways: everything on the carts
 * (dhl-only), everything on the optical uplink (optical-only), and the
 * TE controller's hybrid split.  The frontier table reports energy,
 * weighted Jain fairness over per-tenant goodput, interactive P99 and
 * bulk goodput per mode, and asserts the hybrid's frontier point
 * strictly dominates both pure modes: lower interactive P99 than
 * dhl-only AND higher bulk goodput than optical-only.  CI byte-compares
 * the CSV across --jobs 1/4.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "exp/slo.hpp"
#include "serve/serving.hpp"

using namespace dhl;
namespace u = dhl::units;

namespace {

/** The shared E20 environment: a healthy 2-track fleet with a mixed
 *  interactive/bulk profile. */
serve::ServeConfig
e20Config(te::TeMode mode)
{
    serve::ServeConfig cfg;
    cfg.dhl = core::defaultConfig();
    cfg.dhl.docking_stations = 2;
    cfg.tracks = 2;
    cfg.seed = 20;
    cfg.epoch = 600.0;
    cfg.carts_per_track = 4;
    cfg.max_pending = 256;
    cfg.policy = ops::DispatchPolicy::LeastQueued;

    // Interactive requests are far below the TE size threshold; bulk
    // ones are far above it.  Fixed sizes keep the contrast sharp.
    workloads::RequestClass interactive{"interactive", 3.0,
                                        u::gigabytes(2), 0.0, 1};
    workloads::RequestClass bulk{"bulk", 1.0, u::gigabytes(192), 0.0, 0};
    cfg.stages = {
        workloads::StageSpec{"ramp", 1200.0, 0.0, 0.3,
                             {interactive, bulk}},
        workloads::StageSpec{"peak", 2400.0, 0.3, 0.3,
                             {interactive, bulk}},
        workloads::StageSpec{"drain", 1200.0, 0.3, 0.0,
                             {interactive, bulk}},
    };

    cfg.te.enabled = true;
    cfg.te.mode = mode;
    cfg.te.control_period = 60.0;
    cfg.te.small_bytes = u::gigabytes(8.0);
    cfg.te.optical_capacity = u::gigabitsPerSecond(100.0);
    cfg.te.headroom = 0.9;
    cfg.te.usage_multiplier = 1.1;
    cfg.te.history = 4;
    cfg.te.min_priority_contended = 1;
    // Move-assigned: GCC 12 at -O3 reports a false -Wrestrict overlap
    // inside `= "C"`.
    cfg.te.route = std::string("C");
    return cfg;
}

/** Frontier metrics of one mode's run. */
struct ModeOutcome
{
    double energy = 0.0;          ///< J, carts + optical
    double jain = 0.0;            ///< weighted Jain over tenant goodput
    double interactive_p99 = 0.0; ///< s
    double bulk_goodput = 0.0;    ///< B/s over the makespan
};

ModeOutcome
outcomeOf(serve::ServingSim &sim)
{
    ModeOutcome o;
    o.energy = sim.totalEnergy();
    // Per-tenant goodput summed over substrates, weighted by the
    // arrival-mix weight (interactive 3 : bulk 1).
    std::vector<double> goodput;
    std::vector<double> weight;
    for (const exp::ClassSlo &row : sim.teTable()) {
        if (row.name == "interactive") {
            o.interactive_p99 = std::max(o.interactive_p99, row.p99);
        } else {
            o.bulk_goodput += row.goodput;
        }
        // Rows are tenant-major with the DHL row first, so "dhl"
        // opens a new tenant and "optical" folds into it.
        if (row.substrate == std::string("dhl")) {
            goodput.push_back(row.goodput);
            weight.push_back(row.name == "interactive" ? 3.0 : 1.0);
        } else {
            goodput.back() += row.goodput;
        }
    }
    o.jain = stats::jainFairnessIndex(goodput, weight);
    return o;
}

/** Per-(class, substrate) SLO rows for one TE mode. */
exp::Scenario
modeScenario(te::TeMode mode)
{
    exp::Scenario s;
    s.name = te::to_string(mode);
    s.separator_after = true;
    s.run = [mode](exp::ScenarioContext &) {
        serve::ServingSim sim(e20Config(mode));
        sim.run();
        exp::ScenarioRows rows;
        for (const exp::ClassSlo &c : sim.teTable()) {
            std::vector<std::string> row{te::to_string(mode)};
            for (std::string &cell : exp::classSloRow(c))
                row.push_back(std::move(cell));
            rows.push_back(std::move(row));
        }
        return rows;
    };
    return s;
}

/** The latency/energy/fairness frontier plus the dominance check. */
exp::Scenario
frontierScenario()
{
    exp::Scenario s;
    s.name = "frontier";
    s.run = [](exp::ScenarioContext &) {
        const te::TeMode modes[] = {te::TeMode::DhlOnly,
                                    te::TeMode::OpticalOnly,
                                    te::TeMode::Hybrid};
        ModeOutcome out[3];
        exp::ScenarioRows rows;
        for (int m = 0; m < 3; ++m) {
            serve::ServingSim sim(e20Config(modes[m]));
            sim.run();
            out[m] = outcomeOf(sim);
            rows.push_back({te::to_string(modes[m]),
                            u::formatEnergy(out[m].energy),
                            u::formatSig(out[m].jain, 6),
                            u::formatDuration(out[m].interactive_p99),
                            u::formatBandwidth(out[m].bulk_goodput), ""});
        }
        const bool faster_interactive =
            out[2].interactive_p99 < out[0].interactive_p99;
        const bool more_bulk = out[2].bulk_goodput > out[1].bulk_goodput;
        rows.push_back({"hybrid dominates", "", "",
                        faster_interactive ? "yes" : "NO",
                        more_bulk ? "yes" : "NO",
                        faster_interactive && more_bulk ? "PASS"
                                                        : "FAIL"});
        if (!(faster_interactive && more_bulk)) {
            std::cerr << "E20 dominance violated: hybrid interactive "
                         "P99 vs dhl-only: "
                      << out[2].interactive_p99 << " vs "
                      << out[0].interactive_p99
                      << "; hybrid bulk goodput vs optical-only: "
                      << out[2].bulk_goodput << " vs "
                      << out[1].bulk_goodput << "\n";
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
        bench::banner("E20 (beyond-paper)",
                      "hybrid DHL/optical traffic engineering: "
                      "per-class substrate SLOs and the "
                      "latency/energy/fairness frontier");
    }

    exp::Experiment e20("e20");
    e20.add(modeScenario(te::TeMode::DhlOnly));
    e20.add(modeScenario(te::TeMode::OpticalOnly));
    e20.add(modeScenario(te::TeMode::Hybrid));

    exp::ExperimentRunner runner(bench::runOptions(opts));
    const exp::ExperimentResult result = runner.run(e20);
    std::vector<std::string> headers{"Mode"};
    for (std::string &h : exp::classSloHeaders())
        headers.push_back(std::move(h));
    bench::emit(result, std::move(headers), opts);

    exp::Experiment frontier("e20-frontier");
    frontier.add(frontierScenario());
    const exp::ExperimentResult fresult = runner.run(frontier);
    if (!opts.csv)
        std::cout << "\n";
    bench::emit(fresult,
                {"Mode", "Energy", "Jain(goodput)", "InteractiveP99",
                 "BulkGoodput", "Dominance"},
                opts);

    if (!opts.csv) {
        std::cout << "\nGoodput is delivered bytes over the elapsed "
                     "makespan, so a mode that drains its backlog "
                     "slowly scores lower even when everything is "
                     "eventually served.  Jain is the weighted index "
                     "over per-tenant goodput (interactive 3 : bulk "
                     "1).  The dominance row asserts the hybrid "
                     "frontier point beats dhl-only on interactive "
                     "P99 and optical-only on bulk goodput.\n";
    }
    return 0;
}
