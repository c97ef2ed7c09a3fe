/**
 * @file
 * Experiment E8 — regenerates the paper's §V-E minimum-specification
 * analysis: the smallest dataset and distance at which a DHL beats a
 * single optical link, including the paper's 360 GB / 10 m/s / 10 m
 * anchor point, plus a break-even frontier sweep.
 *
 * One runner scenario per track length (each sweeping all speeds),
 * evaluated across --jobs cores; row groups per length as before.
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/units.hpp"
#include "dhl/comparison.hpp"

using namespace dhl;
using namespace dhl::core;
namespace u = dhl::units;

int
main(int argc, char **argv)
{
    const bench::Options opts = bench::parseArgs(argc, argv);
    if (!opts.csv) {
        bench::banner("§V-E",
                      "minimum specifications for DHL to outperform a "
                      "400 Gbit/s optical link (A0)");
    }

    //----------------------------------------------------------------
    // The paper's anchor: a 10 m DHL at 10 m/s.
    //----------------------------------------------------------------
    if (!opts.csv) {
        DhlConfig tiny = makeConfig(10.0, 10.0, 32);
        const AnalyticalModel m(tiny);
        const auto lm = m.launch();
        const auto be = breakEven(tiny, network::findRoute("A0"));
        std::cout << "\nAnchor (paper: 360 GB carts, 10 m/s, 10 m, "
                  << "7.2 s one-way, 144 J on A0):\n"
                  << "  one-way trip time: "
                  << cell(lm.trip_time.value(), 4)
                  << " s (paper: 7.2 s)\n"
                  << "  launch energy: " << cell(lm.energy.value(), 3)
                  << " J (minuscule vs the link's "
                  << cell((network::findRoute("A0").power() *
                           lm.trip_time)
                              .value(),
                          4)
                  << " J over the same window; paper: 144 J)\n"
                  << "  break-even dataset (time): "
                  << u::formatBytes(be.bytes_for_time)
                  << " (paper: ~360 GB)\n"
                  << "  break-even dataset (energy): "
                  << u::formatBytes(be.bytes_for_energy) << "\n"
                  << "  => DHL wins from "
                  << u::formatBytes(be.bytes_to_win())
                  << " over >= 10 m\n";
    }

    //----------------------------------------------------------------
    // The frontier: sweep distance and speed, one scenario per length.
    //----------------------------------------------------------------
    const std::vector<double> lengths = {10, 20, 50, 100, 200, 500, 1000};
    const std::vector<double> speeds = {10, 20, 50, 100, 200, 300};

    exp::Experiment frontier("sec5e_crossover");
    for (const double length : lengths) {
        // Appended, not "L" + cell(...): GCC 12 at -O3 reports a false
        // -Wrestrict overlap inside that operator+.
        std::string name = "L";
        name += cell(length, 5);
        frontier.add(
            name,
            [length, speeds](exp::ScenarioContext &) -> exp::ScenarioRows {
                exp::ScenarioRows rows;
                for (const auto &p : crossoverSweep({length}, speeds)) {
                    rows.push_back(
                        {cell(p.track_length.value(), 5),
                         cell(p.max_speed.value(), 4),
                         cell(p.trip_time.value(), 4),
                         cell(p.launch_energy.value(), 4),
                         cell(p.vs_a0.bytes_for_time.value() / 1e9, 4),
                         cell(p.vs_a0.bytes_for_energy.value() / 1e9,
                              4),
                         cell(p.vs_a0.bytes_to_win().value() / 1e9,
                              4)});
                }
                return rows;
            },
            true);
    }

    const exp::ExperimentRunner runner(bench::runOptions(opts));
    const exp::ExperimentResult result = runner.run(frontier);
    bench::emit(result,
                {"Length (m)", "Speed (m/s)", "Trip (s)", "Launch (J)",
                 "Break-even time (GB)", "Break-even energy (GB)",
                 "DHL wins from (GB)"},
                opts);

    if (!opts.csv) {
        std::cout << "\nReading the frontier: the docking floor (6 s) "
                  << "dominates short tracks, so the time break-even "
                  << "hovers near 6 s x 50 GB/s = 300 GB and grows with "
                  << "distance/speed; the energy break-even only binds "
                  << "for fast, heavy launches.\n";
    }
    return 0;
}
