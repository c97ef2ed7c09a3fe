/**
 * @file
 * Unit tests for the experiment-execution layer: scenario seeds,
 * ordering, exception propagation, and — the determinism contract — a
 * serial vs. parallel run of a small Figure 6 sweep rendering
 * byte-identical tables.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "exp/experiment_runner.hpp"
#include "mlsim/sweep.hpp"

using namespace dhl;
using namespace dhl::exp;

namespace {

/** Render a result table to a string. */
std::string
renderText(const ExperimentResult &result,
           std::vector<std::string> headers, bool separators = true)
{
    std::ostringstream os;
    result.table(std::move(headers), separators).print(os);
    return os.str();
}

std::string
renderCsv(const ExperimentResult &result,
          std::vector<std::string> headers)
{
    std::ostringstream os;
    result.table(std::move(headers), false).printCsv(os);
    return os.str();
}

/** The small Figure 6 grid used by the determinism tests. */
Experiment
smallFig6()
{
    const mlsim::TrainingWorkload workload = mlsim::dlrmWorkload();
    Experiment e("small_fig6");
    e.add(mlsim::dhlSweepScenario(workload, core::makeConfig(200, 500, 32),
                                  10e3))
        .separator_after = true;
    e.add(mlsim::dhlSweepScenario(workload, core::makeConfig(100, 500, 32),
                                  10e3))
        .separator_after = true;
    for (const char *name : {"A0", "A1", "A2"}) {
        e.add(mlsim::opticalSweepScenario(
                  workload, network::findRoute(name), 1e3, 10e3, 5))
            .separator_after = true;
    }
    return e;
}

} // namespace

TEST(ScenarioSeedTest, DependsOnIndexAndNameOnly)
{
    const auto s = scenarioSeed(42, 3, "alpha");
    EXPECT_EQ(s, scenarioSeed(42, 3, "alpha"));
    EXPECT_NE(s, scenarioSeed(42, 4, "alpha"));
    EXPECT_NE(s, scenarioSeed(42, 3, "beta"));
    EXPECT_NE(s, scenarioSeed(43, 3, "alpha"));
}

TEST(ScenarioSeedTest, DerivedRngIsIndependentOfJobs)
{
    // A scenario that draws from its context Rng must see the same
    // stream whether the experiment runs serially or in parallel.
    auto build = [] {
        Experiment e("rng_probe");
        for (int s = 0; s < 6; ++s) {
            e.add("probe" + std::to_string(s),
                  [](ScenarioContext &ctx) -> ScenarioRows {
                      std::ostringstream os;
                      os << ctx.rng.next() << ":" << ctx.rng.next();
                      return {{os.str()}};
                  });
        }
        return e;
    };

    const ExperimentRunner serial(RunOptions{1, 7});
    const ExperimentRunner parallel(RunOptions{4, 7});
    const auto a = serial.run(build());
    const auto b = parallel.run(build());
    ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
    for (std::size_t i = 0; i < a.scenarios.size(); ++i)
        EXPECT_EQ(a.scenarios[i].rows, b.scenarios[i].rows);
}

TEST(ExperimentRunnerTest, OutcomesKeepDeclarationOrder)
{
    Experiment e("ordered");
    for (int i = 0; i < 20; ++i) {
        e.add(std::string("s").append(std::to_string(i)),
              [i](ScenarioContext &ctx) -> ScenarioRows {
                  EXPECT_EQ(ctx.index, static_cast<std::size_t>(i));
                  return {{std::to_string(i)}};
              });
    }
    const ExperimentRunner runner(RunOptions{4, 0});
    const auto result = runner.run(e);
    ASSERT_EQ(result.scenarios.size(), 20u);
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(result.scenarios[static_cast<std::size_t>(i)].name,
                  std::string("s").append(std::to_string(i)));
        EXPECT_EQ(result.scenarios[static_cast<std::size_t>(i)].rows,
                  ScenarioRows{{std::to_string(i)}});
    }
    EXPECT_EQ(result.rows().size(), 20u);
}

TEST(ExperimentRunnerTest, ScenarioExceptionPropagates)
{
    Experiment e("failing");
    e.add("ok", [](ScenarioContext &) -> ScenarioRows { return {}; });
    e.add("bad", [](ScenarioContext &) -> ScenarioRows {
        fatal("scenario rejects its config");
    });
    const ExperimentRunner runner(RunOptions{2, 0});
    EXPECT_THROW(runner.run(e), FatalError);
}

TEST(ExperimentRunnerTest, JobsResolveAgainstHardware)
{
    const ExperimentRunner detect{RunOptions{0, 0}};
    EXPECT_EQ(detect.jobs(), ThreadPool::hardwareConcurrency());
    const ExperimentRunner serial{RunOptions{1, 0}};
    EXPECT_EQ(serial.jobs(), 1u);
}

TEST(ExperimentRunnerTest, RecordsWallTimes)
{
    Experiment e("timed");
    e.add("noop", [](ScenarioContext &) -> ScenarioRows { return {}; });
    const ExperimentRunner runner(RunOptions{1, 0});
    const auto result = runner.run(e);
    EXPECT_GE(result.scenarios[0].wall_seconds, 0.0);
    EXPECT_GE(result.wall_seconds, result.scenarios[0].wall_seconds);
    EXPECT_EQ(result.timingTable().numRows(), 1u);
}

TEST(ExperimentRunnerDeterminismTest, SerialAndParallelTablesAreIdentical)
{
    // The acceptance contract: a --jobs 1 run and a --jobs N run of the
    // same experiment render byte-identical tables (text and CSV).
    const ExperimentRunner serial(RunOptions{1, 0});
    const ExperimentRunner parallel(RunOptions{4, 0});

    const auto a = serial.run(smallFig6());
    const auto b = parallel.run(smallFig6());

    EXPECT_EQ(renderText(a, mlsim::sweepHeaders()),
              renderText(b, mlsim::sweepHeaders()));
    EXPECT_EQ(renderCsv(a, mlsim::sweepHeaders()),
              renderCsv(b, mlsim::sweepHeaders()));
}

TEST(ExperimentRunnerDeterminismTest, RepeatedParallelRunsAreStable)
{
    const ExperimentRunner runner(RunOptions{4, 0});
    const auto first = renderCsv(runner.run(smallFig6()),
                                 mlsim::sweepHeaders());
    for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(renderCsv(runner.run(smallFig6()),
                            mlsim::sweepHeaders()),
                  first);
    }
}
