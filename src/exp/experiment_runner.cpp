/**
 * @file
 * Implementation of the experiment-execution layer.
 */

#include "exp/experiment_runner.hpp"

#include <chrono>
#include <utility>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace dhl {
namespace exp {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    const auto delta = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double>(delta).count();
}

/** FNV-1a over the scenario name; stable across platforms. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

//===========================================================================
// Experiment
//===========================================================================

Scenario &
Experiment::add(std::string name, ScenarioFn fn, bool separator_after)
{
    if (!fn)
        fatal("scenario '" + name + "' needs a body");
    scenarios_.push_back(
        Scenario{std::move(name), std::move(fn), separator_after});
    return scenarios_.back();
}

Scenario &
Experiment::add(Scenario scenario)
{
    if (!scenario.run)
        fatal("scenario '" + scenario.name + "' needs a body");
    scenarios_.push_back(std::move(scenario));
    return scenarios_.back();
}

//===========================================================================
// ExperimentResult
//===========================================================================

ScenarioRows
ExperimentResult::rows() const
{
    ScenarioRows all;
    for (const auto &s : scenarios)
        all.insert(all.end(), s.rows.begin(), s.rows.end());
    return all;
}

TextTable
ExperimentResult::table(std::vector<std::string> headers,
                        bool separators) const
{
    TextTable t(std::move(headers));
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        for (const auto &row : scenarios[i].rows)
            t.addRow(row);
        if (separators && scenarios[i].separator_after &&
            i + 1 < scenarios.size()) {
            t.addSeparator();
        }
    }
    return t;
}

TextTable
ExperimentResult::timingTable() const
{
    TextTable t({"Scenario", "Rows", "Wall (ms)"});
    for (const auto &s : scenarios) {
        t.addRow({s.name, std::to_string(s.rows.size()),
                  cell(units::toMilliseconds(s.wall_seconds), 4)});
    }
    return t;
}

//===========================================================================
// ExperimentRunner
//===========================================================================

struct ExperimentRunner::Impl
{
    explicit Impl(std::size_t jobs) : pool(jobs) {}
    ThreadPool pool;
};

ExperimentRunner::ExperimentRunner(RunOptions opts)
    : opts_(opts), impl_(std::make_unique<Impl>(opts.jobs))
{}

ExperimentRunner::~ExperimentRunner() = default;

std::size_t
ExperimentRunner::jobs() const
{
    return impl_->pool.size();
}

ExperimentResult
ExperimentRunner::run(const Experiment &experiment) const
{
    const auto &scenarios = experiment.scenarios();

    ExperimentResult result;
    result.name = experiment.name();
    result.jobs = jobs();
    result.scenarios.resize(scenarios.size());

    const auto start = std::chrono::steady_clock::now();
    impl_->pool.parallelFor(scenarios.size(), [&](std::size_t i) {
        const Scenario &scenario = scenarios[i];
        const std::uint64_t seed =
            scenarioSeed(opts_.seed, i, scenario.name);
        ScenarioContext ctx{i, seed, Rng(seed)};

        ScenarioOutcome &out = result.scenarios[i];
        out.name = scenario.name;
        out.separator_after = scenario.separator_after;
        const auto s0 = std::chrono::steady_clock::now();
        out.rows = scenario.run(ctx);
        out.wall_seconds = secondsSince(s0);
    });
    result.wall_seconds = secondsSince(start);
    return result;
}

std::uint64_t
scenarioSeed(std::uint64_t experiment_seed, std::size_t index,
             const std::string &name)
{
    return deriveSeed(experiment_seed,
                      fnv1a(name) ^ static_cast<std::uint64_t>(index));
}

} // namespace exp
} // namespace dhl
