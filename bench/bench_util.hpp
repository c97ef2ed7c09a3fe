/**
 * @file
 * Shared helpers for the table-regeneration harness: flag parsing
 * (--csv, --jobs N, --seed N, --experiment NAME), a uniform header
 * banner, and table emission.
 *
 * All row formatting lives with the models (e.g. mlsim::sweepRows) or
 * inside the bench's scenario closures; the benches build scenario
 * lists, submit them to an exp::ExperimentRunner, and emit the
 * runner's result table here.  Serial (--jobs 1) and parallel runs
 * print byte-identical tables.
 */

#ifndef DHL_BENCH_BENCH_UTIL_HPP
#define DHL_BENCH_BENCH_UTIL_HPP

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/logging.hpp"
#include "common/table.hpp"
#include "exp/experiment_runner.hpp"

namespace dhl {
namespace bench {

/** Parsed harness options shared by every table regenerator. */
struct Options
{
    bool csv = false;      ///< Emit CSV instead of the boxed table.
    std::size_t jobs = 0;  ///< Scenario parallelism; 0 = all cores.
    std::uint64_t seed = 0; ///< Master seed; 0 = the bench's default.
    std::string experiment; ///< Experiment selector; empty = all.
};

/** Parse an integer flag operand; prints an error and exits on
 *  garbage. */
inline std::uint64_t
parseCount(const char *flag, const char *value)
{
    bool numeric = *value != '\0';
    for (const char *p = value; numeric && *p; ++p)
        numeric = *p >= '0' && *p <= '9';
    if (!numeric) {
        std::cerr << "error: " << flag << " expects an integer, got '"
                  << value << "'\n";
        std::exit(2);
    }
    return std::stoull(value);
}

/** Parse a --jobs operand; prints an error and exits on garbage. */
inline std::size_t
parseJobs(const char *value)
{
    return static_cast<std::size_t>(parseCount("--jobs", value));
}

/** Parse --csv, --jobs N / --jobs=N, --seed N / --seed=N,
 *  and --experiment NAME / --experiment=NAME.  Any other `--` flag
 *  is an error (exit 2): a typo silently ignored here would
 *  regenerate the wrong table. */
inline Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--csv") == 0) {
            opts.csv = true;
        } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
            opts.jobs = parseJobs(argv[++i]);
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            opts.jobs = parseJobs(arg + 7);
        } else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
            opts.seed = parseCount("--seed", argv[++i]);
        } else if (std::strncmp(arg, "--seed=", 7) == 0) {
            opts.seed = parseCount("--seed", arg + 7);
        } else if (std::strcmp(arg, "--experiment") == 0 &&
                   i + 1 < argc) {
            opts.experiment = argv[++i];
        } else if (std::strncmp(arg, "--experiment=", 13) == 0) {
            opts.experiment = arg + 13;
        } else if (std::strncmp(arg, "--", 2) == 0) {
            std::cerr << "error: unknown flag '" << arg << "'\n";
            std::exit(2);
        }
    }
    return opts;
}

/** The bench's seed: the --seed flag if given, else @p fallback.  The
 *  fallback preserves each bench's historical default stream, so an
 *  unflagged run stays byte-identical to pre-flag output. */
inline std::uint64_t
seedOr(const Options &opts, std::uint64_t fallback)
{
    return opts.seed != 0 ? opts.seed : fallback;
}

/** True if the user asked for CSV output (shorthand for parseArgs). */
inline bool
wantCsv(int argc, char **argv)
{
    return parseArgs(argc, argv).csv;
}

/** Runner options for the parsed flags. */
inline exp::RunOptions
runOptions(const Options &opts)
{
    exp::RunOptions ro;
    ro.jobs = opts.jobs;
    return ro;
}

/** Print a banner naming the regenerated paper artefact. */
inline void
banner(const std::string &artefact, const std::string &description)
{
    std::cout << "==========================================================="
                 "=====================\n"
              << artefact << " — " << description << "\n"
              << "Paper: \"The Case For Data Centre Hyperloops\" (ISCA "
                 "2024)\n"
              << "==========================================================="
                 "=====================\n";
}

/** Emit a table as text or CSV per the flag. */
inline void
emit(const TextTable &table, bool csv)
{
    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
}

/**
 * Emit an experiment result: render through common/table with group
 * separators in text mode (CSV skips them, as before).
 */
inline void
emit(const exp::ExperimentResult &result,
     std::vector<std::string> headers, const Options &opts)
{
    emit(result.table(std::move(headers), !opts.csv), opts.csv);
}

} // namespace bench
} // namespace dhl

#endif // DHL_BENCH_BENCH_UTIL_HPP
