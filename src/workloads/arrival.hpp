/**
 * @file
 * The open-loop arrival process for the serving mode.
 *
 * The batch generators in workloads/generator.hpp turn (config,
 * duration, rng) into a complete time-sorted request list up front —
 * fine for replay studies, wrong for open-loop serving where load
 * changes over a run and the simulation consumes arrivals epoch by
 * epoch.  StagedArrivalProcess is the incremental counterpart: it owns
 * a time cursor and hands out the arrivals in (cursor, until] on each
 * take() call, so a serving loop can interleave injection with DES
 * epochs and a checkpoint can capture exactly where the arrival stream
 * stood.
 *
 * The profile is staged (ramp / hold / ramp ...), each stage a
 * nonhomogeneous Poisson process with a linear rate ramp and a
 * per-stage request-class mix.  Sampled by thinning against the
 * stage's max rate; at stage edges and take() boundaries the candidate
 * stream is discarded and redrawn, which is distributionally exact
 * because exponential gaps are memoryless.  Snapshot state is
 * therefore just (stage, cursor, rng) — no lookahead to serialise.
 * Both the checkpointed run and the uninterrupted oracle consume the
 * stream on the same epoch grid, so restored runs replay arrivals
 * byte-for-byte.
 */

#ifndef DHL_WORKLOADS_ARRIVAL_HPP
#define DHL_WORKLOADS_ARRIVAL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hpp"

namespace dhl {
namespace workloads {

/** One open-loop arrival handed to the serving layer. */
struct ArrivalEvent
{
    double at;       ///< Intended (open-loop) arrival time, s.
    double bytes;    ///< Requested transfer size.
    std::string tag; ///< Request-class tag (e.g. "bulk", "backup").
    int stage;       ///< Index of the profile stage it arrived in.
    int priority;    ///< Class priority (higher = keep under degrade).
};

/** One request class inside a stage's traffic mix. */
struct RequestClass
{
    std::string tag;     ///< Label carried on every arrival.
    double weight;       ///< Relative share of the stage's arrivals (> 0).
    double median_bytes; ///< Median request size (> 0).
    double sigma;        ///< Log-normal shape; 0 = constant size.
    int priority = 0;    ///< Higher survives degraded-mode admission.
};

/** One stage of a staged load profile. */
struct StageSpec
{
    std::string name;               ///< Stage label for SLO tables.
    double duration;                ///< Stage length, s (> 0).
    double start_rate;              ///< Arrival rate at stage start, req/s.
    double end_rate;                ///< Arrival rate at stage end, req/s.
    std::vector<RequestClass> mix;  ///< Traffic mix (non-empty).
};

/**
 * Staged nonhomogeneous Poisson arrivals: the open-loop load profile.
 *
 * Stage k spans [sum(d_0..d_{k-1}), sum(d_0..d_k)) with the arrival
 * rate ramping linearly from start_rate to end_rate across it.
 * Sampling is by thinning: candidate gaps are exponential at the
 * stage's max rate and each candidate at time t is accepted with
 * probability rate(t) / max_rate.  Per accepted arrival the draw order
 * is fixed — acceptance uniform, class-mix uniform, then (iff the
 * class has sigma > 0) one log-normal size — so the stream is a pure
 * function of (stages, seed, epoch grid).  Stages with zero max rate
 * are skipped without consuming randomness.  After the final stage the
 * process is exhausted.
 *
 * take(until) returns the arrivals with cursor < at <= until in time
 * order and advances the cursor to @p until; calls must be monotone.
 * A restored process continues the identical stream *provided take()
 * boundaries match the original run* (the serving loop's epoch grid
 * guarantees this).
 */
class StagedArrivalProcess
{
  public:
    StagedArrivalProcess(std::vector<StageSpec> stages, std::uint64_t seed);

    /** Arrivals in (cursor, until], advancing the cursor. */
    std::vector<ArrivalEvent> take(double until);

    /** Current cursor position, s. */
    double cursor() const { return cursor_; }

    /** True once no future arrival can ever be produced. */
    bool exhausted() const { return stage_ >= stages_.size(); }

    /** Save or restore the cursor and RNG position (sim/snapshot.hpp). */
    template <typename IO>
    void snapshot(IO &io);

    std::size_t stageCount() const { return stages_.size(); }
    const StageSpec &stage(std::size_t i) const { return stages_.at(i); }

    /** End of the whole profile, s. */
    double totalDuration() const { return total_duration_; }

    /** Stage index covering time @p t (last stage for t at/past end). */
    std::size_t stageAt(double t) const;

    /** Instantaneous arrival rate at time @p t, req/s. */
    double rateAt(double t) const;

    /** Arrivals emitted so far. */
    std::uint64_t emitted() const { return emitted_; }

  private:
    double stageStart(std::size_t k) const { return starts_[k]; }
    double stageEnd(std::size_t k) const { return starts_[k + 1]; }

    // dhl-analyze: transient(stages_, starts_, total_duration_): the
    // load profile — constructor input and values derived from it,
    // never mutated after construction
    std::vector<StageSpec> stages_;
    std::vector<double> starts_; ///< Cumulative stage starts + total end.
    double total_duration_;
    Rng rng_;
    std::size_t stage_ = 0;
    double cursor_ = 0.0;
    std::uint64_t emitted_ = 0;
};

/**
 * Parse a staged profile from its CLI form:
 * "name:duration:start_rate[:end_rate],..." — end_rate defaults to
 * start_rate (a hold stage).  Every stage gets the same single-class
 * mix built from @p median_bytes / @p sigma with tag "serve".
 * fatal()s on malformed specs.
 */
std::vector<StageSpec> parseStageSpec(const std::string &spec,
                                      double median_bytes, double sigma);

} // namespace workloads
} // namespace dhl

#endif // DHL_WORKLOADS_ARRIVAL_HPP
