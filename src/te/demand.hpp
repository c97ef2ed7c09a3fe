/**
 * @file
 * Per-series demand estimation for the traffic-engineering controller.
 *
 * A DemandEstimator tracks the observed usage rate of each series (a
 * tenant flow-group) over a bounded history window and projects demand
 * as `multiplier * max(history)` — the heyp-agents usage-estimator
 * shape: usage understates demand whenever the allocator is already
 * throttling, so the controller head-rooms the observation rather than
 * trusting it.  Taking the window max (not the mean) makes the
 * estimate sticky across short quiet control epochs, which keeps the
 * allocation from oscillating on bursty arrivals.
 *
 * All state is plain data and snapshots exactly (sim/snapshot), so a
 * restored controller re-estimates identical demands.
 */

#ifndef DHL_TE_DEMAND_HPP
#define DHL_TE_DEMAND_HPP

#include <cstddef>
#include <vector>

namespace dhl {
namespace te {

/** Demand-estimation knobs. */
struct DemandConfig
{
    /** Retained usage observations per series (>= 1). */
    std::size_t history = 8;

    /** Usage -> demand projection factor (> 0). */
    double multiplier = 1.1;
};

/** Bounded-history usage -> demand estimator over a fixed series set. */
class DemandEstimator
{
  public:
    /** @param cfg     Estimation knobs (validated here).
     *  @param series  Number of tracked series (fixed for life). */
    DemandEstimator(const DemandConfig &cfg, std::size_t series);

    std::size_t numSeries() const { return history_.size(); }

    /** Record one usage observation (bytes/s, >= 0) for @p series. */
    void record(std::size_t series, double usage);

    /** Current demand estimate: multiplier * max over the history
     *  window; 0 while the window is empty. */
    double estimate(std::size_t series) const;

    /** Save or restore (sim/snapshot.hpp; doubles as bit patterns). */
    template <typename IO>
    void snapshot(IO &io);

  private:
    // dhl-analyze: transient(cfg_): constructor input; restore
    // validates the checkpointed ring sizes against it
    DemandConfig cfg_;
    /** Per-series ring of the last `cfg_.history` observations. */
    std::vector<std::vector<double>> history_;
    /** Per-series next ring slot to overwrite. */
    std::vector<std::size_t> next_;
};

} // namespace te
} // namespace dhl

#endif // DHL_TE_DEMAND_HPP
