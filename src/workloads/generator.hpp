/**
 * @file
 * Synthetic bulk-transfer workload generators for the paper's three
 * application domains (§II-D):
 *
 *  - PeriodicBackupGenerator: fixed-size backups on a fixed period
 *                            with optional jitter (§II-D2).
 *  - BurstSourceGenerator:   a detector-style source producing
 *                            rate x burst_duration bytes every period
 *                            (§II-D1, LHC fills).
 *  - ZipfDatasetGenerator:   repeated accesses over a fixed dataset
 *                            population with Zipf popularity (§II-D3:
 *                            the same training sets reused for many
 *                            models).
 *
 * Generators are pure: they turn (config, duration, rng) into a
 * time-sorted request list that replay helpers or the DES can consume.
 */

#ifndef DHL_WORKLOADS_GENERATOR_HPP
#define DHL_WORKLOADS_GENERATOR_HPP

#include <string>
#include <vector>

#include "common/random.hpp"

namespace dhl {
namespace workloads {

/** One bulk-transfer request. */
struct TransferRequest
{
    double at;        ///< Arrival time, s.
    double bytes;     ///< Transfer size.
    std::string tag;  ///< Origin label ("backup", "burst", dataset...).
};

/** Sort requests by arrival time (stable). */
void sortByArrival(std::vector<TransferRequest> &requests);

/**
 * Validate a request list before replay or open-loop injection:
 * non-empty, finite non-negative arrival times, finite positive sizes,
 * and sorted by arrival.  fatal()s naming @p what and the offending
 * index — a trace with out-of-order timestamps is a malformed input to
 * diagnose at the source, not something to silently re-sort.
 */
void validateRequests(const std::vector<TransferRequest> &requests,
                      const char *what);

/** Sum of request bytes. */
double totalBytes(const std::vector<TransferRequest> &requests);

/** Fixed-size backups on a fixed period. */
class PeriodicBackupGenerator
{
  public:
    /**
     * @param period        Gap between backups, s (> 0).
     * @param bytes         Backup size (> 0).
     * @param jitter_frac   Uniform jitter as a fraction of the period
     *                      ([0, 1)).
     */
    PeriodicBackupGenerator(double period, double bytes,
                            double jitter_frac = 0.0);

    std::vector<TransferRequest> generate(double duration, Rng &rng) const;

  private:
    double period_;
    double bytes_;
    double jitter_frac_;
};

/** Detector bursts: rate x burst_duration bytes, every period. */
class BurstSourceGenerator
{
  public:
    /**
     * @param rate           Burst production rate, bytes/s (> 0).
     * @param burst_duration Length of each burst, s (> 0).
     * @param period         Gap between burst starts, s (>= burst).
     */
    BurstSourceGenerator(double rate, double burst_duration,
                         double period);

    std::vector<TransferRequest> generate(double duration, Rng &rng) const;

    /** Bytes per burst. */
    double burstBytes() const { return rate_ * burst_duration_; }

  private:
    double rate_;
    double burst_duration_;
    double period_;
};

/** Zipf-popular accesses over a fixed dataset population. */
class ZipfDatasetGenerator
{
  public:
    /** A member of the dataset population. */
    struct Dataset
    {
        std::string name;
        double bytes;
    };

    /**
     * @param datasets          Population, most-popular-rank order.
     * @param mean_interarrival Mean gap between accesses, s (> 0).
     * @param zipf_exponent     Popularity skew (>= 0).
     */
    ZipfDatasetGenerator(std::vector<Dataset> datasets,
                         double mean_interarrival,
                         double zipf_exponent = 1.0);

    std::vector<TransferRequest> generate(double duration, Rng &rng) const;

    const std::vector<Dataset> &datasets() const { return datasets_; }

  private:
    std::vector<Dataset> datasets_;
    double mean_interarrival_;
    ZipfTable zipf_;
};

} // namespace workloads
} // namespace dhl

#endif // DHL_WORKLOADS_GENERATOR_HPP
