/**
 * @file
 * Implementation of the workload generators.
 */

#include "workloads/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/logging.hpp"

namespace dhl {
namespace workloads {

void
sortByArrival(std::vector<TransferRequest> &requests)
{
    std::stable_sort(requests.begin(), requests.end(),
                     [](const TransferRequest &a, const TransferRequest &b) {
                         return a.at < b.at;
                     });
}

void
validateRequests(const std::vector<TransferRequest> &requests,
                 const char *what)
{
    const std::string who(what);
    if (requests.empty())
        fatal(who + ": empty request list");
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto &r = requests[i];
        const std::string at_req = ": request " + std::to_string(i);
        if (!std::isfinite(r.at) || r.at < 0.0)
            fatal(who + at_req + " has invalid arrival time " +
                  std::to_string(r.at));
        if (!std::isfinite(r.bytes) || r.bytes <= 0.0)
            fatal(who + at_req + " has invalid size " +
                  std::to_string(r.bytes));
        if (i > 0 && r.at < requests[i - 1].at)
            fatal(who + at_req + " arrives at " + std::to_string(r.at) +
                  ", before request " + std::to_string(i - 1) + " at " +
                  std::to_string(requests[i - 1].at) +
                  " (timestamps must be sorted)");
    }
}

double
totalBytes(const std::vector<TransferRequest> &requests)
{
    double total = 0.0;
    for (const auto &r : requests)
        total += r.bytes;
    return total;
}

//===========================================================================
// PeriodicBackupGenerator
//===========================================================================

PeriodicBackupGenerator::PeriodicBackupGenerator(double period,
                                                 double bytes,
                                                 double jitter_frac)
    : period_(period), bytes_(bytes), jitter_frac_(jitter_frac)
{
    fatal_if(!(period > 0.0), "period must be positive");
    fatal_if(!(bytes > 0.0), "backup size must be positive");
    fatal_if(jitter_frac < 0.0 || jitter_frac >= 1.0,
             "jitter fraction must be in [0, 1)");
}

std::vector<TransferRequest>
PeriodicBackupGenerator::generate(double duration, Rng &rng) const
{
    fatal_if(!(duration > 0.0), "duration must be positive");
    std::vector<TransferRequest> out;
    // Integer induction with multiplication: a floating-point counter
    // (base += period_) accumulates rounding error across iterations.
    for (std::uint64_t i = 0;; ++i) {
        const double base = static_cast<double>(i) * period_;
        if (base >= duration)
            break;
        double at = base;
        if (jitter_frac_ > 0.0)
            at += rng.uniform(0.0, jitter_frac_ * period_);
        if (at < duration)
            out.push_back(TransferRequest{at, bytes_, "backup"});
    }
    sortByArrival(out);
    return out;
}

//===========================================================================
// BurstSourceGenerator
//===========================================================================

BurstSourceGenerator::BurstSourceGenerator(double rate,
                                           double burst_duration,
                                           double period)
    : rate_(rate), burst_duration_(burst_duration), period_(period)
{
    fatal_if(!(rate > 0.0), "burst rate must be positive");
    fatal_if(!(burst_duration > 0.0),
             "burst duration must be positive");
    fatal_if(period < burst_duration,
             "period must cover the burst duration");
}

std::vector<TransferRequest>
BurstSourceGenerator::generate(double duration, Rng &rng) const
{
    (void)rng; // deterministic source
    fatal_if(!(duration > 0.0), "duration must be positive");
    std::vector<TransferRequest> out;
    for (std::uint64_t i = 0;; ++i) {
        const double t = static_cast<double>(i) * period_;
        if (t >= duration)
            break;
        // The burst's data is available once the fill completes.
        const double ready = t + burst_duration_;
        if (ready < duration)
            out.push_back(TransferRequest{ready, burstBytes(), "burst"});
    }
    return out;
}

//===========================================================================
// ZipfDatasetGenerator
//===========================================================================

ZipfDatasetGenerator::ZipfDatasetGenerator(std::vector<Dataset> datasets,
                                           double mean_interarrival,
                                           double zipf_exponent)
    : datasets_(std::move(datasets)),
      mean_interarrival_(mean_interarrival),
      zipf_(datasets_.empty() ? 1 : datasets_.size(), zipf_exponent)
{
    fatal_if(datasets_.empty(), "need at least one dataset");
    fatal_if(!(mean_interarrival > 0.0),
             "mean interarrival must be positive");
    for (const auto &d : datasets_)
        fatal_if(!(d.bytes > 0.0), "dataset sizes must be positive");
}

std::vector<TransferRequest>
ZipfDatasetGenerator::generate(double duration, Rng &rng) const
{
    fatal_if(!(duration > 0.0), "duration must be positive");
    std::vector<TransferRequest> out;
    double t = rng.exponential(mean_interarrival_);
    while (t < duration) {
        const auto rank = zipf_.sample(rng);
        const auto &d = datasets_[rank];
        out.push_back(TransferRequest{t, d.bytes, d.name});
        t += rng.exponential(mean_interarrival_);
    }
    return out;
}

} // namespace workloads
} // namespace dhl
