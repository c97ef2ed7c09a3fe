#include "te/demand.hpp"

#include <algorithm>
#include <string>

#include "common/logging.hpp"
#include "sim/snapshot.hpp"

namespace dhl {
namespace te {

DemandEstimator::DemandEstimator(const DemandConfig &cfg, std::size_t series)
    : cfg_(cfg), history_(series), next_(series, 0)
{
    fatal_if(cfg_.history < 1, "te: demand history must be >= 1");
    fatal_if(cfg_.multiplier <= 0.0, "te: demand multiplier must be > 0");
}

void DemandEstimator::record(std::size_t series, double usage)
{
    fatal_if(series >= history_.size(), "te: demand series out of range");
    fatal_if(usage < 0.0, "te: usage rate must be >= 0");
    auto &ring = history_[series];
    if (ring.size() < cfg_.history) {
        ring.push_back(usage);
    } else {
        ring[next_[series]] = usage;
        next_[series] = (next_[series] + 1) % cfg_.history;
    }
}

double DemandEstimator::estimate(std::size_t series) const
{
    fatal_if(series >= history_.size(), "te: demand series out of range");
    const auto &ring = history_[series];
    if (ring.empty())
        return 0.0;
    return cfg_.multiplier * *std::max_element(ring.begin(), ring.end());
}

template <typename IO>
void DemandEstimator::snapshot(IO &io)
{
    for (std::size_t s = 0; s < history_.size(); ++s) {
        sim::SnapshotScope scope(io, sim::IndexedKey("d", s));
        std::uint64_t n = history_[s].size();
        io.field("n", n);
        fatal_if(IO::loading && n > cfg_.history,
                 "te: snapshot history exceeds window");
        if constexpr (IO::loading)
            history_[s].assign(n, 0.0);
        io.field("next", next_[s]);
        for (std::size_t i = 0; i < n; ++i)
            io.field(sim::IndexedKey("h", i), history_[s][i]);
    }
}

template void DemandEstimator::snapshot(sim::SnapshotWriter &);
template void DemandEstimator::snapshot(sim::SnapshotReader &);

} // namespace te
} // namespace dhl
