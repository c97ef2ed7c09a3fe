/**
 * @file
 * Implementation of the replay helpers.
 */

#include "workloads/replay.hpp"

#include <algorithm>
#include <memory>

#include "common/logging.hpp"

namespace dhl {
namespace workloads {

namespace {

/** Shared serial-server loop for the analytical replays. */
template <typename ServiceFn>
ReplaySummary
replaySerial(const std::vector<TransferRequest> &requests, ServiceFn service)
{
    validateRequests(requests, "analytical replay");

    ReplaySummary s{};
    double free_at = 0.0;
    double last_finish = 0.0;
    double latency_sum = 0.0;
    for (const auto &req : requests) {
        const auto [duration, energy] = service(req.bytes);
        const double start = std::max(req.at, free_at);
        const double finish = start + duration;
        free_at = finish;
        last_finish = finish;
        s.busy_time += duration;
        s.energy += energy;
        s.bytes += req.bytes;
        ++s.requests;
        const double latency = finish - req.at;
        latency_sum += latency;
        s.max_latency = std::max(s.max_latency, latency);
    }
    s.makespan = last_finish - requests.front().at;
    s.mean_latency = latency_sum / static_cast<double>(s.requests);
    return s;
}

} // namespace

ReplaySummary
replayDhlAnalytical(const std::vector<TransferRequest> &requests,
                    const core::DhlConfig &cfg,
                    const core::BulkOptions &opts)
{
    const core::AnalyticalModel model(cfg);
    return replaySerial(requests, [&](double bytes) {
        const auto bulk = model.bulk(qty::Bytes{bytes}, opts);
        return std::pair<double, double>{bulk.total_time.value(),
                                         bulk.total_energy.value()};
    });
}

ReplaySummary
replayNetworkAnalytical(const std::vector<TransferRequest> &requests,
                        const network::Route &route, double links)
{
    const network::TransferModel model(route);
    return replaySerial(requests, [&](double bytes) {
        const auto r = model.transfer(qty::Bytes{bytes}, links);
        return std::pair<double, double>{r.time.value(), r.energy.value()};
    });
}

ReplaySummary
replayDhlSimulated(const std::vector<TransferRequest> &requests,
                   const core::DhlConfig &cfg, bool include_reads,
                   std::uint64_t seed)
{
    validateRequests(requests, "DES replay");
    const std::vector<TransferRequest> &sorted = requests;

    sim::Simulator sim;
    core::DhlController controller(sim, cfg, "dhl", seed);

    // Pre-allocate each request's carts in the library.
    std::vector<std::vector<core::CartId>> request_carts;
    const double capacity = cfg.cartCapacity().value();
    for (const auto &req : sorted) {
        std::vector<core::CartId> carts;
        for (const double load :
             core::splitIntoCarts(req.bytes, capacity, cfg.library_slots))
            carts.push_back(controller.addCart(load).id());
        request_carts.push_back(std::move(carts));
    }

    auto latency_sum = std::make_shared<double>(0.0);
    auto max_latency = std::make_shared<double>(0.0);
    auto last_finish = std::make_shared<double>(0.0);
    auto completed = std::make_shared<std::uint64_t>(0);

    // Each cart cycles open -> [read] -> close independently; the
    // request completes when its last cart is stored again.  This
    // works with any station count (carts queue for stations), unlike
    // a stage-everything-at-once policy.
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const double at = sorted[i].at;
        const auto &carts = request_carts[i];
        auto pending = std::make_shared<std::size_t>(carts.size());
        for (core::CartId id : carts) {
            sim.scheduleAt(at, [&, id, at, pending] {
                core::roundTrip(
                    controller, id, include_reads,
                    [&, at, pending](double) {
                        if (--*pending > 0)
                            return;
                        const double latency = sim.now() - at;
                        *latency_sum += latency;
                        *max_latency = std::max(*max_latency, latency);
                        *last_finish = sim.now();
                        ++*completed;
                    });
            });
        }
    }
    sim.run();
    panic_if(*completed != sorted.size(),
             "replay finished with requests unaccounted for");

    ReplaySummary s{};
    s.requests = *completed;
    s.bytes = totalBytes(sorted);
    // Tube occupancy: launches times the one-way travel time.
    s.busy_time = static_cast<double>(controller.launches()) *
                  controller.track().travelTime();
    s.makespan = *last_finish - sorted.front().at;
    s.energy = controller.totalEnergy();
    s.mean_latency = *latency_sum / static_cast<double>(s.requests);
    s.max_latency = *max_latency;
    return s;
}

} // namespace workloads
} // namespace dhl
