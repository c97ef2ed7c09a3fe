/**
 * @file
 * The serving trip path allocates nothing in steady state.
 *
 * A cart round trip fires eight events (undock, depart, arrive and dock
 * each way) plus the request's admission.  Per-cart trip records in the
 * controller and the serve layer, continuations that capture only
 * {this, index}, in-place event firing and the in-order arrival lane
 * keep every one of them off the heap.  This binary replaces the global
 * operator new with a counter, warms a small faulted fleet up, and then
 * requires at most 0.05 allocations per fired event over the following
 * epochs (what is left is amortised growth: SLO sample vectors, the
 * admission deque's blocks and each epoch's arrival batch).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <sstream>
#include <string>

#include "common/units.hpp"
#include "serve/serving.hpp"

namespace {

std::atomic<std::int64_t> g_allocs{0};

} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace dhl;
namespace u = dhl::units;

/** A four-track fleet near capacity with faults, plants and a planned
 *  window: the serve_soak shape at a test's size. */
serve::ServeConfig
soakLikeConfig()
{
    serve::ServeConfig cfg;
    cfg.dhl = core::defaultConfig();
    cfg.dhl.docking_stations = 2;
    cfg.tracks = 4;
    cfg.seed = 3;
    cfg.epoch = 600.0;
    cfg.carts_per_track = 4;
    cfg.max_pending = 256;
    cfg.policy = ops::DispatchPolicy::AvailabilityAware;
    const std::vector<workloads::RequestClass> mix = {
        {"bulk", 3.0, u::gigabytes(64.0), 0.8, 0},
        {"urgent", 1.0, u::gigabytes(16.0), 0.8, 1},
    };
    cfg.stages = {
        workloads::StageSpec{"ramp", 3600.0, 0.0, 0.15, mix},
        workloads::StageSpec{"peak", 3600.0, 0.15, 0.15, mix},
        workloads::StageSpec{"cool", 3600.0, 0.15, 0.0, mix},
    };
    cfg.faults.enabled = true;
    cfg.faults.seed = 11;
    cfg.faults.lim_mtbf = 48.0;
    cfg.faults.lim_mttr = 0.5;
    cfg.faults.track_mtbf = 96.0;
    cfg.faults.track_mttr = 1.0;
    cfg.faults.station_mtbf = 72.0;
    cfg.faults.station_mttr = 0.25;
    cfg.faults.cart_repair_per_trip = 1e-3;
    cfg.faults.cart_repair_hours = 0.25;
    cfg.domains.enabled = true;
    cfg.domains.domain_size = 2;
    cfg.domains.plant_mtbf = 24.0;
    cfg.domains.plant_mttr = 0.5;
    cfg.domains.seed = 13;
    cfg.maintenance.windows.push_back({1800.0, 900.0, 3600.0, 1});
    return cfg;
}

/** The kernel's events_executed, read from the stats dump. */
double
eventsExecuted(serve::ServingSim &sim)
{
    std::ostringstream os;
    sim.dumpStats(os);
    std::istringstream is(os.str());
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string name;
        double v = 0.0;
        if (ls >> name >> v && name == "kernel.events_executed")
            return v;
    }
    return -1.0;
}

} // namespace

TEST(ServeAllocations, TripPathAllocatesNothingInSteadyState)
{
    serve::ServingSim sim(soakLikeConfig());
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(sim.stepEpoch());

    const double events_before = eventsExecuted(sim);
    const std::int64_t allocs_before = g_allocs.load();
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(sim.stepEpoch());
    const std::int64_t allocs = g_allocs.load() - allocs_before;
    const double events = eventsExecuted(sim) - events_before;

    ASSERT_GT(events, 1000.0);
    ASSERT_GT(sim.totalServed(), 100u);
    const double per_event = static_cast<double>(allocs) / events;
    std::cout << "allocations per fired event: " << per_event << " ("
              << allocs << " over " << events << " events)\n";
    EXPECT_LE(per_event, 0.05);
}
