/**
 * @file
 * Sharded-fleet microbenchmarks: throughput of the parallel DES paths
 * behind the --des-shards knob, with byte-identity to the serial path
 * asserted inside the benchmark itself.
 *
 * BM_FleetParallel/<shards> runs the same RoundRobin bulk transfer on
 * an 8-track fleet (4 two-track plant domains, faults + maintenance +
 * correlated plants all on) partitioned onto <shards> simulators, and
 * reports fleet DES events/s.  Before timing, the run's result fields
 * are digested and compared against the 1-shard digest — a sharded
 * run that drifts from the serial loop aborts the benchmark rather
 * than publishing a wrong number.
 *
 * tools/run_fleet_bench.py wraps this binary and emits BENCH_fleet.json
 * (best-of-N events/s by shard count plus the N-vs-1 speedups).  On a
 * single-core host the speedup is ~1.0x by construction; the identity
 * assertions and the determinism test suite are the load-bearing
 * results there.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "ops/fleet_ops.hpp"
#include "sim/simulator.hpp"

using namespace dhl;

namespace {

//===========================================================================
// Sharded fleet: RoundRobin bulk transfer under the full ops stack
//===========================================================================

constexpr std::size_t kTracks = 8;
constexpr std::uint64_t kCarts = 64;

ops::OpsConfig
fleetOps(std::size_t des_shards)
{
    ops::OpsConfig oc;
    oc.dispatch.policy = ops::DispatchPolicy::RoundRobin;
    oc.des_shards = des_shards;
    oc.domains.enabled = true;
    oc.domains.domain_size = 2;
    oc.domains.plant_mtbf = 0.05;
    oc.domains.plant_mttr = 0.01;
    oc.domains.seed = 13;
    oc.maintenance.windows.push_back({20.0, 30.0, 0.0, 5});
    oc.faults.enabled = true;
    oc.faults.seed = 13;
    oc.faults.lim_mtbf = 0.5;
    oc.faults.lim_mttr = 0.05;
    oc.faults.track_mtbf = 1.0;
    oc.faults.track_mttr = 0.1;
    oc.faults.station_mtbf = 0.8;
    oc.faults.station_mttr = 0.02;
    oc.faults.cart_repair_per_trip = 1e-2;
    oc.faults.cart_repair_hours = 0.02;
    return oc;
}

/** Everything a drifting shard map could perturb, serialised with full
 *  precision (hexfloat for the reals). */
std::string
fleetDigest(const ops::OpsRunResult &r)
{
    std::ostringstream os;
    os << std::hexfloat << r.base.total_time << "|"
       << r.base.effective_bandwidth << "|" << r.base.launches << "|"
       << r.base.total_energy << "|" << r.reroutes << "|" << r.drains
       << "|" << r.deferrals << "|" << r.maintenance_windows << "|"
       << r.plant_outages << "|" << r.open_latency_mean << "|"
       << r.open_latency_p99 << "|" << r.fleet_availability;
    return os.str();
}

/** One full run; returns (digest, DES events executed). */
std::pair<std::string, std::uint64_t>
fleetRun(std::size_t des_shards)
{
    core::DhlConfig cfg = core::defaultConfig();
    cfg.docking_stations = 2;
    ops::FleetOps ops(cfg, kTracks, fleetOps(des_shards), 13);
    const double dataset =
        static_cast<double>(kCarts) * cfg.cartCapacity().value();
    const ops::OpsRunResult r = ops.runBulkTransfer(dataset);
    std::uint64_t events = 0;
    for (std::size_t s = 0; s < ops.fleet().numShards(); ++s)
        events += ops.fleet().shardSim(s).eventsExecuted();
    return {fleetDigest(r), events};
}

void
BM_FleetParallel(benchmark::State &state)
{
    const auto shards = static_cast<std::size_t>(state.range(0));

    // Identity gate: a sharded run must reproduce the serial run's
    // results byte for byte before its throughput means anything.
    static const std::string serial_digest = fleetRun(1).first;
    if (fleetRun(shards).first != serial_digest) {
        state.SkipWithError("sharded fleet run diverged from 1 shard");
        return;
    }

    std::uint64_t events = 0;
    for (auto _ : state)
        events += fleetRun(shards).second;
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_FleetParallel)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
