/**
 * @file
 * Tests for the sharded DES layer (sim/shard.hpp) and the determinism
 * contract of every subsystem built on it: partitionShards never splits
 * a plant domain, ShardGroup's window/lockstep primitives reproduce a
 * single global event loop, ShardMerge orders deferred effects by
 * (time, shard, log-order), and — the load-bearing property — a fleet
 * partitioned onto N shards produces results byte-identical to the
 * serial loop, with faults, planned maintenance, correlated plant
 * outages, and serving checkpoints all active.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "exp/slo.hpp"
#include "ops/fleet_ops.hpp"
#include "serve/serving.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

using namespace dhl;
namespace u = dhl::units;

namespace {

//===========================================================================
// partitionShards
//===========================================================================

TEST(PartitionShards, DealsWholeDomainsContiguously)
{
    // 8 tracks, two-track domains, 4 shards: one domain per shard.
    const std::vector<std::size_t> map = sim::partitionShards(8, 2, 4);
    const std::vector<std::size_t> want{0, 0, 1, 1, 2, 2, 3, 3};
    EXPECT_EQ(map, want);
}

TEST(PartitionShards, CapsAtDomainCount)
{
    // 4 tracks in two-track domains cannot use more than 2 shards.
    const std::vector<std::size_t> map = sim::partitionShards(4, 2, 8);
    const std::vector<std::size_t> want{0, 0, 1, 1};
    EXPECT_EQ(map, want);
}

TEST(PartitionShards, UnevenDealStaysContiguousAndComplete)
{
    // 5 independent tracks onto 2 shards: 3 + 2, in order.
    const std::vector<std::size_t> map = sim::partitionShards(5, 1, 2);
    ASSERT_EQ(map.size(), 5u);
    std::size_t prev = 0;
    for (std::size_t s : map) {
        EXPECT_GE(s, prev); // contiguous, non-decreasing
        prev = s;
    }
    EXPECT_EQ(map.back(), 1u);
}

TEST(PartitionShards, SingleShardIsIdentity)
{
    const std::vector<std::size_t> map = sim::partitionShards(6, 2, 1);
    EXPECT_EQ(map, std::vector<std::size_t>(6, 0));
}

//===========================================================================
// ShardGroup
//===========================================================================

TEST(ShardGroup, StepMinFiresGloballyEarliestLowestShardOnTies)
{
    sim::Simulator a;
    sim::Simulator b;
    sim::ShardGroup group;
    group.attach(&a);
    group.attach(&b);

    std::vector<int> order;
    b.scheduleAt(1.0, [&order] { order.push_back(10); });
    a.scheduleAt(2.0, [&order] { order.push_back(1); }); // ties with...
    b.scheduleAt(2.0, [&order] { order.push_back(11); }); // ...this one

    EXPECT_EQ(group.nextEventTime(), 1.0);
    EXPECT_EQ(group.stepMin(), 1u); // b holds the earliest event
    group.advanceClocks(2.0);
    EXPECT_EQ(group.stepMin(), 0u); // tie at t=2 goes to shard 0
    EXPECT_EQ(group.stepMin(), 1u);
    EXPECT_EQ(group.stepMin(), sim::ShardGroup::npos);
    EXPECT_EQ(order, (std::vector<int>{10, 1, 11}));
}

TEST(ShardGroup, AdvanceToRunsEveryShardToTheBarrier)
{
    sim::Simulator a;
    sim::Simulator b;
    sim::ShardGroup group;
    group.attach(&a);
    group.attach(&b);

    int fired = 0;
    a.scheduleAt(1.0, [&fired] { ++fired; });
    a.scheduleAt(5.0, [&fired] { ++fired; }); // at the barrier: fires
    b.scheduleAt(7.0, [&fired] { ++fired; }); // beyond: pending

    group.advanceTo(5.0);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(a.now(), 5.0);
    EXPECT_EQ(b.now(), 5.0);
    EXPECT_EQ(group.now(), 5.0);
    EXPECT_EQ(group.pendingEvents(), 1u);
}

TEST(ShardGroup, PooledWindowMatchesSerialWindow)
{
    // The same two-shard schedule advanced with and without a pool
    // must fire the same events; per-shard order is the heap's either
    // way, so the counters must agree exactly.
    auto run = [](ThreadPool *pool) {
        sim::Simulator a;
        sim::Simulator b;
        sim::ShardGroup group;
        group.attach(&a);
        group.attach(&b);
        if (pool != nullptr)
            group.setPool(pool);
        int na = 0;
        int nb = 0;
        for (int i = 1; i <= 64; ++i) {
            a.scheduleAt(0.5 * i, [&na] { ++na; });
            b.scheduleAt(0.75 * i, [&nb] { ++nb; });
        }
        group.advanceTo(24.0);
        return std::make_pair(na, nb);
    };
    ThreadPool pool(4);
    EXPECT_EQ(run(nullptr), run(&pool));
}

//===========================================================================
// ShardMerge
//===========================================================================

TEST(ShardMerge, OrdersByTimeThenShardThenLogOrder)
{
    // Shard 0: records at t = 1, 3, 3;  shard 1: t = 1, 2.
    const std::vector<std::vector<double>> logs{{1.0, 3.0, 3.0},
                                                {1.0, 2.0}};
    std::vector<std::size_t> counts{3, 2};
    sim::ShardMerge merge(counts, [&logs](std::size_t s, std::size_t i) {
        return logs[s][i];
    });
    std::vector<std::pair<std::size_t, std::size_t>> got;
    for (auto [s, i] = merge.next(); s != sim::ShardGroup::npos;
         std::tie(s, i) = merge.next())
        got.emplace_back(s, i);
    const std::vector<std::pair<std::size_t, std::size_t>> want{
        {0, 0}, {1, 0}, {1, 1}, {0, 1}, {0, 2}};
    EXPECT_EQ(got, want);
}

//===========================================================================
// FleetOps: sharded dispatcher byte-identity
//===========================================================================

ops::OpsConfig
shardedOps(std::size_t des_shards)
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

std::string
opsDigest(const ops::OpsRunResult &r)
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

std::string
opsRun(std::size_t des_shards)
{
    core::DhlConfig cfg = core::defaultConfig();
    cfg.docking_stations = 2;
    ops::FleetOps ops(cfg, 8, shardedOps(des_shards), 13);
    const double dataset = 48.0 * cfg.cartCapacity().value();
    return opsDigest(ops.runBulkTransfer(dataset));
}

TEST(ShardedFleetOps, FourShardsReproduceTheSerialRun)
{
    EXPECT_EQ(opsRun(1), opsRun(4));
}

TEST(ShardedFleetOps, TwoShardsReproduceTheSerialRun)
{
    EXPECT_EQ(opsRun(1), opsRun(2));
}

//===========================================================================
// Serving: sharded fleet byte-identity under the full ops stack
//===========================================================================

/** A 64-track fleet (32 two-track plant domains) under a staged load
 *  with component faults, one per-track window, one fleet-wide window,
 *  and correlated plant outages — everything that can perturb a
 *  barrier. */
serve::ServeConfig
bigFleetConfig(std::size_t des_shards)
{
    serve::ServeConfig cfg;
    cfg.dhl = core::defaultConfig();
    cfg.dhl.docking_stations = 2;
    cfg.tracks = 64;
    cfg.seed = 21;
    cfg.epoch = 300.0;
    cfg.carts_per_track = 2;
    cfg.max_pending = 512;
    cfg.policy = ops::DispatchPolicy::RoundRobin;
    cfg.des_shards = des_shards;
    workloads::RequestClass bulk{"bulk", 3.0, u::gigabytes(192), 0.0, 0};
    workloads::RequestClass urgent{"urgent", 1.0, u::gigabytes(32), 0.0,
                                   1};
    cfg.stages = {
        workloads::StageSpec{"ramp", 300.0, 0.0, 1.5, {bulk, urgent}},
        workloads::StageSpec{"peak", 600.0, 1.5, 1.5, {bulk, urgent}},
        workloads::StageSpec{"drain", 300.0, 1.5, 0.0, {bulk, urgent}},
    };
    cfg.faults.enabled = true;
    cfg.faults.seed = 21;
    cfg.faults.lim_mtbf = 2.0;
    cfg.faults.lim_mttr = 0.1;
    cfg.faults.track_mtbf = 4.0;
    cfg.faults.track_mttr = 0.2;
    cfg.faults.station_mtbf = 3.0;
    cfg.faults.station_mttr = 0.05;
    cfg.faults.cart_repair_per_trip = 5e-3;
    cfg.faults.cart_repair_hours = 0.05;
    cfg.maintenance.windows.push_back({400.0, 150.0, 0.0, 5});
    cfg.maintenance.windows.push_back({700.0, 60.0, 0.0, -1});
    cfg.domains.enabled = true;
    cfg.domains.domain_size = 2;
    cfg.domains.plant_mtbf = 0.5;
    cfg.domains.plant_mttr = 0.05;
    cfg.domains.seed = 21;
    return cfg;
}

/** Everything the determinism contract promises: the formatted SLO
 *  table plus the fleet totals, full precision. */
std::string
servingDigest(serve::ServingSim &sim)
{
    std::ostringstream os;
    os.precision(17);
    for (const exp::StageSlo &stage : sim.sloTable())
        for (const std::string &c : exp::sloRow(stage))
            os << c << "|";
    os << sim.totalServed() << "|" << sim.totalShed() << "|"
       << sim.totalLaunches() << "|" << sim.totalEnergy() << "|"
       << sim.now() << "|" << sim.epochsCompleted();
    return os.str();
}

TEST(ShardedServing, BigFleetFourShardsReproduceTheSerialRun)
{
    serve::ServingSim serial(bigFleetConfig(1));
    serial.run();
    serve::ServingSim sharded(bigFleetConfig(4));
    sharded.run();
    EXPECT_EQ(sharded.numShards(), 4u);
    EXPECT_EQ(servingDigest(serial), servingDigest(sharded));
}

TEST(ShardedServing, PullPolicyFourShardsReproduceTheSerialRun)
{
    // LeastQueued has no static assignment at all — every dispatch is
    // a fresh pool-depth comparison at a coordinator barrier — so it
    // leans hardest on the lockstep path.
    serve::ServeConfig serial_cfg = bigFleetConfig(1);
    serial_cfg.policy = ops::DispatchPolicy::LeastQueued;
    serve::ServeConfig sharded_cfg = bigFleetConfig(4);
    sharded_cfg.policy = ops::DispatchPolicy::LeastQueued;
    serve::ServingSim serial(serial_cfg);
    serial.run();
    serve::ServingSim sharded(sharded_cfg);
    sharded.run();
    EXPECT_EQ(servingDigest(serial), servingDigest(sharded));
}

TEST(ShardedServing, RestoredShardedRunContinuesByteIdentically)
{
    // Restore-mid-run regression: a sharded run checkpointed at an
    // epoch boundary and restored into a freshly built sharded fleet
    // must finish byte-identically — digest AND re-checkpoint — to
    // one that was never interrupted.
    const serve::ServeConfig cfg = bigFleetConfig(4);

    serve::ServingSim oracle(cfg);
    oracle.run();
    std::ostringstream want_ck;
    oracle.checkpoint(want_ck);

    serve::ServingSim first(cfg);
    ASSERT_TRUE(first.stepEpoch());
    ASSERT_TRUE(first.stepEpoch());
    std::stringstream ck;
    first.checkpoint(ck);

    serve::ServingSim resumed(cfg);
    resumed.restore(ck);
    resumed.run();
    std::ostringstream got_ck;
    resumed.checkpoint(got_ck);

    EXPECT_EQ(servingDigest(oracle), servingDigest(resumed));
    EXPECT_EQ(want_ck.str(), got_ck.str());
}

} // namespace
