/**
 * @file
 * Long-horizon property tests for the fault subsystem.
 *
 * Properties:
 *  1. Convergence — the DES's observed service availability under the
 *     seeded FaultInjector lands within 5% relative error of the
 *     closed-form system_availability for every tested seed.
 *  2. No transfer lost — bulk transfers under heavy fault injection
 *     complete every cart and read back every byte.
 *  3. Liveness — every parked/held trip eventually completes (the
 *     transfer finishes; nothing waits forever on a repaired system).
 *  4. Determinism — identical (seed, config) fault runs produce
 *     identical results, event for event.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/logging.hpp"
#include "dhl/reliability.hpp"
#include "dhl/simulation.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_state.hpp"

using namespace dhl;
using namespace dhl::core;

namespace {

constexpr double kSecondsPerHour = 3600.0;

/** Accelerated component rates (~500x) so a long horizon covers
 *  hundreds of failure/repair cycles per component. */
ReliabilityConfig
acceleratedRates()
{
    ReliabilityConfig rel;
    rel.lim_mtbf = 100.0;
    rel.lim_mttr = 8.0;
    rel.track_mtbf = 200.0;
    rel.track_mttr = 24.0;
    rel.station_mtbf = 60.0;
    rel.station_mttr = 4.0;
    rel.cart_repair_per_trip = 0.0;
    return rel;
}

} // namespace

TEST(FaultProperty, AvailabilityConvergesToClosedForm)
{
    const DhlConfig dhl = defaultConfig();
    const ReliabilityConfig rel = acceleratedRates();
    const AvailabilityModel model(dhl, rel);
    const double predicted = model.report().system_availability;
    const double horizon = 50000.0 * kSecondsPerHour;

    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        sim::Simulator sim;
        faults::FaultState state(sim);
        const faults::FaultConfig fc = toFaultConfig(rel, seed, horizon);
        faults::FaultInjector injector(sim, state, fc,
                                       dhl.docking_stations);
        sim.run();

        const double observed = state.observedAvailability(horizon);
        EXPECT_NEAR(observed, predicted, 0.05 * predicted)
            << "seed " << seed << " diverged from the closed form";
        EXPECT_GT(state.serviceTransitions(), 100u)
            << "the horizon must cover many failure cycles";
    }
}

TEST(FaultProperty, NoTransferLostUnderHeavyFaults)
{
    DhlConfig cfg = defaultConfig();
    cfg.docking_stations = 2;

    // Heavily accelerated: multiple outages land inside the transfer.
    ReliabilityConfig rel;
    rel.lim_mtbf = 0.05;
    rel.lim_mttr = 0.01;
    rel.track_mtbf = 0.1;
    rel.track_mttr = 0.012;
    rel.station_mtbf = 0.03;
    rel.station_mttr = 0.008;
    rel.cart_repair_per_trip = 0.05;
    rel.cart_repair_hours = 0.01;

    const double dataset = 32.0 * cfg.cartCapacity().value();

    DhlSimulation des(cfg);
    BulkRunOptions opts;
    opts.include_read_time = true;
    opts.pipelined = true;
    des.enableFaults(toFaultConfig(rel, 11));
    const BulkRunResult r = des.runBulkTransfer(dataset, opts);

    // Every cart completed its round trip (runBulkTransfer panics
    // otherwise) and every stored byte was read back: nothing lost.
    EXPECT_EQ(r.carts, 32u);
    EXPECT_DOUBLE_EQ(r.bytes_read, dataset);
    EXPECT_EQ(r.launches, 64u) << "one round trip per cart";

    // The run genuinely exercised degraded mode.
    const auto *fs = des.faultState();
    ASSERT_NE(fs, nullptr);
    EXPECT_GT(fs->failures(faults::Component::Lim) +
                  fs->failures(faults::Component::Track) +
                  fs->failures(faults::Component::Station),
              0u);
    EXPECT_GT(des.controller().parkedLaunches() +
                  des.controller().heldOpens() +
                  des.controller().queuedOpens() +
                  des.controller().cartBreakdowns(),
              0u);

    // Liveness: the clock advanced past the clean-run time (outages
    // stretched the transfer) but the transfer did finish.
    EXPECT_GT(r.total_time, 0.0);
    EXPECT_TRUE(std::isfinite(r.total_time));
    EXPECT_EQ(des.controller().queuedOpens(), 0u)
        << "no open left behind";
}

TEST(FaultProperty, FaultRunsAreDeterministic)
{
    DhlConfig cfg = defaultConfig();
    ReliabilityConfig rel;
    rel.lim_mtbf = 0.1;
    rel.lim_mttr = 0.01;
    rel.track_mtbf = 0.2;
    rel.track_mttr = 0.02;
    rel.station_mtbf = 0.08;
    rel.station_mttr = 0.01;
    rel.cart_repair_per_trip = 0.1;
    rel.cart_repair_hours = 0.005;

    const double dataset = 16.0 * cfg.cartCapacity().value();

    auto run = [&] {
        DhlSimulation des(cfg);
        des.enableFaults(toFaultConfig(rel, 5));
        const BulkRunResult r = des.runBulkTransfer(dataset);
        return std::make_tuple(r.total_time, r.total_energy, r.launches,
                               des.controller().parkedLaunches(),
                               des.controller().cartBreakdowns(),
                               des.faultInjector()->eventsInjected());
    };

    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a, b) << "identical (seed, config) must replay exactly";
}

TEST(FaultProperty, ZeroRatesMatchFaultFreeRunExactly)
{
    // A fault config whose injector can never fire must leave the
    // transfer byte-identical to a run without fault injection.
    DhlConfig cfg = defaultConfig();
    const double dataset = 8.0 * cfg.cartCapacity().value();

    DhlSimulation clean(cfg);
    const BulkRunResult rc = clean.runBulkTransfer(dataset);

    DhlSimulation faulty(cfg);
    faults::FaultConfig fc;
    fc.enabled = true;
    fc.horizon = 1e-9; // no failure is ever scheduled
    fc.cart_repair_per_trip = 0.0;
    faulty.enableFaults(fc);
    const BulkRunResult rf = faulty.runBulkTransfer(dataset);

    EXPECT_EQ(rf.total_time, rc.total_time);
    EXPECT_EQ(rf.total_energy, rc.total_energy);
    EXPECT_EQ(rf.launches, rc.launches);
    EXPECT_EQ(faulty.controller().parkedLaunches(), 0u);
    EXPECT_EQ(faulty.controller().heldOpens(), 0u);
}
