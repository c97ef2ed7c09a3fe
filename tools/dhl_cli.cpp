/**
 * @file
 * dhl_cli — the command-line front end to the library.
 *
 * Subcommands:
 *
 *   launch     single-launch metrics for a DHL configuration
 *   bulk       move a dataset: trips, time, energy, route comparisons
 *   simulate   the same move on the event-driven simulator
 *   cost       materials cost (Table VIII) for a configuration
 *   tco        capex + energy opex vs the optical network
 *   crossover  break-even dataset sizes vs a single optical link
 *   ingest     training-epoch ingestion: utilisation and stalls
 *   sweep      Figure 6 power sweep via the experiment runner
 *   serve      open-loop serving mode: staged load, per-stage SLOs,
 *              checkpoint/restore across DES epochs
 *   plan       Monte-Carlo capacity planning: size tracks, carts and
 *              vacuum plants against sampled demand at a target SLO
 *              quantile
 *
 * Every subcommand shares the configuration flags --speed, --length,
 * --ssds (the paper's three swept parameters) plus --dock, --mode and
 * --stations where they apply.  `dhl_cli <cmd> --help` lists them.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/logging.hpp"
#include "common/properties.hpp"
#include "common/units.hpp"
#include "cost/opex.hpp"
#include "dhl/comparison.hpp"
#include "dhl/config_io.hpp"
#include "dhl/fleet.hpp"
#include "dhl/reliability.hpp"
#include "dhl/simulation.hpp"
#include "exp/experiment_runner.hpp"
#include "mlsim/ingest_sim.hpp"
#include "mlsim/sweep.hpp"
#include "exp/slo.hpp"
#include "ops/fleet_ops.hpp"
#include "plan/planner.hpp"
#include "serve/serving.hpp"
#include "workloads/arrival.hpp"

using namespace dhl;
namespace u = dhl::units;

namespace {

/** Register the shared configuration flags. */
void
addConfigFlags(ArgParser &args)
{
    args.addOption("config",
                   "properties file with the full configuration "
                   "(flags override it)");
    args.addOption("speed", "maximum cart speed, m/s", "200");
    args.addOption("length", "track length, m", "500");
    args.addOption("ssds", "M.2 SSDs per cart", "32");
    args.addOption("dock", "dock/undock time, s", "3");
    args.addOption("mode", "track mode: exclusive|pipelined|dual",
                   "exclusive");
    args.addOption("stations", "rack docking stations", "1");
}

/** Build a DhlConfig from --config (if given) plus the shared flags. */
core::DhlConfig
configFromFlags(const ArgParser &args)
{
    core::DhlConfig cfg = core::defaultConfig();
    const bool from_file = args.provided("config");
    if (from_file)
        cfg = core::loadConfig(Properties::fromFile(args.get("config")));

    // Flags override the file; without a file, flag defaults apply.
    auto apply = [&](const char *flag, auto setter) {
        if (!from_file || args.provided(flag))
            setter();
    };
    apply("speed", [&] { cfg.max_speed = args.getDouble("speed"); });
    apply("length",
          [&] { cfg.track_length = args.getDouble("length"); });
    apply("ssds", [&] {
        cfg.ssds_per_cart =
            static_cast<std::size_t>(args.getInt("ssds"));
    });
    apply("dock", [&] { cfg.dock_time = args.getDouble("dock"); });
    apply("mode", [&] {
        const std::string mode = args.get("mode");
        if (mode == "exclusive") {
            cfg.track_mode = core::TrackMode::Exclusive;
        } else if (mode == "pipelined") {
            cfg.track_mode = core::TrackMode::Pipelined;
        } else if (mode == "dual") {
            cfg.track_mode = core::TrackMode::DualTrack;
        } else {
            fatal("unknown --mode '" + mode +
                  "' (expected exclusive|pipelined|dual)");
        }
    });
    apply("stations", [&] {
        cfg.docking_stations =
            static_cast<std::size_t>(args.getInt("stations"));
    });
    // Bulk runs may need many carts.
    cfg.library_slots = std::max<std::size_t>(cfg.library_slots, 4096);
    return cfg;
}

int
cmdLaunch(int argc, const char *const *argv)
{
    ArgParser args("dhl_cli launch", "single-launch metrics");
    addConfigFlags(args);
    if (!args.parse(argc, argv, std::cout))
        return 0;
    const core::DhlConfig cfg = configFromFlags(args);
    const core::AnalyticalModel model(cfg);
    const auto m = model.launch();
    std::cout << cfg.label() << "\n"
              << "  cart mass     "
              << u::formatSig(u::toGrams(m.cart_mass.value()), 4)
              << " g\n"
              << "  capacity      " << u::formatBytes(m.capacity) << "\n"
              << "  energy        " << u::formatEnergy(m.energy) << "\n"
              << "  trip time     " << u::formatDuration(m.trip_time)
              << "\n"
              << "  bandwidth     " << u::formatBandwidth(m.bandwidth)
              << "\n"
              << "  peak power    " << u::formatPower(m.peak_power) << "\n"
              << "  avg power     " << u::formatPower(m.avg_power) << "\n"
              << "  efficiency    " << u::formatSig(m.efficiency, 4)
              << " GB/J\n";
    return 0;
}

int
cmdBulk(int argc, const char *const *argv)
{
    ArgParser args("dhl_cli bulk",
                   "closed-form bulk move with route comparisons");
    addConfigFlags(args);
    args.addOption("petabytes", "dataset size, PB", "29");
    args.addSwitch("pipelined", "overlap shuttling (dual-track model)");
    if (!args.parse(argc, argv, std::cout))
        return 0;
    const core::DhlConfig cfg = configFromFlags(args);
    const double bytes = u::petabytes(args.getDouble("petabytes"));
    core::BulkOptions opts;
    opts.pipelined = args.getSwitch("pipelined");

    const auto row =
        core::computeDesignSpaceRow(cfg, dhl::qty::Bytes{bytes}, opts);
    std::cout << cfg.label() << " moving " << u::formatBytes(bytes)
              << ":\n"
              << "  carts/trips   " << row.bulk.loaded_trips << " loaded, "
              << row.bulk.total_trips << " total\n"
              << "  time          "
              << u::formatDuration(row.bulk.total_time) << "\n"
              << "  energy        "
              << u::formatEnergy(row.bulk.total_energy) << "\n"
              << "  avg power     "
              << u::formatPower(row.bulk.avg_power) << "\n"
              << "  speedup       "
              << u::formatSig(row.time_speedup, 4)
              << "x vs one 400 Gbit/s link\n";
    for (const auto &rc : row.routes) {
        std::cout << "  vs " << rc.route_name << "        "
                  << u::formatSig(rc.energy_reduction, 4)
                  << "x less energy\n";
    }
    return 0;
}

/**
 * Parse a --maintenance plan: comma-separated windows of the form
 * start:duration[:period[:track]], all times in simulated seconds
 * (period 0 or absent = one-shot; track absent = fleet-wide).
 */
ops::MaintenanceConfig
parseMaintenancePlan(const std::string &spec)
{
    ops::MaintenanceConfig plan;
    std::istringstream windows(spec);
    std::string window;
    while (std::getline(windows, window, ',')) {
        std::vector<double> fields;
        std::istringstream parts(window);
        std::string part;
        while (std::getline(parts, part, ':')) {
            try {
                fields.push_back(std::stod(part));
            } catch (const std::exception &) {
                fatal("bad --maintenance field '" + part + "' in '" +
                      window + "'");
            }
        }
        if (fields.size() < 2 || fields.size() > 4)
            fatal("--maintenance windows are start:duration[:period"
                  "[:track]], got '" + window + "'");
        ops::MaintenanceWindow w;
        w.start = fields[0];
        w.duration = fields[1];
        if (fields.size() > 2)
            w.period = fields[2];
        if (fields.size() > 3)
            w.track = static_cast<int>(fields[3]);
        plan.windows.push_back(w);
    }
    fatal_if(plan.windows.empty(), "--maintenance plan is empty");
    return plan;
}

int
cmdSimulate(int argc, const char *const *argv)
{
    ArgParser args("dhl_cli simulate",
                   "event-driven bulk move (carts, stations, queueing)");
    addConfigFlags(args);
    args.addOption("petabytes", "dataset size, PB", "1");
    args.addSwitch("pipelined", "issue all carts up front");
    args.addSwitch("reads", "read each cart at the rack");
    args.addOption("failures", "per-SSD per-trip failure probability",
                   "0");
    args.addSwitch("faults", "inject component faults (LIM/track/"
                             "station outages, cart breakdowns)");
    args.addOption("fault-seed", "fault-injection seed", "1");
    args.addOption("fault-accel",
                   "accelerate fault rates by this factor (divides "
                   "every MTBF and MTTR)",
                   "1");
    args.addOption("dump-trace",
                   "dump trace records after the run: a category "
                   "(api|track|fault|failure) or 'all'");
    args.addOption("tracks",
                   "parallel DHL tracks (enables the ops layer, like "
                   "any --ops-*/--maintenance/--domains flag)",
                   "1");
    args.addOption("ops-policy",
                   "fleet dispatch policy: round-robin|least-queued|"
                   "availability",
                   "round-robin");
    args.addOption("maintenance",
                   "planned windows start:dur[:period[:track]] in "
                   "simulated s, comma-separated");
    args.addOption("domains",
                   "tracks per shared vacuum plant (0 = no correlated "
                   "faults)",
                   "0");
    args.addOption("plant-mtbf", "shared-plant MTBF, h", "8760");
    args.addOption("plant-mttr", "shared-plant MTTR, h", "4");
    args.addOption("wear-gain",
                   "wear-coupling gain on cart breakdowns and station "
                   "MTBF (requires --faults)",
                   "0");
    if (!args.parse(argc, argv, std::cout))
        return 0;
    const core::DhlConfig cfg = configFromFlags(args);
    core::BulkRunOptions opts;
    opts.pipelined = args.getSwitch("pipelined");
    opts.include_read_time = args.getSwitch("reads");
    opts.failure_per_trip = args.getDouble("failures");
    faults::FaultConfig fault_cfg;
    if (args.getSwitch("faults")) {
        const double accel = args.getDouble("fault-accel");
        fatal_if(!(accel > 0.0), "--fault-accel must be positive");
        core::ReliabilityConfig rel;
        rel.lim_mtbf /= accel;
        rel.lim_mttr /= accel;
        rel.track_mtbf /= accel;
        rel.track_mttr /= accel;
        rel.station_mtbf /= accel;
        rel.station_mttr /= accel;
        rel.cart_repair_hours /= accel;
        fault_cfg = core::toFaultConfig(
            rel, static_cast<std::uint64_t>(
                     args.getInt("fault-seed")));
    }

    const bool ops_mode =
        args.provided("tracks") || args.provided("ops-policy") ||
        args.provided("maintenance") || args.provided("domains") ||
        args.provided("wear-gain");
    if (ops_mode) {
        const auto tracks =
            static_cast<std::size_t>(args.getInt("tracks"));
        fatal_if(tracks == 0, "--tracks must be at least 1");
        ops::OpsConfig oc;
        oc.dispatch.policy =
            ops::parseDispatchPolicy(args.get("ops-policy"));
        if (args.provided("maintenance"))
            oc.maintenance = parseMaintenancePlan(args.get("maintenance"));
        const auto domain_size =
            static_cast<std::size_t>(args.getInt("domains"));
        if (domain_size > 0) {
            oc.domains.enabled = true;
            oc.domains.domain_size = domain_size;
            oc.domains.plant_mtbf = args.getDouble("plant-mtbf");
            oc.domains.plant_mttr = args.getDouble("plant-mttr");
            oc.domains.seed = static_cast<std::uint64_t>(
                args.getInt("fault-seed"));
        }
        const double wear_gain = args.getDouble("wear-gain");
        if (wear_gain > 0.0) {
            oc.wear.breakdown_gain = wear_gain;
            oc.wear.station_gain = wear_gain;
        }
        oc.faults = fault_cfg;
        ops::FleetOps fleet_ops(cfg, tracks, oc);
        const auto r = fleet_ops.runBulkTransfer(
            u::petabytes(args.getDouble("petabytes")), opts);
        std::cout << tracks << " x " << cfg.label() << " (DES + ops, "
                  << ops::to_string(oc.dispatch.policy) << "):\n"
                  << "  carts         " << r.base.carts << "\n"
                  << "  launches      " << r.base.launches << "\n"
                  << "  time          "
                  << u::formatDuration(r.base.total_time) << "\n"
                  << "  energy        "
                  << u::formatEnergy(r.base.total_energy) << "\n"
                  << "  bandwidth     "
                  << u::formatBandwidth(r.base.effective_bandwidth)
                  << "\n"
                  << "  ssd failures  " << r.base.ssd_failures << "\n"
                  << "  ops summary:\n"
                  << "    maint windows " << r.maintenance_windows
                  << "\n"
                  << "    plant outages " << r.plant_outages << "\n"
                  << "    reroutes      " << r.reroutes << "\n"
                  << "    deferrals     " << r.deferrals << "\n"
                  << "    open p99      "
                  << u::formatSig(r.open_latency_p99, 4) << " s\n"
                  << "    availability  "
                  << u::formatSig(r.fleet_availability, 4)
                  << " over the run\n";
        return 0;
    }

    core::DhlSimulation sim(cfg);
    if (args.provided("dump-trace"))
        sim.trace().enable();
    opts.faults = fault_cfg;
    const auto r = sim.runBulkTransfer(
        u::petabytes(args.getDouble("petabytes")), opts);
    std::cout << cfg.label() << " (DES):\n"
              << "  carts         " << r.carts << "\n"
              << "  launches      " << r.launches << "\n"
              << "  time          " << u::formatDuration(r.total_time)
              << "\n"
              << "  energy        " << u::formatEnergy(r.total_energy)
              << "\n"
              << "  bandwidth     "
              << u::formatBandwidth(r.effective_bandwidth) << "\n"
              << "  ssd failures  " << r.ssd_failures << "\n";
    if (sim.faultsEnabled()) {
        const auto *fs = sim.faultState();
        auto &ctl = sim.controller();
        std::cout << "  fault summary (seed "
                  << sim.faultInjector()->config().seed << "):\n"
                  << "    outages      lim "
                  << fs->failures(faults::Component::Lim) << ", track "
                  << fs->failures(faults::Component::Track)
                  << ", station "
                  << fs->failures(faults::Component::Station) << "\n"
                  << "    parked trips " << ctl.parkedLaunches() << "\n"
                  << "    held opens   " << ctl.heldOpens() << "\n"
                  << "    breakdowns   " << ctl.cartBreakdowns() << "\n"
                  << "    availability "
                  << u::formatSig(
                         fs->observedAvailability(r.total_time), 4)
                  << " over the run\n";
    }
    if (args.provided("dump-trace")) {
        const std::string category = args.get("dump-trace");
        std::cout << "trace (" << category << "):\n";
        if (category == "all") {
            sim.trace().dump(std::cout);
        } else {
            for (const auto &rec : sim.trace().filter(category)) {
                std::cout << u::formatSig(rec.when, 9) << " ["
                          << rec.category << "] " << rec.object << ": "
                          << rec.message << "\n";
            }
        }
    }
    return 0;
}

/** Print an aligned table: headers + rows (first column left-aligned,
 *  the rest right-aligned). */
void
printTable(std::ostream &os, const std::vector<std::string> &headers,
           const std::vector<std::vector<std::string>> &rows)
{
    std::vector<std::size_t> width(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        width[c] = headers[c].size();
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            const std::size_t pad = width[c] - row[c].size();
            if (c == 0) {
                os << row[c] << std::string(pad, ' ');
            } else {
                os << "  " << std::string(pad, ' ') << row[c];
            }
        }
        os << "\n";
    };
    emit(headers);
    for (const auto &row : rows)
        emit(row);
}

int
cmdServe(int argc, const char *const *argv)
{
    ArgParser args("dhl_cli serve",
                   "open-loop serving: staged load, per-stage SLOs, "
                   "checkpoint/restore");
    addConfigFlags(args);
    args.addOption("stages",
                   "load profile name:duration:rate[:end_rate],... "
                   "(seconds, req/s; end_rate ramps linearly)",
                   "ramp:600:0:0.5,peak:1200:0.5,cool:600:0.5:0");
    args.addOption("request-gb", "median request size, GB", "64");
    args.addOption("sigma", "log-normal request-size shape (0 = fixed)",
                   "0");
    args.addOption("tracks", "parallel DHL tracks", "1");
    args.addOption("epoch",
                   "epoch length, s (checkpoint granularity)", "600");
    args.addOption("carts", "cart pool per track", "4");
    args.addOption("max-pending",
                   "admission queue bound (beyond it, shed)", "1024");
    args.addOption("policy",
                   "dispatch policy: round-robin|least-queued|"
                   "availability|te",
                   "least-queued");
    args.addOption("min-priority",
                   "availability policy: admission floor while any "
                   "track is down",
                   "0");
    args.addOption("seed", "master serving seed", "1");
    args.addOption("des-shards",
                   "partition the fleet DES onto N cores "
                   "(byte-identical to 1)",
                   "1");
    args.addSwitch("te",
                   "enable the traffic-engineering controller "
                   "(hybrid DHL/optical substrate split)");
    args.addOption("te-mode", "dhl-only|optical-only|hybrid", "hybrid");
    args.addOption("te-period", "TE control epoch, s", "60");
    args.addOption("te-small-gb",
                   "requests at or below this ride optical, GB", "8");
    args.addOption("te-optical-gbps", "optical uplink capacity, Gbit/s",
                   "100");
    args.addOption("te-headroom",
                   "fraction of optical capacity the TE plan may use",
                   "0.9");
    args.addOption("te-multiplier", "usage -> demand multiplier", "1.1");
    args.addOption("te-history", "demand estimator window, epochs", "8");
    args.addOption("te-floor",
                   "contended requests below this priority are "
                   "downgraded or held",
                   "1");
    args.addOption("te-route", "optical route for energy: A0|A1|A2|B|C",
                   "C");
    args.addSwitch("faults", "inject component faults per track");
    args.addOption("fault-seed", "fault-injection seed", "1");
    args.addOption("fault-accel",
                   "accelerate fault rates by this factor", "1");
    args.addOption("maintenance",
                   "planned windows start:dur[:period[:track]], "
                   "comma-separated");
    args.addOption("domains",
                   "tracks per shared vacuum plant (0 = none)", "0");
    args.addOption("plant-mtbf", "shared-plant MTBF, h", "8760");
    args.addOption("plant-mttr", "shared-plant MTTR, h", "4");
    args.addOption("checkpoint",
                   "write a checkpoint here when the command stops");
    args.addOption("checkpoint-every",
                   "also rewrite the checkpoint every N epochs", "0");
    args.addOption("resume", "restore from this checkpoint first");
    args.addOption("stop-after", "stop after N epochs (0 = run dry)",
                   "0");
    args.addSwitch("stats", "dump the statistics tree after the run");
    if (!args.parse(argc, argv, std::cout))
        return 0;

    serve::ServeConfig cfg;
    cfg.dhl = configFromFlags(args);
    cfg.tracks = static_cast<std::size_t>(args.getInt("tracks"));
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    cfg.stages = workloads::parseStageSpec(
        args.get("stages"), u::gigabytes(args.getDouble("request-gb")),
        args.getDouble("sigma"));
    cfg.epoch = args.getDouble("epoch");
    cfg.carts_per_track =
        static_cast<std::size_t>(args.getInt("carts"));
    cfg.max_pending =
        static_cast<std::size_t>(args.getInt("max-pending"));
    cfg.policy = ops::parseDispatchPolicy(args.get("policy"));
    cfg.min_priority_degraded =
        static_cast<int>(args.getInt("min-priority"));
    cfg.des_shards =
        static_cast<std::size_t>(args.getInt("des-shards"));
    if (args.getSwitch("te")) {
        cfg.te.enabled = true;
        cfg.te.mode = te::parseTeMode(args.get("te-mode"));
        cfg.te.control_period = args.getDouble("te-period");
        cfg.te.small_bytes =
            u::gigabytes(args.getDouble("te-small-gb"));
        cfg.te.optical_capacity =
            u::gigabitsPerSecond(args.getDouble("te-optical-gbps"));
        cfg.te.headroom = args.getDouble("te-headroom");
        cfg.te.usage_multiplier = args.getDouble("te-multiplier");
        cfg.te.history =
            static_cast<std::size_t>(args.getInt("te-history"));
        cfg.te.min_priority_contended =
            static_cast<int>(args.getInt("te-floor"));
        cfg.te.route = args.get("te-route");
    }
    if (args.getSwitch("faults")) {
        const double accel = args.getDouble("fault-accel");
        fatal_if(!(accel > 0.0), "--fault-accel must be positive");
        core::ReliabilityConfig rel;
        rel.lim_mtbf /= accel;
        rel.lim_mttr /= accel;
        rel.track_mtbf /= accel;
        rel.track_mttr /= accel;
        rel.station_mtbf /= accel;
        rel.station_mttr /= accel;
        rel.cart_repair_hours /= accel;
        cfg.faults = core::toFaultConfig(
            rel,
            static_cast<std::uint64_t>(args.getInt("fault-seed")));
    }
    if (args.provided("maintenance"))
        cfg.maintenance = parseMaintenancePlan(args.get("maintenance"));
    const auto domain_size =
        static_cast<std::size_t>(args.getInt("domains"));
    if (domain_size > 0) {
        cfg.domains.enabled = true;
        cfg.domains.domain_size = domain_size;
        cfg.domains.plant_mtbf = args.getDouble("plant-mtbf");
        cfg.domains.plant_mttr = args.getDouble("plant-mttr");
        cfg.domains.seed =
            static_cast<std::uint64_t>(args.getInt("fault-seed"));
    }

    serve::ServingSim sim(cfg);

    if (args.provided("resume")) {
        std::ifstream in(args.get("resume"));
        if (!in)
            fatal("cannot open --resume checkpoint '" + args.get("resume") +
                  "'");
        sim.restore(in);
        std::cerr << "resumed at epoch " << sim.epochsCompleted()
                  << ", t = " << u::formatDuration(sim.now()) << "\n";
    }

    auto writeCheckpoint = [&](const std::string &path) {
        std::ofstream out(path, std::ios::trunc);
        if (!out)
            fatal("cannot write --checkpoint '" + path + "'");
        sim.checkpoint(out);
        out.flush();
        if (!out)
            fatal("cannot write --checkpoint '" + path + "'");
    };

    const auto stop_after =
        static_cast<std::size_t>(args.getInt("stop-after"));
    const auto every =
        static_cast<std::size_t>(args.getInt("checkpoint-every"));
    std::size_t stepped = 0;
    while (sim.stepEpoch()) {
        ++stepped;
        if (every != 0 && args.provided("checkpoint") &&
            stepped % every == 0)
            writeCheckpoint(args.get("checkpoint"));
        if (stop_after != 0 && stepped >= stop_after)
            break;
    }
    if (args.provided("checkpoint"))
        writeCheckpoint(args.get("checkpoint"));

    std::cerr << (sim.done() ? "profile complete" : "stopped early")
              << " after " << sim.epochsCompleted() << " epochs, t = "
              << u::formatDuration(sim.now()) << "\n";

    printTable(std::cout, exp::sloHeaders(), exp::sloRows(sim.sloTable()));
    if (sim.teEnabled()) {
        std::cout << "\n";
        printTable(std::cout, exp::classSloHeaders(),
                   exp::classSloRows(sim.teTable()));
        std::cout << "optical served  " << sim.opticalServed() << "\n"
                  << "te downgrades   " << sim.teDowngrades() << "\n"
                  << "optical energy  "
                  << u::formatEnergy(sim.opticalEnergy()) << "\n\n";
    }
    std::cout << "served    " << sim.totalServed() << "\n"
              << "shed      " << sim.totalShed() << "\n"
              << "backlog   " << sim.queueDepth() << "\n"
              << "launches  " << sim.totalLaunches() << "\n"
              << "energy    " << u::formatEnergy(sim.totalEnergy())
              << "\n"
              << "end time  " << u::formatDuration(sim.now()) << "\n"
              << "epochs    " << sim.epochsCompleted() << "\n";
    if (args.getSwitch("stats"))
        sim.dumpStats(std::cout);
    return 0;
}

int
cmdCost(int argc, const char *const *argv)
{
    ArgParser args("dhl_cli cost", "materials cost (Table VIII)");
    args.addOption("speed", "top speed, m/s", "200");
    args.addOption("length", "track length, m", "500");
    if (!args.parse(argc, argv, std::cout))
        return 0;
    cost::CostModel model;
    const double d = args.getDouble("length");
    const double v = args.getDouble("speed");
    const auto rail = model.railCost(d);
    const auto lim = model.limCost(v);
    std::cout << "DHL " << d << " m @ " << v << " m/s:\n"
              << "  aluminium rings  $" << u::formatSig(rail.aluminium, 4)
              << "\n  PVC rail         $" << u::formatSig(rail.pvc_rail, 4)
              << "\n  PVC vacuum tube  $" << u::formatSig(rail.pvc_tube, 4)
              << "\n  LIM copper       $" << u::formatSig(lim.copper, 4)
              << "\n  VFD              $" << u::formatSig(lim.vfd, 4)
              << "\n  total            $"
              << u::formatSig(model.totalCost(d, v), 5) << "\n";
    return 0;
}

int
cmdTco(int argc, const char *const *argv)
{
    ArgParser args("dhl_cli tco", "capex + energy opex vs the network");
    addConfigFlags(args);
    args.addOption("petabytes", "bytes per transfer, PB", "2");
    args.addOption("per-day", "transfers per day", "4");
    args.addOption("years", "deployment lifetime, years", "5");
    args.addOption("route", "network route: A0|A1|A2|B|C", "C");
    if (!args.parse(argc, argv, std::cout))
        return 0;
    cost::TcoModel model;
    cost::TransferDuty duty{};
    duty.bytes_per_transfer = u::petabytes(args.getDouble("petabytes"));
    duty.transfers_per_day = args.getDouble("per-day");
    duty.years = args.getDouble("years");
    const auto cmp = model.compare(configFromFlags(args),
                                   network::findRoute(args.get("route")),
                                   duty);
    auto print = [](const char *side, const cost::CostLedger &l) {
        std::cout << "  " << side << ": capex $"
                  << u::formatSig(l.capex, 5) << ", energy "
                  << u::formatEnergy(l.energy_per_day) << "/day, opex $"
                  << u::formatSig(l.opex_per_year, 4) << "/yr, total $"
                  << u::formatSig(l.total, 5) << "\n";
    };
    print("DHL    ", cmp.dhl);
    print("network", cmp.network);
    std::cout << "  payback: "
              << (cmp.payback_days == 0.0
                      ? "immediate"
                      : u::formatSig(cmp.payback_days, 4) + " days")
              << "\n";
    return 0;
}

int
cmdCrossover(int argc, const char *const *argv)
{
    ArgParser args("dhl_cli crossover",
                   "break-even dataset sizes vs one optical link");
    addConfigFlags(args);
    args.addOption("route", "network route: A0|A1|A2|B|C", "A0");
    if (!args.parse(argc, argv, std::cout))
        return 0;
    const core::DhlConfig cfg = configFromFlags(args);
    const auto be =
        core::breakEven(cfg, network::findRoute(args.get("route")));
    std::cout << cfg.label() << " vs route " << be.route_name << ":\n"
              << "  wins on time from    "
              << u::formatBytes(be.bytes_for_time) << "\n"
              << "  wins on energy from  "
              << u::formatBytes(be.bytes_for_energy) << "\n"
              << "  wins outright from   "
              << u::formatBytes(be.bytes_to_win()) << "\n";
    return 0;
}

int
cmdIngest(int argc, const char *const *argv)
{
    ArgParser args("dhl_cli ingest",
                   "training-epoch ingestion: utilisation and stalls");
    addConfigFlags(args);
    args.addOption("petabytes", "dataset size, PB", "1");
    args.addOption("batch-tb", "batch size, TB", "1");
    args.addOption("compute", "compute per batch, s", "5");
    args.addOption("buffer-tb", "staging buffer, TB", "512");
    args.addOption("links", "use N network links instead of the DHL",
                   "0");
    args.addOption("route", "network route when --links > 0", "A0");
    args.addSwitch("pipelined", "pipeline DHL returns");
    if (!args.parse(argc, argv, std::cout))
        return 0;

    mlsim::IngestConfig icfg;
    icfg.batch_bytes = u::terabytes(args.getDouble("batch-tb"));
    icfg.step_compute_time = args.getDouble("compute");
    icfg.buffer_capacity = u::terabytes(args.getDouble("buffer-tb"));
    mlsim::IngestSim sim(icfg);

    const double dataset = u::petabytes(args.getDouble("petabytes"));
    const double links = args.getDouble("links");
    const mlsim::IngestResult r =
        links > 0.0
            ? sim.runWithNetwork(dataset,
                                 network::findRoute(args.get("route")),
                                 links)
            : sim.runWithDhl(dataset, configFromFlags(args),
                             args.getSwitch("pipelined"));
    std::cout << "epoch over " << u::formatBytes(dataset)
              << (links > 0.0 ? " via " + args.get("route") + " x" +
                                    args.get("links")
                              : " via DHL")
              << ":\n"
              << "  epoch time    " << u::formatDuration(r.epoch_time)
              << "\n"
              << "  steps         " << r.steps << "\n"
              << "  compute busy  " << u::formatDuration(r.compute_busy)
              << "\n"
              << "  stalled       " << u::formatDuration(r.stall_time)
              << "\n"
              << "  utilisation   " << u::formatSig(r.utilisation * 100, 3)
              << " %\n";
    return 0;
}

int
cmdFleet(int argc, const char *const *argv)
{
    ArgParser args("dhl_cli fleet",
                   "event-driven bulk move over K parallel tracks");
    addConfigFlags(args);
    args.addOption("petabytes", "dataset size, PB", "2.9");
    args.addOption("tracks", "parallel DHL tracks", "2");
    args.addSwitch("reads", "read each cart at the rack");
    if (!args.parse(argc, argv, std::cout))
        return 0;
    const core::DhlConfig cfg = configFromFlags(args);
    const auto tracks =
        static_cast<std::size_t>(args.getInt("tracks"));
    core::DhlFleet fleet(cfg, tracks);
    core::BulkRunOptions opts;
    opts.include_read_time = args.getSwitch("reads");
    const auto r = fleet.runBulkTransfer(
        u::petabytes(args.getDouble("petabytes")), opts);
    std::cout << tracks << " x " << cfg.label() << " (DES fleet):\n"
              << "  carts         " << r.carts << "\n"
              << "  launches      " << r.launches << "\n"
              << "  time          " << u::formatDuration(r.total_time)
              << "\n"
              << "  energy        " << u::formatEnergy(r.total_energy)
              << "\n"
              << "  fleet power   " << u::formatPower(r.avg_power)
              << "\n"
              << "  bandwidth     "
              << u::formatBandwidth(r.effective_bandwidth) << "\n";
    return 0;
}

int
cmdSweep(int argc, const char *const *argv)
{
    ArgParser args("dhl_cli sweep",
                   "Figure 6 power sweep run through the experiment "
                   "runner: the configured DHL plus every canonical "
                   "optical route, one scenario per series");
    addConfigFlags(args);
    args.addOption("max-kw", "sweep budget ceiling, kW", "40");
    args.addOption("points", "points per continuous series", "16");
    args.addOption("jobs",
                   "parallel scenario jobs; 0 = hardware concurrency, "
                   "1 = exact-serial fallback",
                   "0");
    args.addSwitch("csv", "emit CSV instead of the boxed table");
    args.addSwitch("timings",
                   "also print per-scenario wall times (these vary "
                   "run to run; the result table does not)");
    if (!args.parse(argc, argv, std::cout))
        return 0;

    const core::DhlConfig cfg = configFromFlags(args);
    const double max_power = u::kilowatts(args.getDouble("max-kw"));
    const int n_points = static_cast<int>(args.getInt("points"));
    const mlsim::TrainingWorkload workload = mlsim::dlrmWorkload();

    exp::Experiment fig6("sweep");
    fig6.add(mlsim::dhlSweepScenario(workload, cfg, max_power))
        .separator_after = true;
    for (const auto &route : network::canonicalRoutes()) {
        fig6.add(mlsim::opticalSweepScenario(workload, route, 1.0e3,
                                             max_power, n_points))
            .separator_after = true;
    }

    exp::RunOptions ropts;
    ropts.jobs = static_cast<std::size_t>(args.getInt("jobs"));
    const exp::ExperimentRunner runner(ropts);
    const exp::ExperimentResult result = runner.run(fig6);

    const bool csv = args.getSwitch("csv");
    const TextTable table = result.table(mlsim::sweepHeaders(), !csv);
    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    if (args.getSwitch("timings")) {
        std::cout << "\nScenario timings (" << result.jobs << " jobs, "
                  << u::formatSig(result.wall_seconds * 1e3, 4)
                  << " ms total):\n";
        result.timingTable().print(std::cout);
    }
    return 0;
}

/** A count flag of `dhl_cli plan`; fatal() when negative, before the
 *  value can wrap into a huge std::size_t. */
std::size_t
planCount(const ArgParser &args, const std::string &flag)
{
    const long v = args.getInt(flag);
    if (v < 0)
        fatal("--" + flag + " must be >= 0, got " + std::to_string(v));
    return static_cast<std::size_t>(v);
}

int
cmdPlan(int argc, const char *const *argv)
{
    ArgParser args("dhl_cli plan",
                   "Monte-Carlo capacity planning: size tracks, carts "
                   "and vacuum plants against sampled demand at a "
                   "target SLO quantile");
    addConfigFlags(args);
    args.addOption("users", "median active users, millions", "2");
    args.addOption("users-sigma", "log-normal shape of users", "0.35");
    args.addOption("bytes-per-user", "median demand, GB/user/day", "2");
    args.addOption("bytes-sigma", "log-normal shape of demand", "0.4");
    args.addOption("peak-min", "diurnal peak-factor floor", "1.2");
    args.addOption("peak-max", "diurnal peak-factor ceiling", "3");
    args.addOption("peak-corr", "corr(users, peak) in [-1, 1]", "0.5");
    args.addOption("request-gb", "median interactive request, GB", "64");
    args.addOption("slo", "request-latency SLO, s", "60");
    args.addOption("slo-quantile",
                   "required SLO-attainment quantile (0..1)", "0.999");
    args.addOption("tracks-max", "lattice ceiling on tracks", "6");
    args.addOption("carts-max", "lattice ceiling on carts/track", "12");
    args.addOption("tracks-per-plant",
                   "tracks one vacuum plant evacuates", "4");
    args.addOption("plant-capex", "vacuum-plant capex, USD", "12000");
    args.addOption("cart-capex", "per-cart capex, USD", "1500");
    args.addOption("scenarios", "sampled demand scenarios", "4096");
    args.addOption("bootstrap", "bootstrap resamples for the CI", "200");
    args.addOption("jobs",
                   "parallel lattice jobs; 0 = hardware concurrency, "
                   "1 = exact-serial fallback",
                   "1");
    args.addOption("seed", "root seed (scenarios + bootstrap)", "1");
    args.addSwitch("all", "print every lattice point, not just the "
                          "designs meeting the target");
    args.addSwitch("validate",
                   "DES cross-check of the winner's launch rate");
    args.addSwitch("csv", "emit CSV instead of the boxed table");
    if (!args.parse(argc, argv, std::cout))
        return 0;

    plan::PlannerConfig cfg;
    cfg.assumptions.dhl = configFromFlags(args);
    constexpr double people_per_million = 1.0e6;
    cfg.demand.users_median =
        args.getDouble("users") * people_per_million;
    cfg.demand.users_sigma = args.getDouble("users-sigma");
    cfg.demand.bytes_per_user_day_median =
        u::gigabytes(args.getDouble("bytes-per-user"));
    cfg.demand.bytes_sigma = args.getDouble("bytes-sigma");
    cfg.demand.peak_min = args.getDouble("peak-min");
    cfg.demand.peak_max = args.getDouble("peak-max");
    cfg.demand.peak_user_corr = args.getDouble("peak-corr");
    cfg.demand.request_bytes_median =
        u::gigabytes(args.getDouble("request-gb"));
    cfg.assumptions.slo_latency = args.getDouble("slo");
    cfg.assumptions.target_quantile = args.getDouble("slo-quantile");
    cfg.assumptions.tracks_per_plant = planCount(args, "tracks-per-plant");
    cfg.assumptions.plant_capex = args.getDouble("plant-capex");
    cfg.assumptions.cart_capex = args.getDouble("cart-capex");
    cfg.tracks_max = planCount(args, "tracks-max");
    cfg.carts_max = planCount(args, "carts-max");
    cfg.scenarios = planCount(args, "scenarios");
    cfg.bootstrap = planCount(args, "bootstrap");
    cfg.jobs = planCount(args, "jobs");
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    cfg.validate_des = args.getSwitch("validate");

    const plan::CapacityPlanner planner(cfg);
    const plan::PlanResult result = planner.plan();

    const bool csv = args.getSwitch("csv");
    const bool all = args.getSwitch("all") || csv;
    TextTable table({"design", "capex_usd", "attainment", "ci95_lo",
                     "ci95_hi", "p50_s", "slo_q_s", "util", "energy_day",
                     "meets"});
    for (std::size_t i = 0; i < result.reports.size(); ++i) {
        const plan::DesignReport &r = result.reports[i];
        if (!all && !r.meets_target)
            continue;
        const auto &d = r.constants.design;
        std::string label = "t";
        label += std::to_string(d.tracks);
        label += ".c";
        label += std::to_string(d.carts_per_track);
        label += ".p";
        label += std::to_string(d.plants);
        if (static_cast<std::ptrdiff_t>(i) == result.winner)
            label += " *";
        table.addRow({label, u::formatSig(r.constants.capex, 6),
                      u::formatSig(r.attainment, 5),
                      u::formatSig(r.attainment_lo, 5),
                      u::formatSig(r.attainment_hi, 5),
                      u::formatSig(r.latency_p50, 4),
                      u::formatSig(r.latency_slo_q, 4),
                      u::formatSig(r.mean_utilisation, 4),
                      u::formatEnergy(r.mean_energy_day),
                      r.meets_target ? "yes" : "no"});
    }
    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    if (!csv) {
        if (result.hasWinner()) {
            const plan::DesignReport &w = result.winnerReport();
            const auto &d = w.constants.design;
            std::cout << "\nWinner: " << d.tracks << " tracks x "
                      << d.carts_per_track << " carts, " << d.plants
                      << " plants — capex "
                      << u::formatSig(w.constants.capex, 6)
                      << " USD, attainment "
                      << u::formatSig(w.attainment, 5) << " [95% CI "
                      << u::formatSig(w.attainment_lo, 5) << ", "
                      << u::formatSig(w.attainment_hi, 5) << "]\n";
        } else {
            std::cout << "\nNo lattice point meets the target quantile;"
                      << " widen the lattice or relax the SLO.\n";
        }
        if (result.des.ran) {
            std::cout << "DES cross-check: "
                      << u::formatSig(result.des.des_rate, 4)
                      << " launches/s/track vs closed-form "
                      << u::formatSig(result.des.analytical_rate, 4)
                      << " (ratio "
                      << u::formatSig(result.des.ratio, 4) << ")\n";
        }
    }
    return 0;
}

int
cmdConfig(int argc, const char *const *argv)
{
    ArgParser args("dhl_cli config",
                   "emit the resolved configuration as a properties "
                   "file (redirect to save it)");
    addConfigFlags(args);
    if (!args.parse(argc, argv, std::cout))
        return 0;
    std::cout << core::saveConfig(configFromFlags(args)).toString();
    return 0;
}

void
usage(std::ostream &os)
{
    os << "dhl_cli — data centre hyperloop modelling toolkit\n\n"
       << "Usage: dhl_cli <command> [flags]\n\n"
       << "Commands:\n"
       << "  launch     single-launch metrics\n"
       << "  bulk       closed-form bulk move + route comparisons\n"
       << "  simulate   event-driven bulk move\n"
       << "  cost       materials cost (Table VIII)\n"
       << "  tco        capex + energy opex vs the network\n"
       << "  crossover  break-even dataset sizes (§V-E)\n"
       << "  ingest     training-epoch ingestion stalls\n"
       << "  sweep      Figure 6 power sweep (--jobs N parallel "
          "scenarios)\n"
       << "  fleet      event-driven bulk move over parallel tracks\n"
       << "  serve      open-loop serving: staged load, per-stage "
          "SLOs,\n"
       << "             checkpoint/restore across DES epochs\n"
       << "  plan       Monte-Carlo capacity planning at a target SLO\n"
          "             quantile (--jobs N parallel lattice points)\n"
       << "  config     emit the resolved configuration as properties\n\n"
       << "Run 'dhl_cli <command> --help' for that command's flags.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(std::cout);
        return 1;
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "launch")
            return cmdLaunch(argc - 1, argv + 1);
        if (cmd == "bulk")
            return cmdBulk(argc - 1, argv + 1);
        if (cmd == "simulate")
            return cmdSimulate(argc - 1, argv + 1);
        if (cmd == "cost")
            return cmdCost(argc - 1, argv + 1);
        if (cmd == "tco")
            return cmdTco(argc - 1, argv + 1);
        if (cmd == "crossover")
            return cmdCrossover(argc - 1, argv + 1);
        if (cmd == "ingest")
            return cmdIngest(argc - 1, argv + 1);
        if (cmd == "sweep")
            return cmdSweep(argc - 1, argv + 1);
        if (cmd == "fleet")
            return cmdFleet(argc - 1, argv + 1);
        if (cmd == "serve")
            return cmdServe(argc - 1, argv + 1);
        if (cmd == "plan")
            return cmdPlan(argc - 1, argv + 1);
        if (cmd == "config")
            return cmdConfig(argc - 1, argv + 1);
        if (cmd == "--help" || cmd == "-h" || cmd == "help") {
            usage(std::cout);
            return 0;
        }
        std::cerr << "unknown command: " << cmd << "\n\n";
        usage(std::cerr);
        return 1;
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
