/**
 * @file
 * dhl_perfbench — the repository benchmark.
 *
 * One process runs one workload, single-threaded, and prints one JSON
 * object as its last line of output:
 *
 *   serve_soak    DHL-only ServingSim fleet: 16 tracks, a day-long
 *                 ramp/peak/cool profile near fleet capacity, faults,
 *                 shared plants, a maintenance window, in-memory
 *                 checkpoints and one mid-run restore hop.
 *   serve_hybrid  the same engine with TE in hybrid mode: small
 *                 requests ride the optical uplink (FlowSim), bulk
 *                 ones ride carts, with ~10^3 optical flows active.
 *   plan_lattice  CapacityPlanner::plan() on E21's heavy tier with a
 *                 larger scenario stream and a pinned winner.
 *
 * A round is set-up (config, warm-up, construction) followed by the
 * timed phase; rounds repeat until --seconds have passed and the
 * end-to-end metrics are medians over rounds.  Outputs are checked
 * outside the timed phase: per-epoch conservation, a pinned digest of
 * the simulated outputs for the default seed, the restore-hop oracle
 * (serve_soak) and the scalar/batch identity (plan_lattice).
 *
 * --trace 1 alternates untraced and traced rounds.  A traced round
 * records spans and counts around the public calls into each layer
 * (the program itself is not instrumented), and the per-layer metrics
 * are derived from them.  Tracing reads only host clocks and public
 * accessors, so the simulated digest must not change; that is checked.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "exp/slo.hpp"
#include "plan/planner.hpp"
#include "serve/serving.hpp"

using namespace dhl;
namespace u = dhl::units;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The seed whose simulated outputs are pinned below. */
constexpr std::uint64_t kDefaultSeed = 1;

//----------------------------------------------------------------------
// Command line
//----------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny sizes for the self-test (different pinned digests). */
    bool tiny = false;
    /** Overrides the pinned digest (self-test of the check). */
    std::string expect_digest;
    /** Chrome trace-event JSON of the recorded spans (--trace 1). */
    std::string trace_out;
    /** Print the generated inputs' fingerprint and exit. */
    bool print_inputs = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "dhl_perfbench: " << why << "\n"
              << "usage: dhl_perfbench --workload serve_soak|serve_hybrid|"
                 "plan_lattice --seed N --seconds S --trace 0|1\n"
                 "       [--scale full|tiny] [--expect-digest HEX]\n"
                 "       [--trace-out FILE] [--print-inputs]\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--print-inputs") {
            o.print_inputs = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = v;
            else if (flag == "--seed")
                o.seed = std::stoull(v);
            else if (flag == "--seconds")
                o.seconds = std::stod(v);
            else if (flag == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (flag == "--scale" && (v == "full" || v == "tiny"))
                o.tiny = v == "tiny";
            else if (flag == "--expect-digest")
                o.expect_digest = v;
            else if (flag == "--trace-out")
                o.trace_out = v;
            else
                usage("bad flag " + flag + " " + v);
        } catch (const std::exception &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (o.workload != "serve_soak" && o.workload != "serve_hybrid" &&
        o.workload != "plan_lattice")
        usage("unknown workload '" + o.workload + "'");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

//----------------------------------------------------------------------
// Small helpers
//----------------------------------------------------------------------

/** FNV-1a 64 of @p s as 16 hex digits. */
std::string
digestOf(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Full-precision decimal form of @p v for digests and JSON. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentileOf(std::vector<double> v, double p)
{
    return v.empty() ? 0.0 : stats::percentile(v, p);
}

double
ratio(double num_, double den)
{
    return den > 0.0 ? num_ / den : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux
}

/** Output-check accounting behind `attempted`, `failed`, pass_frac. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failed <= 20)
                std::cerr << "check failed: " << what << "\n";
        }
    }
};

//----------------------------------------------------------------------
// Tracing: spans and counts recorded around public calls
//----------------------------------------------------------------------

/**
 * In-memory span recorder.  Spans nest through an explicit parent id;
 * they are written out once, after the last round, as Chrome
 * trace-event JSON.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start; ///< s since the tracer was built
        double end;
        int parent;   ///< -1 = root
    };

    int begin(const std::string &name, int parent = -1)
    {
        spans_.push_back({name, since(t0_), 0.0, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Close span @p id; returns its duration in seconds. */
    double end(int id)
    {
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.end = since(t0_);
        return s.end - s.start;
    }

    void write(const std::string &path) const
    {
        std::ofstream os(path, std::ios::trunc);
        if (!os) {
            std::cerr << "cannot write trace to " << path << "\n";
            return;
        }
        os << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
               << num(s.start * 1e6)
               << ",\"dur\":" << num((s.end - s.start) * 1e6)
               << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
               << "}}";
        }
        os << "\n]}\n";
    }

  private:
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
};

/** Per-layer metrics of one traced round, by name. */
using Layer = std::map<std::string, double>;

/** The per-layer metric names and units (every workload emits all). */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"serve.construct_s", "s"},
    {"serve.step_s", "s"},
    {"serve.step_p50_ms", "ms"},
    {"serve.step_p95_ms", "ms"},
    {"serve.epochs", "count"},
    {"serve.offered", "count"},
    {"serve.served", "count"},
    {"serve.shed", "count"},
    {"serve.deferred", "count"},
    {"serve.backlog_peak", "count"},
    {"serve.admit_ratio", "ratio"},
    {"exp.slo_table_s", "s"},
    {"sim.events_executed", "count"},
    {"sim.cancel_ratio", "ratio"},
    {"sim.ns_per_event", "ns"},
    {"sim.snapshot_save_s", "s"},
    {"sim.snapshot_save_p95_ms", "ms"},
    {"sim.snapshot_count", "count"},
    {"sim.snapshot_bytes_last", "B"},
    {"sim.snapshot_restore_s", "s"},
    {"dhl.launches", "count"},
    {"dhl.parked_launches", "count"},
    {"dhl.held_opens", "count"},
    {"dhl.launches_per_served", "ratio"},
    {"faults.failures", "count"},
    {"faults.repairs", "count"},
    {"faults.availability_min", "ratio"},
    {"te.ticks", "count"},
    {"te.downgrades", "count"},
    {"te.optical_served", "count"},
    {"te.optical_share", "ratio"},
    {"network.flows_completed", "count"},
    {"network.bytes_delivered", "B"},
    {"network.mean_active_flows", "count"},
    {"network.us_per_flow", "us"},
    {"plan.plan_s", "s"},
    {"plan.points", "count"},
    {"plan.sample_s", "s"},
    {"plan.constants_s", "s"},
    {"plan.eval_s", "s"},
    {"plan.sketch_s", "s"},
    {"plan.residual_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

//----------------------------------------------------------------------
// Rounds
//----------------------------------------------------------------------

/** What one round measured. */
struct Round
{
    double setup_s = 0.0;
    double wall_s = 0.0;
    double work = 0.0;    ///< Fixed work units of the timed phase.
    std::string outcome;  ///< Canonical simulated outputs (digested).
    Layer layer;          ///< Traced rounds only.
};

/** A workload: its round and its output checks. */
struct Workload
{
    /** Canonical fingerprint of the generated inputs. */
    std::function<std::string()> inputs;
    /** Run one round; @p tr is null when untraced. */
    std::function<Round(Tracer *tr)> round;
    /** Untimed checks that need their own run (reference run, oracle);
     *  returns the reference outcome every round must reproduce. */
    std::function<std::string(Checks &)> reference;
    /** Pinned digests of the default seed: {full, tiny}. */
    const char *pinned_full;
    const char *pinned_tiny;
};

//----------------------------------------------------------------------
// serve_soak and serve_hybrid
//----------------------------------------------------------------------

/** How a serve round drives the fleet beyond its config. */
struct ServeDrive
{
    std::size_t warmup_epochs = 0;    ///< Throwaway fleet, set-up phase.
    std::size_t checkpoint_every = 0; ///< 0 = no checkpoints.
    std::size_t hop_at = 0;           ///< Restore hop epoch, 0 = none.
};

workloads::RequestClass
requestClass(const char *tag, double weight, double median_gb,
             double sigma, int priority)
{
    return workloads::RequestClass{tag, weight, u::gigabytes(median_gb),
                                   sigma, priority};
}

serve::ServeConfig
soakConfig(std::uint64_t seed, bool tiny)
{
    serve::ServeConfig cfg;
    cfg.dhl = core::defaultConfig();
    cfg.dhl.docking_stations = 2;
    cfg.tracks = tiny ? 4 : 16;
    cfg.seed = seed;
    cfg.epoch = 600.0;
    cfg.carts_per_track = 4;
    cfg.max_pending = tiny ? 256 : 1024;
    cfg.policy = ops::DispatchPolicy::AvailabilityAware;
    cfg.min_priority_degraded = 0;

    // Day-long ramp / peak / cool with lognormal sizes: a bulk class
    // and a smaller, higher-priority urgent class.
    const double stage = tiny ? 3600.0 : 8.0 * 3600.0;
    const double peak = tiny ? 0.15 : 0.6; // req/s, near capacity
    const std::vector<workloads::RequestClass> mix = {
        requestClass("bulk", 3.0, 64.0, 0.8, 0),
        requestClass("urgent", 1.0, 16.0, 0.8, 1),
    };
    cfg.stages = {
        workloads::StageSpec{"ramp", stage, 0.0, peak, mix},
        workloads::StageSpec{"peak", stage, peak, peak, mix},
        workloads::StageSpec{"cool", stage, peak, 0.0, mix},
    };

    // Accelerated component faults (hours), so outages land in the run.
    cfg.faults.enabled = true;
    cfg.faults.seed = deriveSeed(seed, 0xfa17);
    cfg.faults.lim_mtbf = 48.0;
    cfg.faults.lim_mttr = 0.5;
    cfg.faults.track_mtbf = 96.0;
    cfg.faults.track_mttr = 1.0;
    cfg.faults.station_mtbf = 72.0;
    cfg.faults.station_mttr = 0.25;
    cfg.faults.cart_repair_per_trip = 1e-3;
    cfg.faults.cart_repair_hours = 0.25;

    // Shared vacuum plants, four tracks each, tripping a few times a day.
    cfg.domains.enabled = true;
    cfg.domains.domain_size = 4;
    cfg.domains.plant_mtbf = 24.0;
    cfg.domains.plant_mttr = 0.5;
    cfg.domains.seed = deriveSeed(seed, 0x91a7);

    // One periodic maintenance window: track 1, 30 min every 6 h.
    cfg.maintenance.windows.push_back(
        {2.0 * 3600.0, 1800.0, 6.0 * 3600.0, 1});
    return cfg;
}

serve::ServeConfig
hybridConfig(std::uint64_t seed, bool tiny)
{
    serve::ServeConfig cfg;
    cfg.dhl = core::defaultConfig();
    cfg.tracks = 4;
    cfg.seed = seed;
    cfg.epoch = 600.0;
    cfg.carts_per_track = 4;
    cfg.max_pending = 1024;
    cfg.policy = ops::DispatchPolicy::LeastQueued;

    // Widely spread sizes around the 8 GB TE threshold: the small half
    // rides optical, the rest rides carts.  The peak overloads the
    // uplink, so optical flows pile up to ~10^3 and drain afterwards.
    const double rate = tiny ? 6.0 : 20.0;
    const std::vector<workloads::RequestClass> mix = {
        requestClass("mixed", 1.0, 8.0, 1.5, 0),
    };
    const double ramp = tiny ? 300.0 : 600.0;
    const double peak = 300.0;
    cfg.stages = {
        workloads::StageSpec{"ramp", ramp, 0.0, rate, mix},
        workloads::StageSpec{"peak", peak, rate, rate, mix},
        workloads::StageSpec{"cool", ramp, rate, 0.0, mix},
    };

    cfg.te.enabled = true;
    cfg.te.mode = te::TeMode::Hybrid;
    cfg.te.control_period = 60.0;
    cfg.te.small_bytes = u::gigabytes(8.0);
    cfg.te.optical_capacity = u::gigabitsPerSecond(100.0);
    cfg.te.headroom = 0.9;
    cfg.te.usage_multiplier = 1.1;
    cfg.te.history = 8;
    cfg.te.min_priority_contended = 1;
    cfg.te.route = "C";
    return cfg;
}

std::string
configFingerprint(const serve::ServeConfig &cfg)
{
    std::ostringstream os;
    os << "tracks=" << cfg.tracks << " seed=" << cfg.seed
       << " fault_seed=" << cfg.faults.seed
       << " plant_seed=" << cfg.domains.seed;
    for (const auto &s : cfg.stages) {
        os << " " << s.name << ":" << num(s.duration) << ":"
           << num(s.start_rate) << ":" << num(s.end_rate);
        for (const auto &c : s.mix)
            os << ":" << c.tag << "/" << num(c.median_bytes) << "/"
               << num(c.sigma);
    }
    return os.str();
}

/** Σ over stages of the SLO counters. */
struct StageTotals
{
    std::uint64_t offered = 0, served = 0, shed = 0, deferred = 0;
};

StageTotals
stageTotals(const serve::ServingSim &sim)
{
    StageTotals t;
    for (std::size_t i = 0; i < sim.config().stages.size(); ++i) {
        const stats::SloAccumulator &s = sim.stageSlo(i);
        t.offered += s.offered();
        t.served += s.served();
        t.shed += s.shed();
        t.deferred += s.deferred();
    }
    return t;
}

/** The simulated outputs every round must reproduce exactly. */
std::string
serveOutcome(serve::ServingSim &sim, Tracer *tr, int parent, Layer *layer)
{
    const int span = tr ? tr->begin("exp.slo_table", parent) : -1;
    const std::vector<exp::StageSlo> slo = sim.sloTable();
    std::vector<exp::ClassSlo> classes;
    if (sim.teEnabled())
        classes = sim.teTable();
    if (tr)
        (*layer)["exp.slo_table_s"] = tr->end(span);

    std::ostringstream os;
    for (const exp::StageSlo &s : slo)
        os << s.name << "|" << num(s.start) << "|" << num(s.duration)
           << "|" << s.offered << "|" << s.served << "|" << s.deferred
           << "|" << s.shed << "|" << num(s.p50) << "|" << num(s.p99)
           << "|" << num(s.p999) << "|" << num(s.availability) << "|"
           << num(s.goodput) << "\n";
    for (const exp::ClassSlo &c : classes)
        os << c.name << "|" << c.substrate << "|" << c.offered << "|"
           << c.served << "|" << c.deferred << "|" << c.shed << "|"
           << num(c.p50) << "|" << num(c.p99) << "|" << num(c.goodput)
           << "\n";
    os << "served=" << sim.totalServed() << " shed=" << sim.totalShed()
       << " backlog=" << sim.queueDepth()
       << " launches=" << sim.totalLaunches()
       << " energy=" << num(sim.totalEnergy()) << " end=" << num(sim.now())
       << " epochs=" << sim.epochsCompleted();
    if (sim.teEnabled())
        os << " optical_served=" << sim.opticalServed()
           << " downgrades=" << sim.teDowngrades()
           << " optical_energy=" << num(sim.opticalEnergy());
    return os.str();
}

/** Sum the dumpStats values whose name ends with @p suffix (and, when
 *  @p prefix is non-empty, starts with it). */
double
statSum(const std::string &dump, const std::string &prefix,
        const std::string &suffix)
{
    double sum = 0.0;
    std::istringstream is(dump);
    std::string name;
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        double v = 0.0;
        if (!(ls >> name >> v))
            continue;
        if (name.size() >= suffix.size() &&
            name.compare(0, prefix.size(), prefix) == 0 &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            sum += v;
    }
    return sum;
}

/** The counts of a finished traced round, read through public calls. */
void
serveCounts(serve::ServingSim &sim, Layer &l)
{
    const StageTotals t = stageTotals(sim);
    l["serve.epochs"] = static_cast<double>(sim.epochsCompleted());
    l["serve.offered"] = static_cast<double>(t.offered);
    l["serve.served"] = static_cast<double>(sim.totalServed());
    l["serve.shed"] = static_cast<double>(sim.totalShed());
    l["serve.deferred"] = static_cast<double>(t.deferred);
    l["serve.admit_ratio"] = ratio(static_cast<double>(sim.totalServed()),
                                   static_cast<double>(t.offered));

    std::ostringstream os;
    sim.dumpStats(os);
    const std::string dump = os.str();
    const double executed = statSum(dump, "kernel.", ".events_executed");
    l["sim.events_executed"] = executed;
    l["sim.cancel_ratio"] =
        ratio(statSum(dump, "kernel.", ".events_cancelled"),
              statSum(dump, "kernel.", ".events_scheduled"));
    l["sim.ns_per_event"] = ratio(l["serve.step_s"] * 1e9, executed);

    const double launches = static_cast<double>(sim.totalLaunches());
    l["dhl.launches"] = launches;
    l["dhl.parked_launches"] = statSum(dump, "track", ".parked_launches");
    l["dhl.held_opens"] = statSum(dump, "track", ".held_opens");
    l["dhl.launches_per_served"] =
        ratio(launches, static_cast<double>(sim.totalServed()));
    l["faults.failures"] = statSum(dump, "faults", ".failures");
    l["faults.repairs"] = statSum(dump, "faults", ".repairs");
    double avail = 1.0;
    for (std::size_t i = 0; i < sim.config().stages.size(); ++i)
        avail = std::min(avail, sim.stageAvailability(i));
    l["faults.availability_min"] = avail;

    if (sim.teEnabled()) {
        l["te.ticks"] = statSum(dump, "te.", ".ticks");
        l["te.downgrades"] = static_cast<double>(sim.teDowngrades());
        l["te.optical_served"] = static_cast<double>(sim.opticalServed());
        l["te.optical_share"] =
            ratio(static_cast<double>(sim.opticalServed()),
                  static_cast<double>(sim.totalServed()));
        const double flows =
            statSum(dump, "optical.", ".flows_completed");
        l["network.flows_completed"] = flows;
        l["network.bytes_delivered"] =
            statSum(dump, "optical.", ".bytes_delivered");
        l["network.mean_active_flows"] =
            ratio(statSum(dump, "optical.", ".flow_duration.sum"),
                  sim.now());
        l["network.us_per_flow"] = ratio(l["serve.step_s"] * 1e6, flows);
    }
}

/** Step the fleet to completion with the drive's checkpoints and hop,
 *  then digest its outputs.  The timed phase of a serve round. */
std::string
driveFleet(std::unique_ptr<serve::ServingSim> &sim,
           const serve::ServeConfig &cfg, const ServeDrive &drive,
           Tracer *tr, int parent, Layer *layer)
{
    std::vector<double> step_ms;
    std::vector<double> save_ms;
    std::size_t snapshot_bytes = 0;
    std::size_t backlog_peak = 0;
    double restore_s = 0.0;

    for (std::size_t epoch = 1;; ++epoch) {
        const int span = tr ? tr->begin("serve.step_epoch", parent) : -1;
        const bool stepped = sim->stepEpoch();
        if (tr)
            step_ms.push_back(tr->end(span) * 1e3);
        if (!stepped)
            break;
        backlog_peak = std::max(backlog_peak, sim->queueDepth());

        const bool hop = epoch == drive.hop_at;
        if (!hop && (drive.checkpoint_every == 0 ||
                     epoch % drive.checkpoint_every != 0))
            continue;
        std::stringstream ck;
        const int save = tr ? tr->begin("sim.snapshot_save", parent) : -1;
        sim->checkpoint(ck);
        if (tr)
            save_ms.push_back(tr->end(save) * 1e3);
        snapshot_bytes = static_cast<std::size_t>(ck.tellp());
        if (hop) {
            auto fresh = std::make_unique<serve::ServingSim>(cfg);
            const int rs =
                tr ? tr->begin("sim.snapshot_restore", parent) : -1;
            fresh->restore(ck);
            if (tr)
                restore_s += tr->end(rs);
            sim = std::move(fresh);
        }
    }

    // The final (failed) stepEpoch() call is the run's done() probe,
    // not an epoch; keep only the epochs in the step spans.
    if (!step_ms.empty())
        step_ms.pop_back();
    std::string outcome = serveOutcome(*sim, tr, parent, layer);
    if (tr) {
        Layer &l = *layer;
        double step_s = 0.0;
        for (double ms : step_ms)
            step_s += ms * 1e-3;
        l["serve.step_s"] = step_s;
        l["serve.step_p50_ms"] = percentileOf(step_ms, 50.0);
        l["serve.step_p95_ms"] = percentileOf(step_ms, 95.0);
        l["serve.backlog_peak"] = static_cast<double>(backlog_peak);
        double save_s = 0.0;
        for (double ms : save_ms)
            save_s += ms * 1e-3;
        l["sim.snapshot_save_s"] = save_s;
        l["sim.snapshot_save_p95_ms"] = percentileOf(save_ms, 95.0);
        l["sim.snapshot_count"] = static_cast<double>(save_ms.size());
        l["sim.snapshot_bytes_last"] = static_cast<double>(snapshot_bytes);
        l["sim.snapshot_restore_s"] = restore_s;
    }
    return outcome;
}

Workload
serveWorkload(const Options &o, bool hybrid)
{
    const std::uint64_t seed = o.seed;
    const bool tiny = o.tiny;
    auto config = [tiny, hybrid](std::uint64_t s) {
        return hybrid ? hybridConfig(s, tiny) : soakConfig(s, tiny);
    };
    // Warm-up: the default seed's first 4 h (soak) or first epoch
    // (hybrid), so set-up does the same work whatever the seed.
    // serve_soak checkpoints every 2 h of simulated time and hops
    // mid-profile; serve_hybrid does neither.
    ServeDrive drive;
    drive.warmup_epochs = hybrid ? 1 : tiny ? 2 : 24;
    if (!hybrid) {
        drive.checkpoint_every = tiny ? 2 : 12;
        drive.hop_at = tiny ? 9 : 72;
    }

    Workload w;
    w.inputs = [config, seed] { return configFingerprint(config(seed)); };
    w.round = [config, seed, drive](Tracer *tr) {
        Round r;
        const int round_span = tr ? tr->begin("round") : -1;
        const auto t0 = Clock::now();
        const serve::ServeConfig cfg = config(seed);
        {
            // A throwaway fleet steps the profile's opening.
            serve::ServingSim warm(config(kDefaultSeed));
            for (std::size_t i = 0;
                 i < drive.warmup_epochs && warm.stepEpoch(); ++i) {
            }
        }
        const int cs = tr ? tr->begin("serve.construct", round_span) : -1;
        auto sim = std::make_unique<serve::ServingSim>(cfg);
        if (tr)
            r.layer["serve.construct_s"] = tr->end(cs);
        r.setup_s = since(t0);

        const auto t1 = Clock::now();
        r.outcome = driveFleet(sim, cfg, drive, tr, round_span, &r.layer);
        r.wall_s = since(t1);
        r.work = static_cast<double>(sim->totalServed());
        if (tr) {
            tr->end(round_span);
            serveCounts(*sim, r.layer);
        }
        return r;
    };
    w.reference = [config, seed, hybrid](Checks &checks) {
        // Uninterrupted run, no checkpoints: conservation at every
        // drained epoch boundary.
        serve::ServingSim sim(config(seed));
        while (sim.stepEpoch()) {
            const StageTotals t = stageTotals(sim);
            checks.expect(
                sim.inFlight() == 0 && t.served == sim.totalServed() &&
                    t.shed == sim.totalShed() &&
                    t.offered ==
                        t.served + t.shed + sim.queueDepth(),
                "conservation at epoch " +
                    std::to_string(sim.epochsCompleted()));
        }
        checks.expect(sim.done() && sim.queueDepth() == 0 &&
                          sim.totalServed() > 0,
                      "profile drained with work served");
        if (hybrid) {
            std::uint64_t optical = 0;
            std::uint64_t dhl = 0;
            for (const exp::ClassSlo &c : sim.teTable())
                (c.substrate == std::string("optical") ? optical : dhl) +=
                    c.served;
            checks.expect(optical == sim.opticalServed() &&
                              optical + dhl == sim.totalServed() &&
                              optical > 0 && dhl > 0,
                          "optical + DHL served = served");
        }
        return serveOutcome(sim, nullptr, -1, nullptr);
    };
    w.pinned_full = hybrid ? "fcdc052bc195e0e9" : "8ac85526a9d0f467";
    w.pinned_tiny = hybrid ? "94144b6a6c52424c" : "18ea8a4d6e2e09c9";
    return w;
}

//----------------------------------------------------------------------
// plan_lattice
//----------------------------------------------------------------------

/** E21's heavy tier with a larger scenario stream, DES check off. */
plan::PlannerConfig
latticeConfig(std::uint64_t seed, bool tiny)
{
    plan::PlannerConfig cfg;
    cfg.assumptions.dhl = core::defaultConfig();
    cfg.assumptions.dhl.track_mode = core::TrackMode::Pipelined;
    cfg.assumptions.dhl.docking_stations = 2;
    cfg.assumptions.slo_latency = 60.0;
    cfg.assumptions.target_quantile = 0.9;
    cfg.demand.users_median = tiny ? 1.0e6 : 2.0e6;
    cfg.tracks_max = 8;
    cfg.carts_max = 10;
    cfg.scenarios = tiny ? 512 : 16384;
    cfg.bootstrap = tiny ? 20 : 100;
    cfg.validate_des = false;
    cfg.jobs = 1;
    cfg.seed = seed;
    return cfg;
}

std::string
designLabel(const plan::DesignPoint &d)
{
    return "t" + std::to_string(d.tracks) + ".c" +
           std::to_string(d.carts_per_track) + ".p" +
           std::to_string(d.plants);
}

std::string
planOutcome(const plan::PlanResult &res)
{
    std::ostringstream os;
    for (const plan::DesignReport &r : res.reports)
        os << designLabel(r.constants.design) << "|"
           << num(r.constants.capex) << "|" << num(r.attainment) << "|"
           << num(r.attainment_lo) << "|" << num(r.attainment_hi) << "|"
           << num(r.latency_p50) << "|" << num(r.latency_slo_q) << "|"
           << num(r.mean_utilisation) << "|" << num(r.mean_energy_day)
           << "|" << r.meets_target << "\n";
    os << "winner="
       << (res.hasWinner() ? designLabel(res.winnerReport().constants.design)
                           : std::string("none"))
       << " scenarios=" << res.scenarios;
    return os.str();
}

/** Re-run the planner's layers on the workload's own inputs, one
 *  public call at a time (traced rounds only). */
void
planLayers(const plan::PlannerConfig &cfg, const plan::CapacityPlanner &p,
           Tracer &tr, int parent, Layer &l)
{
    const std::vector<plan::DesignPoint> points = p.lattice();
    const plan::ScenarioSampler sampler(cfg.demand, cfg.seed);
    std::vector<plan::ScenarioBatch> batches;

    int span = tr.begin("plan.sample", parent);
    for (std::uint64_t first = 0; first < cfg.scenarios;
         first += cfg.batch) {
        batches.emplace_back();
        sampler.fill(first,
                     static_cast<std::size_t>(std::min<std::uint64_t>(
                         cfg.batch, cfg.scenarios - first)),
                     batches.back());
    }
    l["plan.sample_s"] = tr.end(span);

    std::vector<plan::DesignConstants> constants;
    span = tr.begin("plan.constants", parent);
    for (const plan::DesignPoint &d : points)
        constants.push_back(plan::designConstants(cfg.assumptions, d));
    l["plan.constants_s"] = tr.end(span);

    double eval_s = 0.0;
    double sketch_s = 0.0;
    plan::EvalBatch out;
    const double clamp = cfg.latencyClamp();
    for (const plan::DesignConstants &c : constants) {
        const auto ts = Clock::now();
        stats::QuantileSketch sketch(0.0, clamp, cfg.sketch_bins);
        sketch_s += since(ts);
        for (const plan::ScenarioBatch &in : batches) {
            const auto t_eval = Clock::now();
            plan::evaluateBatch(c, in, cfg.assumptions.slo_latency, out);
            const auto tk = Clock::now();
            for (std::size_t i = 0; i < out.size(); ++i)
                sketch.sample(std::min(out.latency[i], clamp));
            eval_s += std::chrono::duration<double>(tk - t_eval).count();
            sketch_s += since(tk);
        }
    }
    l["plan.eval_s"] = eval_s;
    l["plan.sketch_s"] = sketch_s;
    l["plan.points"] = static_cast<double>(points.size());
    l["plan.residual_s"] = l["plan.plan_s"] -
                           l["plan.points"] * l["plan.sample_s"] -
                           l["plan.constants_s"] - eval_s - sketch_s;
}

/** Bit-for-bit equality of two doubles (NaN-safe). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

Workload
planWorkload(const Options &o)
{
    const std::uint64_t seed = o.seed;
    const bool tiny = o.tiny;

    Workload w;
    w.inputs = [seed, tiny] {
        const plan::PlannerConfig cfg = latticeConfig(seed, tiny);
        const plan::ScenarioSampler sampler(cfg.demand, cfg.seed);
        std::ostringstream os;
        os << "seed=" << cfg.seed << " scenarios=" << cfg.scenarios;
        for (std::uint64_t i = 0; i < 4; ++i) {
            const plan::Scenario s = sampler.at(i);
            os << " [" << num(s.users) << "," << num(s.bytes_per_user_day)
               << "," << num(s.peak_factor) << "," << num(s.bulk_share)
               << "," << num(s.request_bytes) << "]";
        }
        return os.str();
    };
    w.round = [seed, tiny](Tracer *tr) {
        Round r;
        const int round_span = tr ? tr->begin("round") : -1;
        const auto t0 = Clock::now();
        const plan::PlannerConfig cfg = latticeConfig(seed, tiny);
        {
            // Warm-up: the default seed's lattice against 1/16 of the
            // stream, the same work whatever the seed.
            plan::PlannerConfig warm_cfg = latticeConfig(kDefaultSeed, tiny);
            warm_cfg.scenarios = std::max<std::size_t>(cfg.scenarios / 16, 1);
            plan::CapacityPlanner(warm_cfg).plan();
        }
        const plan::CapacityPlanner planner(cfg);
        r.setup_s = since(t0);

        const auto t1 = Clock::now();
        const int ps = tr ? tr->begin("plan.plan", round_span) : -1;
        const plan::PlanResult res = planner.plan();
        if (tr)
            r.layer["plan.plan_s"] = tr->end(ps);
        r.outcome = planOutcome(res);
        r.wall_s = since(t1);
        r.work = static_cast<double>(cfg.scenarios * res.reports.size());
        if (tr) {
            planLayers(cfg, planner, *tr, round_span, r.layer);
            tr->end(round_span);
        }
        return r;
    };
    w.reference = [seed, tiny](Checks &checks) {
        const plan::PlannerConfig cfg = latticeConfig(seed, tiny);
        const plan::CapacityPlanner planner(cfg);
        const plan::PlanResult res = planner.plan();
        const double q = cfg.assumptions.target_quantile;

        // Every lattice point: internally consistent report.
        for (const plan::DesignReport &r : res.reports) {
            const bool ok =
                r.attainment >= 0.0 && r.attainment <= 1.0 &&
                r.attainment_lo <= r.attainment_hi &&
                r.latency_p50 <= r.latency_slo_q &&
                r.constants.capex > 0.0 &&
                r.meets_target ==
                    (r.constants.feasible && r.attainment >= q);
            checks.expect(ok, "report " + designLabel(r.constants.design));
        }

        // The winner meets its target and nothing cheaper does.
        bool winner_ok = res.hasWinner();
        if (winner_ok) {
            const plan::DesignReport &win = res.winnerReport();
            winner_ok = win.meets_target && win.attainment >= q;
            for (const plan::DesignReport &r : res.reports)
                if (r.meets_target &&
                    r.constants.capex < win.constants.capex)
                    winner_ok = false;
        }
        checks.expect(winner_ok, "winner meets its target and is cheapest");
        if (seed == kDefaultSeed) {
            const char *pinned = tiny ? "t5.c6.p2" : "t8.c6.p2";
            checks.expect(res.hasWinner() &&
                              designLabel(res.winnerReport()
                                              .constants.design) == pinned,
                          std::string("winner is the pinned ") + pinned);
        }

        // evaluateScalar == evaluateBatch bit for bit, on the winner and
        // every eighth lattice point, over a sample of the stream.
        const plan::ScenarioSampler sampler(cfg.demand, cfg.seed);
        plan::ScenarioBatch in;
        sampler.fill(0, std::min<std::size_t>(cfg.scenarios, 256), in);
        std::vector<plan::DesignPoint> designs;
        if (res.hasWinner())
            designs.push_back(res.winnerReport().constants.design);
        for (std::size_t i = 0; i < res.reports.size(); i += 8)
            designs.push_back(res.reports[i].constants.design);
        plan::EvalBatch out;
        for (const plan::DesignPoint &d : designs) {
            plan::evaluateBatch(plan::designConstants(cfg.assumptions, d),
                                in, cfg.assumptions.slo_latency, out);
            bool same = out.size() == in.size();
            for (std::size_t i = 0; same && i < in.size(); ++i) {
                const plan::ScenarioOutcome s =
                    plan::evaluateScalar(cfg.assumptions, d, in.row(i));
                same = sameBits(s.utilisation, out.utilisation[i]) &&
                       sameBits(s.latency, out.latency[i]) &&
                       sameBits(s.energy_day, out.energy_day[i]) &&
                       s.meets_slo == (out.meets_slo[i] != 0);
            }
            checks.expect(same, "scalar == batch at " + designLabel(d));
        }
        return planOutcome(res);
    };
    w.pinned_full = "c32d36f7205eee81";
    w.pinned_tiny = "aafcba347f9e227e";
    return w;
}

//----------------------------------------------------------------------
// Main
//----------------------------------------------------------------------

void
emitMetric(std::ostringstream &os, bool &first, const std::string &name,
           double value, const std::string &unit)
{
    if (!std::isfinite(value))
        value = 0.0;
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << num(value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    const bool hybrid = o.workload == "serve_hybrid";
    const Workload w = o.workload == "plan_lattice"
                           ? planWorkload(o)
                           : serveWorkload(o, hybrid);
    if (o.print_inputs) {
        std::cout << w.inputs() << "\n";
        return 0;
    }

    // Untimed reference run and its checks.
    Checks checks;
    const std::string reference = w.reference(checks);
    const std::string digest = digestOf(reference);
    std::cerr << o.workload << " seed " << o.seed << " digest " << digest
              << "\n  "
              << reference.substr(reference.find_last_of('\n') + 1) << "\n";
    std::string expected = o.expect_digest;
    if (expected.empty() && o.seed == kDefaultSeed)
        expected = o.tiny ? w.pinned_tiny : w.pinned_full;
    if (!expected.empty())
        checks.expect(digest == expected,
                      "digest " + digest + " != pinned " + expected);

    // Timed rounds until the budget is spent (at least three; with
    // --trace 1, untraced and traced rounds alternate).
    Tracer tracer;
    std::vector<Round> plain;
    std::vector<Round> traced;
    const auto start = Clock::now();
    while (since(start) < o.seconds || plain.size() < 3 ||
           (o.trace && traced.size() < 3)) {
        const bool trace_this = o.trace && traced.size() < plain.size();
        Round r = w.round(trace_this ? &tracer : nullptr);
        checks.expect(r.outcome == reference,
                      std::string(trace_this ? "traced" : "untraced") +
                          " round reproduces the reference outcome");
        (trace_this ? traced : plain).push_back(std::move(r));
    }

    std::vector<double> setup, wall, rate;
    for (const Round &r : plain) {
        setup.push_back(r.setup_s);
        wall.push_back(r.wall_s);
        rate.push_back(r.work / r.wall_s);
    }

    std::ostringstream metrics;
    bool first = true;
    if (!o.trace) {
        emitMetric(metrics, first, "wall_s", median(wall), "s");
        emitMetric(metrics, first, "work_per_s", median(rate), "1/s");
        emitMetric(metrics, first, "setup_s", median(setup), "s");
        emitMetric(metrics, first, "peak_rss_mb", peakRssMb(), "MB");
        emitMetric(metrics, first, "pass_frac",
                   1.0 - ratio(static_cast<double>(checks.failed),
                               static_cast<double>(checks.attempted)),
                   "ratio");
    } else {
        // Each per-layer value is the median over the traced rounds.
        std::vector<double> traced_wall;
        for (const Round &r : traced)
            traced_wall.push_back(r.wall_s);
        for (const auto &[name, unit] : kLayerMetrics) {
            double value = 0.0;
            if (name == "trace.overhead_frac") {
                value = median(traced_wall) / median(wall) - 1.0;
            } else {
                std::vector<double> v;
                for (const Round &r : traced) {
                    const auto it = r.layer.find(name);
                    v.push_back(it == r.layer.end() ? 0.0 : it->second);
                }
                value = median(v);
            }
            emitMetric(metrics, first, name, value, unit);
        }
        if (!o.trace_out.empty())
            tracer.write(o.trace_out);
    }

    const bool correct = checks.failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << checks.attempted
              << ", \"failed\": " << checks.failed << ", \"metrics\": {"
              << metrics.str() << "}}" << std::endl;
    return correct ? 0 : 3;
}
