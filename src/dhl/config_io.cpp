/**
 * @file
 * Implementation of DhlConfig serialisation.
 */

#include "dhl/config_io.hpp"

#include <set>
#include <string>

#include "common/logging.hpp"
#include "common/units.hpp"

namespace dhl {
namespace core {

namespace {

const std::set<std::string> kKnownKeys = {
    "track_length", "max_speed", "kinematics", "dock_time",
    "lim.efficiency", "lim.accel", "lim.braking", "lim.regen_fraction",
    "ssds_per_cart", "ssd.name", "ssd.capacity_tb", "ssd.mass_g",
    "ssd.read_mbps", "ssd.write_mbps",
    "mass.magnet_fraction", "mass.fin_fraction", "mass.frame_mass_g",
    "pcie.lanes_per_ssd", "pcie.lane_gbps",
    "track_mode", "headway", "docking_stations", "library_slots",
};

physics::KinematicsMode
parseKinematics(const std::string &s)
{
    if (s == "paper")
        return physics::KinematicsMode::PaperApprox;
    if (s == "trapezoid")
        return physics::KinematicsMode::Trapezoid;
    fatal("kinematics must be 'paper' or 'trapezoid', got '" + s + "'");
}

std::string
kinematicsName(physics::KinematicsMode mode)
{
    return mode == physics::KinematicsMode::PaperApprox ? "paper"
                                                        : "trapezoid";
}

physics::BrakingMode
parseBraking(const std::string &s)
{
    if (s == "active")
        return physics::BrakingMode::ActiveLim;
    if (s == "regenerative")
        return physics::BrakingMode::Regenerative;
    if (s == "eddy")
        return physics::BrakingMode::EddyCurrent;
    fatal("lim.braking must be 'active', 'regenerative' or 'eddy', "
          "got '" + s + "'");
}

std::string
brakingName(physics::BrakingMode mode)
{
    switch (mode) {
      case physics::BrakingMode::ActiveLim:
        return "active";
      case physics::BrakingMode::Regenerative:
        return "regenerative";
      case physics::BrakingMode::EddyCurrent:
        return "eddy";
    }
    panic("unreachable braking mode");
}

TrackMode
parseTrackMode(const std::string &s)
{
    if (s == "exclusive")
        return TrackMode::Exclusive;
    if (s == "pipelined")
        return TrackMode::Pipelined;
    if (s == "dual" || s == "dual-track")
        return TrackMode::DualTrack;
    fatal("track_mode must be 'exclusive', 'pipelined' or 'dual', "
          "got '" + s + "'");
}

/**
 * A count key: absent keeps @p fallback; a negative value is fatal,
 * naming the key, instead of wrapping into a huge size.
 */
std::size_t
countKey(const Properties &props, const std::string &key,
         std::size_t fallback)
{
    const long v = props.getInt(key, static_cast<long>(fallback));
    if (v < 0)
        fatal(key + " must be >= 0, got " + std::to_string(v));
    return static_cast<std::size_t>(v);
}

} // namespace

DhlConfig
loadConfig(const Properties &props)
{
    for (const auto &key : props.keys()) {
        if (kKnownKeys.count(key) == 0)
            fatal("unknown configuration key: " + key);
    }

    DhlConfig cfg = defaultConfig();
    cfg.track_length = props.getDouble("track_length", cfg.track_length);
    cfg.max_speed = props.getDouble("max_speed", cfg.max_speed);
    if (props.has("kinematics"))
        cfg.kinematics = parseKinematics(props.get("kinematics"));
    cfg.dock_time = props.getDouble("dock_time", cfg.dock_time);

    cfg.lim.efficiency =
        props.getDouble("lim.efficiency", cfg.lim.efficiency);
    cfg.lim.accel = props.getDouble("lim.accel", cfg.lim.accel);
    if (props.has("lim.braking"))
        cfg.lim.braking = parseBraking(props.get("lim.braking"));
    cfg.lim.regen_fraction =
        props.getDouble("lim.regen_fraction", cfg.lim.regen_fraction);

    cfg.ssds_per_cart = countKey(props, "ssds_per_cart", cfg.ssds_per_cart);
    cfg.ssd.name = props.get("ssd.name", cfg.ssd.name);
    if (props.has("ssd.capacity_tb")) {
        cfg.ssd.capacity =
            units::terabytes(props.getDouble("ssd.capacity_tb", 0.0));
    }
    if (props.has("ssd.mass_g"))
        cfg.ssd.mass = units::grams(props.getDouble("ssd.mass_g", 0.0));
    if (props.has("ssd.read_mbps")) {
        cfg.ssd.seq_read_bw =
            units::megabytes(props.getDouble("ssd.read_mbps", 0.0));
    }
    if (props.has("ssd.write_mbps")) {
        cfg.ssd.seq_write_bw =
            units::megabytes(props.getDouble("ssd.write_mbps", 0.0));
    }

    cfg.mass.magnet_fraction =
        props.getDouble("mass.magnet_fraction", cfg.mass.magnet_fraction);
    cfg.mass.fin_fraction =
        props.getDouble("mass.fin_fraction", cfg.mass.fin_fraction);
    if (props.has("mass.frame_mass_g")) {
        cfg.mass.frame_mass =
            units::grams(props.getDouble("mass.frame_mass_g", 0.0));
    }

    cfg.pcie.lanes_per_ssd =
        countKey(props, "pcie.lanes_per_ssd", cfg.pcie.lanes_per_ssd);
    if (props.has("pcie.lane_gbps")) {
        cfg.pcie.lane_bandwidth = units::gigabitsPerSecond(
            props.getDouble("pcie.lane_gbps", 0.0));
    }

    if (props.has("track_mode"))
        cfg.track_mode = parseTrackMode(props.get("track_mode"));
    cfg.headway = props.getDouble("headway", cfg.headway);
    cfg.docking_stations =
        countKey(props, "docking_stations", cfg.docking_stations);
    cfg.library_slots = countKey(props, "library_slots", cfg.library_slots);

    validate(cfg);
    return cfg;
}

Properties
saveConfig(const DhlConfig &cfg)
{
    Properties props;
    props.setDouble("track_length", cfg.track_length);
    props.setDouble("max_speed", cfg.max_speed);
    props.set("kinematics", kinematicsName(cfg.kinematics));
    props.setDouble("dock_time", cfg.dock_time);

    props.setDouble("lim.efficiency", cfg.lim.efficiency);
    props.setDouble("lim.accel", cfg.lim.accel);
    props.set("lim.braking", brakingName(cfg.lim.braking));
    props.setDouble("lim.regen_fraction", cfg.lim.regen_fraction);

    props.setInt("ssds_per_cart",
                 static_cast<long>(cfg.ssds_per_cart));
    props.set("ssd.name", cfg.ssd.name);
    props.setDouble("ssd.capacity_tb",
                    cfg.ssd.capacity / units::terabytes(1));
    props.setDouble("ssd.mass_g", units::toGrams(cfg.ssd.mass));
    props.setDouble("ssd.read_mbps", units::toMegabytes(cfg.ssd.seq_read_bw));
    props.setDouble("ssd.write_mbps",
                    units::toMegabytes(cfg.ssd.seq_write_bw));

    props.setDouble("mass.magnet_fraction", cfg.mass.magnet_fraction);
    props.setDouble("mass.fin_fraction", cfg.mass.fin_fraction);
    props.setDouble("mass.frame_mass_g",
                    units::toGrams(cfg.mass.frame_mass));

    props.setInt("pcie.lanes_per_ssd",
                 static_cast<long>(cfg.pcie.lanes_per_ssd));
    props.setDouble("pcie.lane_gbps",
                    units::toGigabitsPerSecond(cfg.pcie.lane_bandwidth));

    props.set("track_mode",
              cfg.track_mode == TrackMode::Exclusive
                  ? "exclusive"
                  : cfg.track_mode == TrackMode::Pipelined ? "pipelined"
                                                           : "dual");
    props.setDouble("headway", cfg.headway);
    props.setInt("docking_stations",
                 static_cast<long>(cfg.docking_stations));
    props.setInt("library_slots",
                 static_cast<long>(cfg.library_slots));
    return props;
}

} // namespace core
} // namespace dhl
