/**
 * @file
 * Implementation of the DHL configuration and Table V / VI presets.
 */

#include "dhl/config.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "common/units.hpp"

namespace dhl {
namespace core {

std::string
to_string(TrackMode mode)
{
    switch (mode) {
      case TrackMode::Exclusive:
        return "exclusive";
      case TrackMode::Pipelined:
        return "pipelined";
      case TrackMode::DualTrack:
        return "dual-track";
    }
    panic("unreachable track mode");
}

qty::Bytes
DhlConfig::cartCapacity() const
{
    return qty::Bytes{ssd.capacity * static_cast<double>(ssds_per_cart)};
}

qty::Kilograms
DhlConfig::cartMass() const
{
    const qty::Kilograms payload{ssd.mass *
                                 static_cast<double>(ssds_per_cart)};
    return physics::cartMass(payload, mass).total_mass;
}

qty::Metres
DhlConfig::limLength() const
{
    return physics::limLength(qty::MetresPerSecond{max_speed},
                              qty::MetresPerSecondSquared{lim.accel});
}

qty::Seconds
DhlConfig::tripTime() const
{
    return qty::Seconds{2.0 * dock_time} +
           physics::travelTime(qty::Metres{track_length},
                               qty::MetresPerSecond{max_speed},
                               qty::MetresPerSecondSquared{lim.accel},
                               kinematics);
}

std::string
DhlConfig::label() const
{
    const double tb = cartCapacity().value() / units::terabytes(1.0);
    return "DHL-" + units::formatSig(max_speed, 4) + "-" +
           units::formatSig(track_length, 4) + "-" +
           units::formatSig(tb, 4);
}

void
validate(const DhlConfig &cfg)
{
    fatal_if(!(cfg.track_length > 0.0), "track length must be positive");
    fatal_if(!(cfg.max_speed > 0.0), "max speed must be positive");
    fatal_if(!(cfg.dock_time >= 0.0), "dock time must be non-negative");
    physics::validate(cfg.lim);
    fatal_if(cfg.ssds_per_cart == 0, "a cart needs at least one SSD");
    fatal_if(!(cfg.ssd.capacity > 0.0), "SSD capacity must be positive");
    fatal_if(!(cfg.ssd.mass > 0.0), "SSD mass must be positive");
    fatal_if(!(cfg.headway > 0.0), "headway must be positive");
    fatal_if(cfg.docking_stations == 0,
             "need at least one docking station at the rack endpoint");
    fatal_if(cfg.library_slots == 0, "the library needs at least one slot");
    // The track must at least fit its two LIM sections (accelerate at
    // one end, brake at the other).
    if (qty::Metres{cfg.track_length} < 2.0 * cfg.limLength())
        fatal("track too short for its LIM sections: need >= " +
              units::formatSig(2.0 * cfg.limLength().value(), 4) + " m");
    // Mass model sanity (delegates detailed checks).
    (void)cfg.cartMass();
}

DhlConfig
defaultConfig()
{
    return DhlConfig{}; // field initialisers are the paper's bold values
}

DhlConfig
makeConfig(double max_speed, double track_length, std::size_t ssds_per_cart)
{
    DhlConfig cfg;
    cfg.max_speed = max_speed;
    cfg.track_length = track_length;
    cfg.ssds_per_cart = ssds_per_cart;
    return cfg;
}

const std::vector<TableVirow> &
tableViRows()
{
    // The thirteen rows of Table VI in paper order, with the paper's
    // reported metrics for regression checks.  (speed, length, SSDs)
    // then: energy kJ, GB/J, time s, TB/s, kW, 29PB speedup, energy
    // reduction vs A0 and vs C.
    static const std::vector<TableVirow> rows = {
        {makeConfig(100, 500, 32), 3.7, 68, 11, 23, 38, 229.6, 16.3, 350.9},
        {makeConfig(200, 500, 32), 15, 17, 8.6, 30, 75, 295.1, 4.1, 87.7},
        {makeConfig(300, 500, 32), 34, 7.6, 7.8, 33, 113, 324.6, 1.8, 39.0},
        {makeConfig(200, 100, 32), 15, 17, 6.6, 39, 75, 384.5, 4.1, 87.7},
        {makeConfig(200, 500, 32), 15, 17, 8.6, 30, 75, 295.1, 4.1, 87.7},
        {makeConfig(200, 1000, 32), 15, 17, 11, 23, 75, 228.6, 4.1, 87.7},
        {makeConfig(200, 500, 16), 8.6, 15, 8.6, 15, 43, 147.5, 3.6, 76.8},
        {makeConfig(200, 500, 32), 15, 17, 8.6, 30, 75, 295.1, 4.1, 87.7},
        {makeConfig(200, 500, 64), 28, 18, 8.6, 60, 140, 587.5, 4.4, 94.0},
        {makeConfig(100, 500, 16), 2.1, 60, 11, 12, 22, 114.8, 14.3, 307.3},
        {makeConfig(100, 500, 64), 7, 73, 11, 46, 70, 457.3, 17.5, 376.1},
        {makeConfig(300, 500, 16), 19, 6.6, 7.8, 16, 64, 162.3, 1.6, 34.1},
        {makeConfig(300, 500, 64), 63, 8, 7.8, 66, 210, 646.4, 1.9, 41.8},
    };
    return rows;
}

} // namespace core
} // namespace dhl
