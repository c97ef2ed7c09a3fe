/**
 * @file
 * Implementation of the track admission logic.
 */

#include "dhl/track.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "physics/lim.hpp"
#include "physics/profile.hpp"

namespace dhl {
namespace core {

Track::Track(sim::Simulator &sim, const DhlConfig &cfg, std::string name)
    : sim::SimObject(sim, std::move(name)),
      cfg_(cfg),
      drain_time_(0.0),
      last_depart_{-1e300, -1e300},
      has_last_direction_(false),
      last_direction_(Direction::Outbound),
      total_energy_(0.0),
      launches_(0),
      launches_dir_{0, 0}
{
    validate(cfg);
    // The DES layer carries plain doubles; unwrap at this boundary
    // (DESIGN.md §9).
    travel_time_ =
        physics::travelTime(qty::Metres{cfg.track_length},
                            qty::MetresPerSecond{cfg.max_speed},
                            qty::MetresPerSecondSquared{cfg.lim.accel},
                            cfg.kinematics)
            .value();
    shot_energy_ = physics::shotEnergy(cfg.cartMass(),
                                       qty::MetresPerSecond{cfg.max_speed},
                                       cfg.lim)
                       .value();

    auto &sg = statsGroup();
    stat_launches_[0] =
        &sg.addCounter("launches_outbound", "library->rack launches");
    stat_launches_[1] =
        &sg.addCounter("launches_inbound", "rack->library launches");
    stat_energy_ = &sg.addScalar("lim_energy", "total LIM energy, J");
    stat_wait_ =
        &sg.addAccumulator("launch_wait", "admission wait per launch, s");
}

LaunchGrant
Track::reserveLaunch(Direction dir)
{
    if (!launchable())
        panic(name() + ": launch reserved while the track or a LIM is "
                       "down (park the trip and retry)");
    const double t = now();
    double depart = t;

    switch (cfg_.track_mode) {
      case TrackMode::Exclusive:
        // One cart in the tube at a time, regardless of direction.
        depart = std::max(depart, drain_time_);
        break;

      case TrackMode::Pipelined: {
        // Same direction: headway behind the previous cart.  Direction
        // change: wait for the tube to drain completely.
        const auto d = static_cast<int>(dir);
        if (has_last_direction_ && last_direction_ != dir)
            depart = std::max(depart, drain_time_);
        depart = std::max(depart, last_depart_[d] + cfg_.headway);
        break;
      }

      case TrackMode::DualTrack: {
        // Independent tube per direction; only the headway applies.
        const auto d = static_cast<int>(dir);
        depart = std::max(depart, last_depart_[d] + cfg_.headway);
        break;
      }
    }

    LaunchGrant g{};
    g.depart_time = depart;
    g.arrive_time = depart + travel_time_;
    g.energy = shot_energy_;

    const auto d = static_cast<int>(dir);
    last_depart_[d] = depart;
    drain_time_ = std::max(drain_time_, g.arrive_time);
    has_last_direction_ = true;
    last_direction_ = dir;

    total_energy_ += shot_energy_;
    ++launches_;
    ++launches_dir_[d];
    stat_launches_[d]->increment();
    stat_energy_->add(shot_energy_);
    stat_wait_->sample(depart - t);
    return g;
}

std::uint64_t
Track::launches(Direction dir) const
{
    return launches_dir_[static_cast<int>(dir)];
}

void
Track::saveState(sim::SnapshotWriter &w) const
{
    sim::SnapshotScope<sim::SnapshotWriter> scope(w, "track");
    w.putDouble("drain_time", drain_time_);
    w.putDouble("last_depart_out", last_depart_[0]);
    w.putDouble("last_depart_in", last_depart_[1]);
    w.putBool("has_last_direction", has_last_direction_);
    w.putBool("last_inbound", last_direction_ == Direction::Inbound);
    w.putDouble("total_energy", total_energy_);
    w.putU64("launches", launches_);
    w.putU64("launches_out", launches_dir_[0]);
    w.putU64("launches_in", launches_dir_[1]);
}

void
Track::restoreState(sim::SnapshotReader &r)
{
    sim::SnapshotScope<sim::SnapshotReader> scope(r, "track");
    drain_time_ = r.getDouble("drain_time");
    last_depart_[0] = r.getDouble("last_depart_out");
    last_depart_[1] = r.getDouble("last_depart_in");
    has_last_direction_ = r.getBool("has_last_direction");
    last_direction_ = r.getBool("last_inbound") ? Direction::Inbound
                                                : Direction::Outbound;
    total_energy_ = r.getDouble("total_energy");
    launches_ = r.getU64("launches");
    launches_dir_[0] = r.getU64("launches_out");
    launches_dir_[1] = r.getU64("launches_in");
    stat_energy_->set(total_energy_);
}

} // namespace core
} // namespace dhl
