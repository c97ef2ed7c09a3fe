/**
 * @file
 * Implementation of the track admission logic.
 */

#include "dhl/track.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "physics/lim.hpp"
#include "physics/profile.hpp"
#include "sim/snapshot.hpp"

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

template <typename IO>
void
Track::snapshot(IO &io)
{
    sim::SnapshotScope scope(io, "track");
    io.field("drain_time", drain_time_);
    io.field("last_depart_out", last_depart_[0]);
    io.field("last_depart_in", last_depart_[1]);
    io.field("has_last_direction", has_last_direction_);
    bool inbound = last_direction_ == Direction::Inbound;
    io.field("last_inbound", inbound);
    io.field("total_energy", total_energy_);
    io.field("launches", launches_);
    io.field("launches_out", launches_dir_[0]);
    io.field("launches_in", launches_dir_[1]);
    if constexpr (IO::loading) {
        last_direction_ = inbound ? Direction::Inbound : Direction::Outbound;
        stat_energy_->set(total_energy_);
    }
}

template void Track::snapshot(sim::SnapshotWriter &);
template void Track::snapshot(sim::SnapshotReader &);

} // namespace core
} // namespace dhl
