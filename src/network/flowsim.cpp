/**
 * @file
 * Implementation of the max-min fair fluid flow simulator.
 *
 * Three exact facts let the kernel work on path groups while staying
 * bit-identical to the per-flow, id-ordered original:
 *
 *  (a) Flows with the same link list share a rate.  They cross the same
 *      links, so water-filling freezes them in the same round at the
 *      same share.  A link's unfrozen count is the sum of its groups'
 *      counts, and freezing a group applies `count` identical
 *      `residual -= share; clamp; allocated += share` steps to each of
 *      its links — the same sequence the per-flow loop produced, since
 *      within a round every step on a link uses the same share.
 *  (b) The next completion can be found per group.  Correctly rounded
 *      division by a positive constant is monotone, so
 *      min_i(rem_i / r) == min_i(rem_i) / r exactly.
 *  (c) The drain is elementwise: rem = max(0, rem - rate·dt) per flow.
 *      It is also monotone in rem, so a group's minimum drains by the
 *      same formula without rescanning its members.
 */

#include "network/flowsim.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "common/logging.hpp"

namespace dhl {
namespace network {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Absolute byte floor below which a flow counts as drained. */
constexpr double kDrainEpsilon = 1e-6;

/** True if the flow's residue is floating-point noise: either an
 *  absolute sliver, a sliver relative to the flow's size, or something
 *  its current rate clears in under a nanosecond. */
bool
drained(double remaining, double total, double rate)
{
    if (remaining <= kDrainEpsilon)
        return true;
    if (remaining <= total * 1e-9)
        return true;
    return rate > 0.0 && remaining / rate <= 1e-9;
}

} // namespace

FlowSim::FlowSim(sim::Simulator &sim, std::string name)
    : sim::SimObject(sim, std::move(name)),
      next_id_(1),
      last_update_(0.0),
      bytes_delivered_(0.0),
      finished_energy_(0.0),
      active_power_(0.0),
      active_power_tstart_(0.0)
{
    auto &sg = statsGroup();
    stat_flows_started_ = &sg.addCounter("flows_started", "flows started");
    stat_flows_completed_ =
        &sg.addCounter("flows_completed", "flows completed");
    stat_bytes_delivered_ =
        &sg.addScalar("bytes_delivered", "bytes delivered");
    stat_flow_duration_ =
        &sg.addAccumulator("flow_duration", "flow durations, s");
}

int
FlowSim::addLink(double capacity)
{
    fatal_if(!(capacity > 0.0), "link capacity must be positive");
    links_.push_back(Link{capacity, 0.0, {}, 0.0, 0});
    return static_cast<int>(links_.size()) - 1;
}

double
FlowSim::linkCapacity(int link) const
{
    fatal_if(link < 0 || link >= numLinks(), "link id out of range");
    return links_[static_cast<std::size_t>(link)].capacity;
}

std::uint32_t
FlowSim::internGroup(std::vector<int> &links)
{
    auto it = group_index_.find(links);
    if (it != group_index_.end())
        return it->second;

    std::uint32_t g;
    if (!free_groups_.empty()) {
        g = free_groups_.back();
        free_groups_.pop_back();
    } else {
        g = static_cast<std::uint32_t>(groups_.size());
        groups_.emplace_back();
    }
    // The map key takes the caller's vector; a recycled slot copies it
    // into the capacity its previous path left behind.
    const std::vector<int> &key =
        group_index_.emplace(std::move(links), g).first->first;
    Group &grp = groups_[g];
    grp.links.assign(key.begin(), key.end());
    grp.rate = 0.0;
    grp.min_remaining = kInf;
    grp.count = 0;
    for (int l : grp.links)
        links_[static_cast<std::size_t>(l)].groups.push_back(g);
    return g;
}

void
FlowSim::retireGroup(std::uint32_t g)
{
    Group &grp = groups_[g];
    group_index_.erase(grp.links);
    for (int l : grp.links) {
        auto &lg = links_[static_cast<std::size_t>(l)].groups;
        lg.erase(std::remove(lg.begin(), lg.end(), g), lg.end());
    }
    free_groups_.push_back(g);
}

FlowId
FlowSim::startFlow(std::vector<int> links, double bytes, double route_power,
                   Callback cb)
{
    fatal_if(links.empty(), "a flow needs at least one link");
    for (int l : links)
        fatal_if(l < 0 || l >= numLinks(), "flow references unknown link");
    fatal_if(!(bytes > 0.0), "flow size must be positive");
    fatal_if(route_power < 0.0, "route power must be non-negative");

    drainFlows();

    const std::uint32_t g = internGroup(links);
    const FlowId id = next_id_++;
    remaining_.push_back(bytes);
    total_.push_back(bytes);
    group_.push_back(g);
    meta_.push_back(FlowMeta{id, route_power, now(), std::move(cb)});
    Group &grp = groups_[g];
    ++grp.count;
    grp.min_remaining = std::min(grp.min_remaining, bytes);

    active_power_ += route_power;
    active_power_tstart_ += route_power * now();

    stat_flows_started_->increment();
    reallocate();
    return id;
}

std::size_t
FlowSim::slotOf(FlowId id) const
{
    for (std::size_t i = meta_.size(); i-- > 0;) {
        if (meta_[i].id == id)
            return i;
    }
    return meta_.size();
}

void
FlowSim::removeSlot(std::size_t slot)
{
    const std::uint32_t g = group_[slot];
    const std::size_t last = remaining_.size() - 1;
    if (slot != last) {
        remaining_[slot] = remaining_[last];
        total_[slot] = total_[last];
        group_[slot] = group_[last];
        meta_[slot] = std::move(meta_[last]);
    }
    remaining_.pop_back();
    total_.pop_back();
    group_.pop_back();
    meta_.pop_back();
    if (--groups_[g].count == 0)
        retireGroup(g);
}

void
FlowSim::recomputeMinRemaining()
{
    for (Group &grp : groups_)
        grp.min_remaining = kInf;
    for (std::size_t i = 0; i < remaining_.size(); ++i) {
        Group &grp = groups_[group_[i]];
        grp.min_remaining = std::min(grp.min_remaining, remaining_[i]);
    }
}

bool
FlowSim::cancelFlow(FlowId id)
{
    const std::size_t slot = slotOf(id);
    if (slot == meta_.size())
        return false;
    drainFlows();
    const FlowMeta &m = meta_[slot];
    active_power_ -= m.route_power;
    active_power_tstart_ -= m.route_power * m.start_time;
    const std::uint32_t g = group_[slot];
    const bool was_min = remaining_[slot] == groups_[g].min_remaining;
    removeSlot(slot);
    if (was_min && groups_[g].count > 0)
        recomputeMinRemaining();
    reallocate();
    return true;
}

double
FlowSim::flowRate(FlowId id) const
{
    const std::size_t slot = slotOf(id);
    fatal_if(slot == meta_.size(), "unknown or finished flow");
    return groups_[group_[slot]].rate;
}

double
FlowSim::totalEnergy() const
{
    return finished_energy_ + active_power_ * now() - active_power_tstart_;
}

double
FlowSim::linkUtilisation(int link) const
{
    fatal_if(link < 0 || link >= numLinks(), "link id out of range");
    const Link &l = links_[static_cast<std::size_t>(link)];
    return l.allocated / l.capacity;
}

void
FlowSim::drainFlows()
{
    const double dt = now() - last_update_;
    last_update_ = now();
    if (dt <= 0.0)
        return;
    const std::size_t n = remaining_.size();
    for (std::size_t i = 0; i < n; ++i) {
        remaining_[i] = std::max(
            0.0, remaining_[i] - groups_[group_[i]].rate * dt);
    }
    // Fact (c): the drain is monotone, so it maps each group's minimum
    // to the minimum of the drained members.
    for (Group &grp : groups_) {
        if (grp.count > 0) {
            grp.min_remaining =
                std::max(0.0, grp.min_remaining - grp.rate * dt);
        }
    }
}

void
FlowSim::reallocate()
{
    simulator().cancel(completion_event_);
    completion_event_ = sim::EventHandle();

    if (remaining_.empty()) {
        // Clamp floating-point residue in the maintained aggregates.
        active_power_ = 0.0;
        active_power_tstart_ = 0.0;
        for (auto &l : links_)
            l.allocated = 0.0;
        return;
    }

    // Progressive water-filling over groups: repeatedly find the
    // most-contended link (smallest residual capacity per unfrozen
    // flow), fix its groups at that fair share, and continue with the
    // remaining capacity.
    for (auto &l : links_) {
        l.allocated = 0.0;
        l.residual = l.capacity;
        l.unfrozen = 0;
    }
    std::size_t unfrozen_groups = 0;
    for (Group &grp : groups_) {
        if (grp.count == 0)
            continue;
        grp.rate = -1.0; // unfrozen marker
        ++unfrozen_groups;
        for (int l : grp.links)
            links_[static_cast<std::size_t>(l)].unfrozen += grp.count;
    }

    while (unfrozen_groups > 0) {
        double share = kInf;
        for (const auto &l : links_) {
            if (l.unfrozen > 0)
                share = std::min(share, l.residual / l.unfrozen);
        }
        panic_if(!std::isfinite(share),
                 "active flows but no link carries any of them");

        // Freeze the unfrozen groups of every link that is tight at
        // this share, walking links in id order: a link's tightness is
        // judged after the freezes of the links before it.
        bool froze_any = false;
        for (const auto &bottleneck : links_) {
            if (bottleneck.unfrozen <= 0)
                continue;
            if (bottleneck.residual / bottleneck.unfrozen >
                share * (1.0 + 1e-12)) {
                continue;
            }
            for (std::uint32_t g : bottleneck.groups) {
                Group &grp = groups_[g];
                if (grp.rate >= 0.0)
                    continue; // frozen in an earlier round or link
                grp.rate = share;
                froze_any = true;
                --unfrozen_groups;
                // Fact (a): one step per member flow.  A link whose
                // last unfrozen flows freeze here never has its
                // residual read again before the next reset.
                for (int fl : grp.links) {
                    Link &m = links_[static_cast<std::size_t>(fl)];
                    m.unfrozen -= grp.count;
                    double allocated = m.allocated;
                    for (int k = 0; k < grp.count; ++k)
                        allocated += share;
                    m.allocated = allocated;
                    if (m.unfrozen == 0)
                        continue;
                    double residual = m.residual;
                    for (int k = 0; k < grp.count; ++k) {
                        residual -= share;
                        if (residual < 0.0)
                            residual = 0.0;
                    }
                    m.residual = residual;
                }
            }
        }
        panic_if(!froze_any, "water-filling failed to make progress");
    }

    // Schedule the next completion (fact (b)).
    double next = kInf;
    for (const Group &grp : groups_) {
        if (grp.count == 0)
            continue;
        panic_if(grp.rate <= 0.0, "flow allocated a non-positive rate");
        next = std::min(next, grp.min_remaining / grp.rate);
    }
    completion_event_ = simulator().schedule(
        std::max(0.0, next), [this] { onCompletionEvent(); });
}

void
FlowSim::onCompletionEvent()
{
    // One pass: drain to now(), collect the drained flows, and take
    // each group's minimum over the flows that stay.
    const double dt = now() - last_update_;
    last_update_ = now();
    for (Group &grp : groups_)
        grp.min_remaining = kInf;
    done_.clear();
    const std::size_t n = remaining_.size();
    for (std::size_t i = 0; i < n; ++i) {
        Group &grp = groups_[group_[i]];
        double rem = remaining_[i];
        if (dt > 0.0) {
            rem = std::max(0.0, rem - grp.rate * dt);
            remaining_[i] = rem;
        }
        if (drained(rem, total_[i], grp.rate))
            done_.push_back(i);
        else
            grp.min_remaining = std::min(grp.min_remaining, rem);
    }
    const bool forced = done_.empty();
    if (forced) {
        // Pure floating-point jitter: the scheduled completion landed a
        // hair before the flow's residue cleared.  Force-complete the
        // flow(s) that are next to finish rather than spinning.
        double min_tt = kInf;
        for (const Group &grp : groups_) {
            if (grp.count > 0)
                min_tt = std::min(min_tt, grp.min_remaining / grp.rate);
        }
        panic_if(!std::isfinite(min_tt) || min_tt > 1e-6,
                 "completion event fired with no flow near completion");
        for (std::size_t i = 0; i < n; ++i) {
            if (remaining_[i] / groups_[group_[i]].rate <=
                min_tt * (1.0 + 1e-9)) {
                done_.push_back(i);
            }
        }
    }

    // The power aggregates and the callbacks see the completed flows in
    // flow-id order, as the per-flow kernel did.
    std::sort(done_.begin(), done_.end(),
              [this](std::size_t a, std::size_t b) {
                  return meta_[a].id < meta_[b].id;
              });
    for (const std::size_t slot : done_) {
        FlowMeta &m = meta_[slot];
        active_power_ -= m.route_power;
        active_power_tstart_ -= m.route_power * m.start_time;
        FlowRecord rec{};
        rec.id = m.id;
        rec.start_time = m.start_time;
        rec.finish_time = now();
        rec.energy = m.route_power * (now() - m.start_time);
        rec.bytes = total_[slot];
        finished_.emplace_back(rec, std::move(m.cb));
    }
    // Highest slot first, so no swap moves a flow still to be removed.
    std::sort(done_.begin(), done_.end(), std::greater<>());
    for (const std::size_t slot : done_)
        removeSlot(slot);
    if (forced)
        recomputeMinRemaining();

    // Callbacks may start new flows.
    for (auto &[rec, cb] : finished_) {
        bytes_delivered_ += rec.bytes;
        stat_bytes_delivered_->add(rec.bytes);
        finished_energy_ += rec.energy;
        stat_flows_completed_->increment();
        stat_flow_duration_->sample(rec.duration());
        if (cb)
            cb(rec);
    }
    finished_.clear();

    reallocate();
}

} // namespace network
} // namespace dhl
