/**
 * @file
 * Implementation of the max-min fair fluid flow simulator.
 *
 * Five exact facts let the kernel work on path groups, on SIMD lanes,
 * while staying bit-identical to the per-flow, id-ordered original:
 *
 *  (a) Flows with the same link list share a rate.  They cross the same
 *      links, so water-filling freezes them in the same round at the
 *      same share.  A link's unfrozen count is the sum of its groups'
 *      counts, and freezing a group applies `count` identical
 *      `residual -= share; clamp` steps to each of its links — the same
 *      sequence the per-flow loop produced, since within a round every
 *      step on a link uses the same share.  The matching
 *      `allocated += share` steps are recorded as (link, count, share)
 *      in freeze order and replayed only when linkUtilisation() asks.
 *  (b) The next completion can be found per group.  Correctly rounded
 *      division by a positive constant is monotone, so
 *      min_i(rem_i / r) == min_i(rem_i) / r exactly.
 *  (c) The drain is elementwise: rem = max(0, rem - d) per flow, with
 *      one d = fl(rate·dt) per group.  It is also monotone in rem, so a
 *      group's minimum drains by the same formula without rescanning
 *      its members.
 *  (d) The completion test needs no per-flow division.  Each of its
 *      three clauses (rem <= 1e-6, rem <= size·1e-9, rem / rate <= 1e-9)
 *      is a down-set in rem, the last by the monotonicity in (b), so
 *      their union is rem <= max(drainFloor(size), quotientBound(rate,
 *      1e-9)): a per-flow floor fixed at start and a per-group bound.
 *      The bound can only take a member if it takes the group's
 *      smallest, so a completion event divides once per group (that
 *      smallest by the rate) and finds the bound only for groups where
 *      the division says it matters.
 *  (e) Both per-flow passes run on SIMD lanes (network/flow_lanes.hpp)
 *      with the scalar arithmetic in each lane.  A lane compare only
 *      flags a block, whose flows the scalar test then judges in member
 *      order, and the survivors' minimum is order-free because every
 *      survivor is positive and finite.
 */

#include "network/flowsim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "common/logging.hpp"
#include "network/flow_lanes.hpp"

namespace dhl {
namespace network {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Absolute byte floor below which a flow counts as drained. */
constexpr double kDrainEpsilon = 1e-6;

/** A residue the flow's rate clears in under this many seconds is
 *  floating-point noise. */
constexpr double kDrainHorizon = 1e-9;

/**
 * The neighbouring double of @p x: the next larger for @p dir = 1, the
 * next smaller for -1.  For finite x >= 0 (x > 0 when stepping down),
 * where consecutive doubles have consecutive bit patterns; the same
 * result as std::nextafter, without its library call.
 */
double
nextDouble(double x, std::int64_t dir)
{
    std::int64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    bits += dir;
    std::memcpy(&x, &bits, sizeof x);
    return x;
}

/** Alignment of a group's member arrays: one cache line, so no vector
 *  load of up to 64 bytes straddles two.  Each block over-allocates
 *  and aligns itself: an aligned operator new costs a fresh FlowSim
 *  more than its small groups' passes do. */
constexpr std::size_t kBlockAlign = 64;

/**
 * The lane kernel's instances: one template body
 * (network/flow_lanes.hpp), compiled once per ISA and picked through
 * common/lanes.hpp.
 */
#if defined(__x86_64__)
[[gnu::target("avx512f")]] void
drainAvx512(double *rem, std::size_t n, double d)
{
    detail::drainLanes<detail::LaneIsa::Avx512>(rem, n, d);
}

[[gnu::target("avx512f")]] double
sweepAvx512(double *rem, const double *floor, std::size_t n, double d,
            double below, std::uint32_t *&done)
{
    return detail::sweepLanes<detail::LaneIsa::Avx512>(rem, floor, n, d,
                                                       below, done);
}

[[gnu::target("avx2")]] void
drainAvx2(double *rem, std::size_t n, double d)
{
    detail::drainLanes<detail::LaneIsa::Avx2>(rem, n, d);
}

[[gnu::target("avx2")]] double
sweepAvx2(double *rem, const double *floor, std::size_t n, double d,
          double below, std::uint32_t *&done)
{
    return detail::sweepLanes<detail::LaneIsa::Avx2>(rem, floor, n, d,
                                                     below, done);
}
#endif

/** The scalar loops as a one-lane instance, for a host without AVX2. */
void
drainScalarAll(double *rem, std::size_t n, double d)
{
    detail::drainScalar(rem, 0, n, d);
}

double
sweepScalarAll(double *rem, const double *floor, std::size_t n, double d,
               double below, std::uint32_t *&done)
{
    return detail::sweepScalar(rem, floor, 0, n, d, below, done, kInf);
}

/** The instance FlowSim runs. */
const detail::FlowLanes &
flowLanes()
{
    static const detail::FlowLanes &lanes =
        detail::supportedFlowLanes().front();
    return lanes;
}

} // namespace

namespace detail {

const std::vector<FlowLanes> &
supportedFlowLanes()
{
    static const std::vector<FlowLanes> instances =
        lanes::supportedInstances<FlowLanes>({
#if defined(__x86_64__)
            {LaneIsa::Avx512, kLaneWidth<LaneIsa::Avx512>, drainAvx512,
             sweepAvx512},
            {LaneIsa::Avx2, kLaneWidth<LaneIsa::Avx2>, drainAvx2, sweepAvx2},
#endif
            {LaneIsa::Scalar, 1, drainScalarAll, sweepScalarAll},
        });
    return instances;
}

} // namespace detail

double
drainFloor(double size)
{
    return std::max(kDrainEpsilon, size * 1e-9);
}

double
quotientBound(double rate, double limit)
{
    // fl(rate·limit) / rate lands within a few ulps of limit; step to
    // the edge of the down-set {x : x / rate <= limit}.
    double t = rate * limit;
    if (t / rate <= limit) {
        for (double up = nextDouble(t, 1); up / rate <= limit;
             up = nextDouble(up, 1)) {
            t = up;
        }
    } else {
        do {
            t = nextDouble(t, -1);
        } while (t / rate > limit);
    }
    return t;
}

void
FlowSim::Group::reserve(std::uint32_t slots)
{
    if (slots <= capacity)
        return;
    // Whole 8-member blocks keep every array on a 64-byte boundary.
    const std::uint32_t cap = std::max(2 * capacity, (slots + 7) / 8 * 8);
    const std::size_t bytes =
        std::size_t{cap} * (2 * sizeof(double) + sizeof(std::uint32_t));
    std::size_t space = bytes + kBlockAlign - 1;
    std::unique_ptr<std::byte[]> grown(new std::byte[space]);
    void *first = grown.get();
    double *arrays =
        static_cast<double *>(std::align(kBlockAlign, bytes, first, space));
    if (size > 0) {
        std::memcpy(arrays, remaining(), size * sizeof(double));
        std::memcpy(arrays + cap, floor(), size * sizeof(double));
        std::memcpy(arrays + 2 * std::size_t{cap}, meta(),
                    size * sizeof(std::uint32_t));
    }
    block = std::move(grown);
    hot = arrays;
    capacity = cap;
}

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
    links_.push_back(Link{capacity, {}, 0.0, 0});
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
    // Room for a few flows up front, so a new group does not regrow on
    // each of its first starts (a recycled slot keeps its capacity).
    grp.reserve(8);
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
    fatal_if(!(bytes > 0.0) || !std::isfinite(bytes),
             "flow size must be positive and finite");
    fatal_if(!(route_power >= 0.0) || !std::isfinite(route_power),
             "route power must be non-negative and finite");

    drainFlows();

    const std::uint32_t g = internGroup(links);
    Group &grp = groups_[g];
    const FlowId id = next_id_++;
    const std::uint32_t k = grp.size;
    meta_.push_back(FlowMeta{id, route_power, now(), bytes, std::move(cb), g,
                             k});
    grp.reserve(k + 1);
    grp.remaining()[k] = bytes;
    grp.floor()[k] = drainFloor(bytes);
    grp.meta()[k] = static_cast<std::uint32_t>(meta_.size() - 1);
    grp.size = k + 1;
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
FlowSim::removeMember(std::uint32_t g, std::uint32_t index)
{
    Group &grp = groups_[g];
    const std::uint32_t slot = grp.meta()[index];
    const std::uint32_t last = --grp.size;
    if (index != last) {
        grp.remaining()[index] = grp.remaining()[last];
        grp.floor()[index] = grp.floor()[last];
        grp.meta()[index] = grp.meta()[last];
        meta_[grp.meta()[index]].index = index;
    }

    if (slot + 1 != meta_.size()) {
        FlowMeta &m = meta_[slot];
        m = std::move(meta_.back());
        groups_[m.group].meta()[m.index] = slot;
    }
    meta_.pop_back();
    if (grp.size == 0)
        retireGroup(g);
}

double
FlowSim::flowRate(FlowId id) const
{
    const std::size_t slot = slotOf(id);
    fatal_if(slot == meta_.size(), "unknown or finished flow");
    return groups_[meta_[slot].group].rate;
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
    // Fact (a): the per-flow kernel's `allocated += share` steps on this
    // link, in the order water-filling froze them.
    double allocated = 0.0;
    for (const Freeze &f : freezes_) {
        if (f.link != link)
            continue;
        for (int k = 0; k < f.flows; ++k)
            allocated += f.share;
    }
    return allocated / links_[static_cast<std::size_t>(link)].capacity;
}

void
FlowSim::drainFlows()
{
    const double dt = now() - last_update_;
    last_update_ = now();
    if (dt <= 0.0)
        return;
    const detail::FlowLanes &lanes = flowLanes();
    for (Group &grp : groups_) {
        if (grp.size == 0)
            continue;
        const double d = grp.rate * dt;
        // A group smaller than one lane block skips the call, as in
        // onCompletionEvent().
        if (grp.size < lanes.width)
            detail::drainScalar(grp.remaining(), 0, grp.size, d);
        else
            lanes.drain(grp.remaining(), grp.size, d);
        // Fact (c): the drain is monotone, so it maps the group's
        // minimum to the minimum of the drained members.
        grp.min_remaining = std::max(0.0, grp.min_remaining - d);
    }
}

void
FlowSim::reallocate()
{
    simulator().cancel(completion_event_);
    completion_event_ = sim::EventHandle();

    freezes_.clear();
    if (meta_.empty()) {
        // Clamp floating-point residue in the maintained aggregates.
        active_power_ = 0.0;
        active_power_tstart_ = 0.0;
        return;
    }

    // Progressive water-filling over groups: repeatedly find the
    // most-contended link (smallest residual capacity per unfrozen
    // flow), fix its groups at that fair share, and continue with the
    // remaining capacity.
    for (auto &l : links_) {
        l.residual = l.capacity;
        l.unfrozen = 0;
    }
    std::size_t unfrozen_groups = 0;
    for (Group &grp : groups_) {
        if (grp.size == 0)
            continue;
        grp.rate = -1.0; // unfrozen marker
        ++unfrozen_groups;
        for (int l : grp.links)
            links_[static_cast<std::size_t>(l)].unfrozen += grp.count();
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
                const int count = grp.count();
                for (int fl : grp.links) {
                    Link &m = links_[static_cast<std::size_t>(fl)];
                    m.unfrozen -= count;
                    freezes_.push_back(Freeze{fl, count, share});
                    if (m.unfrozen == 0)
                        continue;
                    double residual = m.residual;
                    for (int k = 0; k < count; ++k) {
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
        if (grp.size == 0)
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
    // One pass per group: drain to now(), collect the drained flows, and
    // take the group's minimum over the flows that stay.
    const double dt = now() - last_update_;
    last_update_ = now();
    done_.clear();
    // Drain group g's members by d bytes, collect those left with at
    // most max(floor, below) bytes, and take the minimum of the rest.
    const detail::FlowLanes &lanes = flowLanes();
    const auto sweep = [this, &lanes](std::uint32_t g, double d,
                                      double below) {
        Group &grp = groups_[g];
        if (done_index_.size() < grp.size)
            done_index_.resize(grp.size);
        std::uint32_t *end = done_index_.data();
        // A group smaller than one lane block skips the call, which
        // costs two or three flows more than their loop.
        grp.min_remaining =
            grp.size < lanes.width
                ? detail::sweepScalar(grp.remaining(), grp.floor(), 0,
                                      grp.size, d, below, end, kInf)
                : lanes.sweep(grp.remaining(), grp.floor(), grp.size, d,
                              below, end);
        const std::uint32_t *meta = grp.meta();
        for (const std::uint32_t *k = done_index_.data(); k != end; ++k)
            done_.push_back(Done{meta_[meta[*k]].id, g, *k});
    };
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
        const Group &grp = groups_[g];
        if (grp.size == 0)
            continue;
        const double d = grp.rate * dt;
        // Fact (d): the rate clause takes a member only if it takes the
        // group's smallest, which drains to max(0, min - d) (fact (c)).
        // Otherwise the floors alone decide, and 0 stands in for the
        // bound (every floor is positive).
        const double lowest = std::max(0.0, grp.min_remaining - d);
        const double below = lowest / grp.rate <= kDrainHorizon
                                 ? quotientBound(grp.rate, kDrainHorizon)
                                 : 0.0;
        sweep(g, d, below);
    }
    if (done_.empty()) {
        // Pure floating-point jitter: the scheduled completion landed a
        // hair before the flow's residue cleared.  Force-complete the
        // flow(s) that are next to finish rather than spinning.  Every
        // flow is above its floor here, so max(floor, bound) is the
        // bound and the sweep takes exactly rem / rate <= limit.
        double min_tt = kInf;
        for (const Group &grp : groups_) {
            if (grp.size != 0)
                min_tt = std::min(min_tt, grp.min_remaining / grp.rate);
        }
        panic_if(!std::isfinite(min_tt) || min_tt > 1e-6,
                 "completion event fired with no flow near completion");
        const double limit = min_tt * (1.0 + 1e-9);
        for (std::uint32_t g = 0; g < groups_.size(); ++g) {
            const Group &grp = groups_[g];
            if (grp.size != 0)
                sweep(g, 0.0, quotientBound(grp.rate, limit));
        }
    }

    // The power aggregates and the callbacks see the completed flows in
    // flow-id order, as the per-flow kernel did.
    std::sort(done_.begin(), done_.end(),
              [](const Done &a, const Done &b) { return a.id < b.id; });
    for (const Done &dn : done_) {
        FlowMeta &m = meta_[groups_[dn.group].meta()[dn.index]];
        active_power_ -= m.route_power;
        active_power_tstart_ -= m.route_power * m.start_time;
        FlowRecord rec{};
        rec.id = m.id;
        rec.start_time = m.start_time;
        rec.finish_time = now();
        rec.energy = m.route_power * (now() - m.start_time);
        rec.bytes = m.size;
        finished_.emplace_back(rec, std::move(m.cb));
    }
    // Highest member index first, so no swap moves a flow still to be
    // removed.
    std::sort(done_.begin(), done_.end(), [](const Done &a, const Done &b) {
        return a.index > b.index;
    });
    for (const Done &dn : done_)
        removeMember(dn.group, dn.index);

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
