/**
 * @file
 * Test-only oracle: the original map-based max-min fluid flow kernel,
 * kept verbatim in behaviour so the path-grouped network::FlowSim can
 * be checked against it bit for bit (tests/test_flowsim.cpp).
 *
 * Flows live in a std::map keyed by id; every link keeps the id-ordered
 * list of flows crossing it.  Each arrival and departure drains every
 * flow, re-runs progressive water-filling over every flow, and rescans
 * every flow for the next completion.  It is deliberately
 * slow and simple: it is the definition the fast kernel must reproduce.
 */

#ifndef DHL_TESTS_FLOWSIM_REFERENCE_HPP
#define DHL_TESTS_FLOWSIM_REFERENCE_HPP

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <vector>

#include "common/logging.hpp"
#include "network/flowsim.hpp"
#include "sim/simulator.hpp"

namespace dhl {
namespace network {
namespace reference {

/**
 * The original completion test: true if the flow's residue is
 * floating-point noise — an absolute sliver, a sliver relative to the
 * flow's size, or something its current rate clears in under a
 * nanosecond.  network::FlowSim replaces it with one comparison
 * against max(drainFloor(total), quotientBound(rate, 1e-9)).
 */
inline bool
drained(double remaining, double total, double rate)
{
    if (remaining <= 1e-6)
        return true;
    if (remaining <= total * 1e-9)
        return true;
    return rate > 0.0 && remaining / rate <= 1e-9;
}

/** The map-based kernel; same public surface as network::FlowSim. */
class FlowSim
{
  public:
    using Callback = std::function<void(const FlowRecord &)>;

    explicit FlowSim(sim::Simulator &sim) : sim_(sim) {}

    int
    addLink(double capacity)
    {
        links_.push_back(Link{capacity, 0.0, {}, 0.0, 0});
        return static_cast<int>(links_.size()) - 1;
    }

    FlowId
    startFlow(std::vector<int> links, double bytes, double route_power = 0.0,
              Callback cb = nullptr)
    {
        drainFlows();
        Flow f{};
        f.id = next_id_++;
        f.links = std::move(links);
        f.total = bytes;
        f.remaining = bytes;
        f.rate = 0.0;
        f.route_power = route_power;
        f.start_time = sim_.now();
        f.cb = std::move(cb);
        const FlowId id = f.id;
        auto it = flows_.emplace(id, std::move(f)).first;
        for (int l : it->second.links)
            links_[static_cast<std::size_t>(l)].flows.push_back(&it->second);
        active_power_ += route_power;
        active_power_tstart_ += route_power * sim_.now();
        reallocate();
        return id;
    }

    double
    flowRate(FlowId id) const
    {
        auto it = flows_.find(id);
        fatal_if(it == flows_.end(), "unknown or finished flow");
        return it->second.rate;
    }

    std::size_t activeFlows() const { return flows_.size(); }
    double bytesDelivered() const { return bytes_delivered_; }

    double
    totalEnergy() const
    {
        return finished_energy_ + active_power_ * sim_.now() -
               active_power_tstart_;
    }

    /** How often two rarely taken completion paths ran. */
    struct Counts
    {
        /** Flows only the size·1e-9 floor declared drained. */
        std::size_t size_floor = 0;
        /** Completion events that found no drained flow and forced the
         *  next-to-finish ones out. */
        std::size_t forced = 0;
    };

    const Counts &counts() const { return counts_; }

    double
    linkUtilisation(int link) const
    {
        const Link &l = links_[static_cast<std::size_t>(link)];
        return l.allocated / l.capacity;
    }

  private:
    struct Flow
    {
        FlowId id;
        std::vector<int> links;
        double total;
        double remaining;
        double rate;
        double route_power;
        double start_time;
        Callback cb;
    };

    struct Link
    {
        double capacity;
        double allocated;
        std::vector<Flow *> flows;
        double residual;
        int unfrozen;
    };

    void
    drainFlows()
    {
        const double dt = sim_.now() - last_update_;
        last_update_ = sim_.now();
        if (dt <= 0.0)
            return;
        for (auto &[id, f] : flows_) {
            (void)id;
            f.remaining = std::max(0.0, f.remaining - f.rate * dt);
        }
    }

    void
    detachFlow(Flow &f)
    {
        for (int l : f.links) {
            auto &lf = links_[static_cast<std::size_t>(l)].flows;
            lf.erase(std::remove(lf.begin(), lf.end(), &f), lf.end());
        }
        active_power_ -= f.route_power;
        active_power_tstart_ -= f.route_power * f.start_time;
    }

    void
    reallocate()
    {
        sim_.cancel(completion_event_);
        completion_event_ = sim::EventHandle();

        if (flows_.empty()) {
            active_power_ = 0.0;
            active_power_tstart_ = 0.0;
            for (auto &l : links_)
                l.allocated = 0.0;
            return;
        }

        for (auto &l : links_) {
            l.allocated = 0.0;
            l.residual = l.capacity;
            l.unfrozen = 0;
        }
        for (auto &[id, f] : flows_) {
            (void)id;
            f.rate = -1.0;
            for (int l : f.links)
                ++links_[static_cast<std::size_t>(l)].unfrozen;
        }

        std::size_t remaining_flows = flows_.size();
        while (remaining_flows > 0) {
            double share = std::numeric_limits<double>::infinity();
            for (const auto &l : links_) {
                if (l.unfrozen > 0)
                    share = std::min(share, l.residual / l.unfrozen);
            }
            panic_if(!std::isfinite(share), "reference: no bottleneck");

            bool froze_any = false;
            for (auto &bottleneck : links_) {
                if (bottleneck.unfrozen <= 0)
                    continue;
                if (bottleneck.residual / bottleneck.unfrozen >
                    share * (1.0 + 1e-12)) {
                    continue;
                }
                for (Flow *f : bottleneck.flows) {
                    if (f->rate >= 0.0)
                        continue;
                    f->rate = share;
                    froze_any = true;
                    --remaining_flows;
                    for (int fl : f->links) {
                        Link &m = links_[static_cast<std::size_t>(fl)];
                        m.residual -= share;
                        if (m.residual < 0.0)
                            m.residual = 0.0;
                        --m.unfrozen;
                        m.allocated += share;
                    }
                }
            }
            panic_if(!froze_any, "reference: no progress");
        }

        double next = std::numeric_limits<double>::infinity();
        for (const auto &[id, f] : flows_) {
            (void)id;
            panic_if(f.rate <= 0.0, "reference: non-positive rate");
            next = std::min(next, f.remaining / f.rate);
        }
        completion_event_ = sim_.schedule(std::max(0.0, next),
                                          [this] { onCompletionEvent(); });
    }

    void
    onCompletionEvent()
    {
        drainFlows();
        std::vector<Flow> done;
        for (auto it = flows_.begin(); it != flows_.end();) {
            Flow &f = it->second;
            if (drained(f.remaining, f.total, f.rate)) {
                counts_.size_floor +=
                    f.remaining > 1e-6 && f.remaining / f.rate > 1e-9;
                detachFlow(f);
                done.push_back(std::move(f));
                it = flows_.erase(it);
            } else {
                ++it;
            }
        }
        if (done.empty()) {
            ++counts_.forced;
            double min_tt = std::numeric_limits<double>::infinity();
            for (const auto &[id, f] : flows_) {
                (void)id;
                min_tt = std::min(min_tt, f.remaining / f.rate);
            }
            panic_if(!std::isfinite(min_tt) || min_tt > 1e-6,
                     "reference: no flow near completion");
            for (auto it = flows_.begin(); it != flows_.end();) {
                Flow &f = it->second;
                if (f.remaining / f.rate <= min_tt * (1.0 + 1e-9)) {
                    detachFlow(f);
                    done.push_back(std::move(f));
                    it = flows_.erase(it);
                } else {
                    ++it;
                }
            }
        }

        for (auto &f : done) {
            FlowRecord rec{};
            rec.id = f.id;
            rec.start_time = f.start_time;
            rec.finish_time = sim_.now();
            rec.energy = f.route_power * (sim_.now() - f.start_time);
            rec.bytes = f.total;
            bytes_delivered_ += f.total;
            finished_energy_ += rec.energy;
            if (f.cb)
                f.cb(rec);
        }

        reallocate();
    }

    sim::Simulator &sim_;
    std::vector<Link> links_;
    std::map<FlowId, Flow> flows_;
    FlowId next_id_ = 1;
    double last_update_ = 0.0;
    double bytes_delivered_ = 0.0;
    double finished_energy_ = 0.0;
    double active_power_ = 0.0;
    double active_power_tstart_ = 0.0;
    Counts counts_;
    sim::EventHandle completion_event_;
};

} // namespace reference
} // namespace network
} // namespace dhl

#endif // DHL_TESTS_FLOWSIM_REFERENCE_HPP
