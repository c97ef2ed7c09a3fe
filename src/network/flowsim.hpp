/**
 * @file
 * Event-driven fluid flow simulator over capacitated links.
 *
 * Flows traverse a path of links and share each link's capacity
 * max-min-fairly (progressive water-filling, recomputed on every flow
 * arrival or departure).  Each flow carries the electrical power of its
 * route so the simulator integrates transfer energy exactly as the
 * analytical model does — the integration tests require the two to
 * agree — while also capturing the *contention* effects the closed-form
 * model cannot (bulk backups squeezing foreground traffic, the paper's
 * §II motivation).
 *
 * Path groups (see DESIGN.md §"Kernel internals"): flows with the same
 * link list always receive the same max-min rate, so rates live on an
 * interned path group carrying a live-flow count, and water-filling
 * runs over groups instead of flows.  The per-flow hot state
 * (remaining bytes, size, group) sits in dense slot arrays, so each
 * event costs one streaming pass over the in-flight flows plus a
 * water-filling over the live groups.  Groups are retired when their
 * last flow leaves, so the cost tracks the active paths, not every
 * path ever seen.
 *
 * Determinism: every rate, finish time and energy is bit-identical to
 * the original per-flow, id-ordered kernel (tests/flowsim_reference.hpp
 * is that kernel, kept as a test oracle).  The two steps whose
 * floating-point order depends on flow ids — completion callbacks and
 * the power-aggregate subtractions — run over the completed set sorted
 * by id; everything else is elementwise, a min, or a sequence of
 * identical updates whose order cannot matter.
 */

#ifndef DHL_NETWORK_FLOWSIM_HPP
#define DHL_NETWORK_FLOWSIM_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/sim_object.hpp"
#include "sim/simulator.hpp"

namespace dhl {
namespace network {

/** Identifier of a flow inside a FlowSim. */
using FlowId = std::uint64_t;

/** Completion record passed to the flow's callback. */
struct FlowRecord
{
    FlowId id;
    double bytes;       ///< Bytes carried.
    double start_time;  ///< s.
    double finish_time; ///< s.
    double energy;      ///< J consumed by the flow's route elements.

    double duration() const { return finish_time - start_time; }
    double avgBandwidth() const { return bytes / duration(); }
};

/** The fluid flow simulator. */
class FlowSim : public sim::SimObject
{
  public:
    using Callback = std::function<void(const FlowRecord &)>;

    FlowSim(sim::Simulator &sim, std::string name = "flowsim");

    /**
     * Add a link with @p capacity bytes/s; returns its id.
     */
    int addLink(double capacity);

    int numLinks() const { return static_cast<int>(links_.size()); }
    double linkCapacity(int link) const;

    /**
     * Start a flow of @p bytes over the given links.
     *
     * @param links        Link ids in hop order (at least one).
     * @param bytes        Flow size, bytes (> 0).
     * @param route_power  Electrical power attributed while active, W.
     * @param cb           Invoked at completion (may be null).
     * @return The flow id.
     */
    FlowId startFlow(std::vector<int> links, double bytes,
                     double route_power = 0.0, Callback cb = nullptr);

    /** Cancel an in-flight flow; returns false if unknown/finished. */
    bool cancelFlow(FlowId id);

    /**
     * Current fair-share rate of an active flow, bytes/s.  Searches
     * the in-flight flows newest first: O(1) for the flow just
     * started, O(active flows) at worst.
     */
    double flowRate(FlowId id) const;

    /** Number of in-flight flows. */
    std::size_t activeFlows() const { return remaining_.size(); }

    /** Number of distinct link lists among the in-flight flows (the
     *  live path groups); 0 once every flow has finished. */
    std::size_t pathGroups() const { return group_index_.size(); }

    /** Total bytes delivered by completed flows. */
    double bytesDelivered() const { return bytes_delivered_; }

    /**
     * Total energy integrated over all flows (active + completed), J.
     * O(1): a flow at constant route power p accrues exactly
     * p·(now − start), so the active term is tracked as two running
     * sums (Σp and Σp·start).
     */
    double totalEnergy() const;

    /** Utilisation of a link right now, in [0, 1].  O(1). */
    double linkUtilisation(int link) const;

  private:
    /** Flows sharing one link list, hence one max-min rate. */
    struct Group
    {
        std::vector<int> links; ///< The shared path, hop order.
        double rate;            ///< Rate of every member flow, bytes/s.
        double min_remaining;   ///< Smallest remaining bytes of a member.
        int count;              ///< Live member flows; 0 = free slot.
    };

    struct Link
    {
        double capacity;
        double allocated; ///< Σ current rates of flows on this link.
        /** Live groups crossing this link (once per occurrence in the
         *  group's path; order is immaterial). */
        std::vector<std::uint32_t> groups;

        // Water-filling scratch (valid only inside reallocate()).
        double residual;
        int unfrozen;
    };

    /** Cold per-flow state, slot-parallel to the hot arrays. */
    struct FlowMeta
    {
        FlowId id;
        double route_power;
        double start_time;
        Callback cb;
    };

    /** Group of the link list @p links, creating it if new; may move
     *  from @p links. */
    std::uint32_t internGroup(std::vector<int> &links);

    /** Release group @p g (its last flow left). */
    void retireGroup(std::uint32_t g);

    /** Slot of flow @p id, or activeFlows() if it is not in flight. */
    std::size_t slotOf(FlowId id) const;

    /** Swap-remove the flow in @p slot, retiring its group if empty. */
    void removeSlot(std::size_t slot);

    /** Recompute every live group's min_remaining from the flows. */
    void recomputeMinRemaining();

    /** Drain every active flow's remaining bytes to now(). */
    void drainFlows();

    /** Recompute max-min fair rates and reschedule completion. */
    void reallocate();

    /** Fire completions for flows that have drained. */
    void onCompletionEvent();

    std::vector<Link> links_;

    // Per-flow state in dense slots (swap-removed; slot order is not
    // id order).
    std::vector<double> remaining_;
    std::vector<double> total_;
    std::vector<std::uint32_t> group_;
    std::vector<FlowMeta> meta_;

    std::vector<Group> groups_;                ///< Slots; count 0 = free.
    std::vector<std::uint32_t> free_groups_;   ///< Free group slots.
    std::map<std::vector<int>, std::uint32_t> group_index_; ///< Live.
    // Completion scratch, kept across events so its capacity is reused:
    // drained slots, then their records.
    std::vector<std::size_t> done_;
    std::vector<std::pair<FlowRecord, Callback>> finished_;

    FlowId next_id_;
    double last_update_;
    double bytes_delivered_;
    double finished_energy_;
    double active_power_;        ///< Σ route_power over active flows.
    double active_power_tstart_; ///< Σ route_power·start_time, ditto.
    sim::EventHandle completion_event_;

    stats::Counter *stat_flows_started_;
    stats::Counter *stat_flows_completed_;
    stats::Scalar *stat_bytes_delivered_;
    stats::Accumulator *stat_flow_duration_;
};

} // namespace network
} // namespace dhl

#endif // DHL_NETWORK_FLOWSIM_HPP
