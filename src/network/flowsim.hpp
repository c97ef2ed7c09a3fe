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
 * Path groups (see DESIGN.md §7): flows with the same link list always
 * receive the same max-min rate, so rates live on an interned path
 * group, and water-filling runs over groups instead of flows.  Each
 * group also owns its members' hot state (remaining bytes, drain floor,
 * cold-state slot) as parallel arrays in one allocation, so the drain
 * and completion passes walk one group at a time with its rate hoisted,
 * and the completion test is one comparison per flow against a
 * threshold instead of a division.  Both passes run on SIMD lanes
 * (network/flow_lanes.hpp), AVX-512 or AVX2 picked at run time, or as
 * the scalar loops on a host without AVX2.  Groups are retired when
 * their last flow leaves, so the cost tracks the active paths, not
 * every path ever seen.
 *
 * Determinism: every rate, finish time and energy is bit-identical to
 * the original per-flow, id-ordered kernel (tests/flowsim_reference.hpp
 * is that kernel, kept as a test oracle).  The two steps whose
 * floating-point order depends on flow ids — completion callbacks and
 * the power-aggregate subtractions — run over the completed set sorted
 * by id; everything else is elementwise, a min, or a sequence of
 * identical updates whose order cannot matter.  Every lane instance
 * computes what the scalar loop computes, bit for bit.
 */

#ifndef DHL_NETWORK_FLOWSIM_HPP
#define DHL_NETWORK_FLOWSIM_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
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

/**
 * Byte floor at or below which a flow of @p size bytes counts as
 * drained: max(1e-6, size·1e-9), an absolute or a relative sliver.
 */
double drainFloor(double size);

/**
 * The largest double T with T / @p rate <= @p limit, for positive
 * finite @p rate and @p limit.  Correctly rounded division by a
 * positive number is monotone, so for every double x,
 * x / rate <= limit exactly when x <= T.
 */
double quotientBound(double rate, double limit);

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
     * @param bytes        Flow size, bytes (finite, > 0).
     * @param route_power  Electrical power attributed while active, W
     *                     (finite, >= 0).
     * @param cb           Invoked at completion (may be null).
     * @return The flow id.
     */
    FlowId startFlow(std::vector<int> links, double bytes,
                     double route_power = 0.0, Callback cb = nullptr);

    /**
     * Current fair-share rate of an active flow, bytes/s.  Searches
     * the in-flight flows newest first: O(1) for the flow just
     * started, O(active flows) at worst.
     */
    double flowRate(FlowId id) const;

    /** Number of in-flight flows. */
    std::size_t activeFlows() const { return meta_.size(); }

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

    /**
     * Utilisation of a link right now, in [0, 1].  Replays the last
     * water-filling's freezes: O(freezes + flows frozen on the link).
     */
    double linkUtilisation(int link) const;

  private:
    /**
     * Flows sharing one link list, hence one max-min rate.  The
     * members' hot state is three parallel arrays (remaining bytes,
     * drain floor, cold-state slot) carved from one block that starts
     * on a 64-byte boundary, so the lane kernel streams contiguous
     * doubles and a new group pays one allocation.  Members are
     * swap-removed (member order is not id order); a group with no
     * members is a free slot.
     */
    struct Group
    {
        std::vector<int> links; ///< The shared path, hop order.
        double rate;            ///< Rate of every member flow, bytes/s.
        double min_remaining;   ///< Smallest remaining bytes of a member.
        std::uint32_t size = 0;     ///< Member flows.
        std::uint32_t capacity = 0; ///< Slots in each member array.
        std::unique_ptr<std::byte[]> block; ///< Owns the arrays.
        double *hot = nullptr; ///< The arrays: block's first boundary.

        int count() const { return static_cast<int>(size); }

        /** Bytes left, per member. */
        double *remaining() { return hot; }
        /** drainFloor(size), per member. */
        double *floor() { return hot + capacity; }
        /** Slot of the member's cold state in meta_. */
        std::uint32_t *meta()
        {
            return reinterpret_cast<std::uint32_t *>(hot + 2 * capacity);
        }

        /** Room for at least @p slots members. */
        void reserve(std::uint32_t slots);
    };

    struct Link
    {
        double capacity;
        /** Live groups crossing this link (once per occurrence in the
         *  group's path; order is immaterial). */
        std::vector<std::uint32_t> groups;

        // Water-filling scratch (valid only inside reallocate()).
        double residual;
        int unfrozen;
    };

    /** @p flows flows frozen at @p share on @p link, one water-filling
     *  step of the utilisation sum linkUtilisation() replays. */
    struct Freeze
    {
        int link;
        int flows;
        double share;
    };

    /** Cold per-flow state, in dense swap-removed slots. */
    struct FlowMeta
    {
        FlowId id;
        double route_power;
        double start_time;
        double size; ///< Bytes the flow carries.
        Callback cb;
        std::uint32_t group; ///< Group holding the flow's hot state...
        std::uint32_t index; ///< ...and its index among the members.
    };

    /** A drained flow found by a completion pass. */
    struct Done
    {
        FlowId id;
        std::uint32_t group;
        std::uint32_t index;
    };

    /** Group of the link list @p links, creating it if new; may move
     *  from @p links. */
    std::uint32_t internGroup(std::vector<int> &links);

    /** Release group @p g (its last flow left). */
    void retireGroup(std::uint32_t g);

    /** Slot of flow @p id in meta_, or activeFlows() if it is not in
     *  flight. */
    std::size_t slotOf(FlowId id) const;

    /** Swap-remove member @p index of group @p g and its cold state,
     *  retiring the group if it empties. */
    void removeMember(std::uint32_t g, std::uint32_t index);

    /** Drain every active flow's remaining bytes to now(). */
    void drainFlows();

    /** Recompute max-min fair rates and reschedule completion. */
    void reallocate();

    /** Fire completions for flows that have drained. */
    void onCompletionEvent();

    std::vector<Link> links_;
    /** The last water-filling's freezes, in freeze order. */
    std::vector<Freeze> freezes_;

    // Cold per-flow state (swap-removed; slot order is not id order).
    std::vector<FlowMeta> meta_;

    std::vector<Group> groups_;              ///< Slots; empty = free.
    std::vector<std::uint32_t> free_groups_; ///< Free group slots.
    std::map<std::vector<int>, std::uint32_t> group_index_; ///< Live.
    // Completion scratch, kept across events so its capacity is reused:
    // one group's drained member indices, the drained flows, then their
    // records.
    std::vector<std::uint32_t> done_index_;
    std::vector<Done> done_;
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
