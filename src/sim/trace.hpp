/**
 * @file
 * Lightweight event tracing for the simulation substrates.
 *
 * A TraceRecorder collects timestamped, categorised records (bounded by
 * a configurable capacity, oldest dropped first) that simulations can
 * emit at interesting points — launches, dockings, API commands,
 * failures.  Tests assert on traces; tools dump them as text or CSV.
 * Recording is off until enabled, so the hot path costs one branch.
 */

#ifndef DHL_SIM_TRACE_HPP
#define DHL_SIM_TRACE_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/snapshot.hpp"

namespace dhl {
namespace sim {

/** One trace record. */
struct TraceRecord
{
    Time when;            ///< Simulation time, s.
    std::string category; ///< e.g. "track", "dock", "api".
    std::string object;   ///< Emitting object name.
    std::string message;  ///< Free-form payload.
};

/** A bounded in-memory trace. */
class TraceRecorder
{
  public:
    /**
     * @param sim      Simulator supplying timestamps.
     * @param capacity Maximum retained records (oldest evicted).
     */
    explicit TraceRecorder(Simulator &sim, std::size_t capacity = 65536);

    /** Enable/disable recording (disabled by default). */
    void enable(bool on = true) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Emit a record (no-op while disabled).  Takes views so call
     *  sites pass literals and prebuilt buffers without materialising
     *  std::strings; emitters that *format* a message should guard
     *  with enabled() and skip the formatting entirely when off. */
    void record(std::string_view category, std::string_view object,
                std::string_view message);

    /** Records currently retained. */
    std::size_t size() const { return records_.size(); }

    /** The current retention bound. */
    std::size_t capacity() const { return capacity_; }

    /**
     * Re-bound the retained window at runtime (rotation mode for soak
     * runs): month-scale serves cap their trace with a small
     * maxRecords instead of the 64 Ki default so memory stays flat.
     * Shrinking evicts the oldest records immediately (counted in
     * dropped(), exactly as if they had rotated out at record() time);
     * growing just raises the bound.  A recorder left at its
     * constructor capacity behaves byte-identically to one without
     * this call.
     */
    void setCapacity(std::size_t max_records);

    /** Total records ever emitted (including evicted ones). */
    std::uint64_t totalEmitted() const { return emitted_; }

    /** Records dropped due to the capacity bound. */
    std::uint64_t dropped() const { return dropped_; }

    /** Access the retained records, oldest first. */
    const std::deque<TraceRecord> &records() const { return records_; }

    /** Retained records matching a category, oldest first. */
    std::vector<TraceRecord> filter(std::string_view category) const;

    /** Drop all retained records (counters keep running). */
    void clear() { records_.clear(); }

    /** Dump as "time [category] object: message" lines. */
    void dump(std::ostream &os) const;

    /** Dump as CSV with a header row. */
    void dumpCsv(std::ostream &os) const;

    /**
     * Save or restore the retained records and counters
     * (sim/snapshot.hpp).  The capacity and enabled flag are
     * configuration, not state, and must match on the restoring side
     * (fatal on a capacity mismatch).
     */
    template <typename IO>
    void snapshot(IO &io);

  private:
    // dhl-analyze: transient(sim_): constructor wiring
    Simulator &sim_;
    std::size_t capacity_;
    // dhl-analyze: transient(enabled_): a host-side observability
    // toggle, not simulated state; the harness decides per run
    bool enabled_;
    std::deque<TraceRecord> records_;
    std::uint64_t emitted_;
    std::uint64_t dropped_;
};

} // namespace sim
} // namespace dhl

#endif // DHL_SIM_TRACE_HPP
