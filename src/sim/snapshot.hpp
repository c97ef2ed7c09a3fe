/**
 * @file
 * Checkpoint/restore support for the DES: a line-oriented snapshot
 * format plus the Snapshotable interface simulation objects implement.
 *
 * A snapshot is a flat text document of `key = value` lines.  Writers
 * push hierarchical scopes ("track0", "faults") so composed objects
 * serialise without coordinating key names; readers push the same
 * scopes back.  Doubles are serialised as IEEE-754 bit patterns (hex),
 * so a restored value is the *identical* double, not a decimal
 * round-trip approximation — the byte-identity oracle for
 * restore(checkpoint) + run(delta) == uninterrupted run depends on it.
 *
 * The snapshot contract (DESIGN.md §11): state is captured only at a
 * *drained epoch boundary* — no in-flight request work — where every
 * pending event belongs to a Snapshotable process that records its
 * pending absolute event times and re-schedules them on restore.  The
 * event queue itself (arbitrary closures) is never serialised.
 */

#ifndef DHL_SIM_SNAPSHOT_HPP
#define DHL_SIM_SNAPSHOT_HPP

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/random.hpp"

namespace dhl {
namespace sim {

/**
 * Serialises state as scoped `key = value` lines.
 *
 * Lines are appended to an internal buffer, which is written to the
 * stream whenever it fills and when the writer is destroyed: the
 * document is complete in the stream only once the writer has gone out
 * of scope.
 */
class SnapshotWriter
{
  public:
    /** @param os Destination stream (text mode). */
    explicit SnapshotWriter(std::ostream &os);

    /**
     * Writes out whatever is still buffered.  Check the stream's state
     * after the writer is gone to learn whether every write succeeded.
     */
    ~SnapshotWriter();

    SnapshotWriter(const SnapshotWriter &) = delete;
    SnapshotWriter &operator=(const SnapshotWriter &) = delete;

    /** Enter a nested scope: keys gain a "scope." prefix. */
    void push(std::string_view scope);

    /** Leave the innermost scope. */
    void pop();

    /** Write one value.  Strings must not contain newlines. */
    void putString(std::string_view key, std::string_view value);
    void putU64(std::string_view key, std::uint64_t value);
    void putI64(std::string_view key, std::int64_t value);
    void putBool(std::string_view key, bool value);

    /** Bit-exact double serialisation (IEEE-754 pattern as hex). */
    void putDouble(std::string_view key, double value);

    /** Full RNG stream position (state words + Box-Muller spare). */
    void putRng(std::string_view key, const Rng &rng);

  private:
    /** Append `prefix + key + " = " + value + "\n"`; flush when full. */
    void putLine(std::string_view key, std::string_view value);
    void flush();

    std::ostream &os_;
    std::vector<std::size_t> scope_lens_;
    std::string prefix_;
    std::string buf_;
};

/**
 * Parses a snapshot document and serves scoped lookups.
 *
 * The reader keeps its own copy of the document and indexes `key`
 * → `value` views into it.  Lookups reuse the scope prefix as their key
 * buffer, so even the const getters mutate internal state: a reader is
 * not safe to share between threads.
 */
class SnapshotReader
{
  public:
    /** Parse @p is fully; fatal() on a malformed document. */
    explicit SnapshotReader(std::istream &is);

    SnapshotReader(const SnapshotReader &) = delete;
    SnapshotReader &operator=(const SnapshotReader &) = delete;

    void push(std::string_view scope);
    void pop();

    /** True if the (scoped) key exists. */
    bool has(std::string_view key) const;

    /** Typed lookups; fatal() on a missing key or unparsable value. */
    std::string getString(std::string_view key) const;
    std::uint64_t getU64(std::string_view key) const;
    std::int64_t getI64(std::string_view key) const;
    bool getBool(std::string_view key) const;
    double getDouble(std::string_view key) const;
    void getRng(std::string_view key, Rng &rng) const;

  private:
    /** The value of the scoped key, or nullptr if it is absent. */
    const std::string_view *find(std::string_view key) const;
    std::string_view rawValue(std::string_view key) const;
    [[noreturn]] void badValue(const char *what, std::string_view key,
                               std::string_view text) const;

    std::string doc_;
    std::unordered_map<std::string_view, std::string_view> values_;
    std::vector<std::size_t> scope_lens_;
    mutable std::string prefix_;
};

/** RAII scope guard usable with either side of the snapshot. */
template <typename Snapshot>
class SnapshotScope
{
  public:
    SnapshotScope(Snapshot &snap, std::string_view scope) : snap_(snap)
    {
        snap_.push(scope);
    }
    ~SnapshotScope() { snap_.pop(); }

    SnapshotScope(const SnapshotScope &) = delete;
    SnapshotScope &operator=(const SnapshotScope &) = delete;

  private:
    Snapshot &snap_;
};

/**
 * Implemented by every object that participates in checkpoint/restore.
 *
 * Contract: saveState() is called at a drained epoch boundary and must
 * be read-only.  restoreState() is called on a *freshly constructed*
 * object (same configuration, same seeds) whose constructor-scheduled
 * events have been cancelled; it rebuilds dynamic state, restores RNG
 * stream positions, and re-schedules pending events at their saved
 * absolute times.
 */
class Snapshotable
{
  public:
    virtual ~Snapshotable() = default;

    virtual void saveState(SnapshotWriter &w) const = 0;
    virtual void restoreState(SnapshotReader &r) = 0;
};

} // namespace sim
} // namespace dhl

#endif // DHL_SIM_SNAPSHOT_HPP
