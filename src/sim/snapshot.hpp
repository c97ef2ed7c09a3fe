/**
 * @file
 * Checkpoint/restore support for the DES: a line-oriented snapshot
 * format plus the one-body protocol simulation objects implement.
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
 * pending event belongs to a checkpointed process that records its
 * pending absolute event times and re-schedules them on restore.  The
 * event queue itself (arbitrary closures) is never serialised.
 *
 * Each checkpointed class has one member
 *
 *   template <typename IO> void snapshot(IO &io);
 *
 * instantiated for SnapshotWriter (save) and SnapshotReader (restore).
 * Its body names every key once, as io.field(key, member), so the two
 * directions share one key list, scope nesting and key order.  Work
 * that only a restore does sits under `if constexpr (IO::loading)`:
 * cancelling constructor-scheduled events and re-arming the saved
 * ones, growing containers one element per key read (an untrusted
 * count must end at a missing key, not at a huge reservation) and
 * resetting stats.  Counts checked against the constructed object go
 * through io.match(), which the writer answers with true.  With a
 * writer the body only reads; with a reader it runs on a *freshly
 * constructed* object (same configuration, same seeds).
 */

#ifndef DHL_SIM_SNAPSHOT_HPP
#define DHL_SIM_SNAPSHOT_HPP

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
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

    /** A snapshot body run with a writer saves. */
    static constexpr bool loading = false;

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

    /**
     * Write @p value with the put* call its type selects: bool, double,
     * Rng, signed or unsigned integer, else a string.
     */
    template <typename T>
    void field(std::string_view key, const T &value)
    {
        if constexpr (std::is_same_v<T, bool>)
            putBool(key, value);
        else if constexpr (std::is_same_v<T, double>)
            putDouble(key, value);
        else if constexpr (std::is_same_v<T, Rng>)
            putRng(key, value);
        else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>)
            putI64(key, value);
        else if constexpr (std::is_integral_v<T>)
            putU64(key, value);
        else
            putString(key, value);
    }

    /**
     * Write the @p count doubles of @p values as the keys `<key>0`,
     * `<key>1`, ... in that order, with the bytes putDouble() would
     * write for each, formatted straight into the buffer.  @p count
     * must equal values.size(); the reader takes it as the length to
     * read.
     */
    void series(std::string_view key, std::uint64_t count,
                const std::vector<double> &values);

    /** Write @p value; the save side of a check always passes. */
    template <typename T>
    bool match(std::string_view key, const T &value)
    {
        field(key, value);
        return true;
    }

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

    /** A snapshot body run with a reader restores. */
    static constexpr bool loading = true;

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

    /** Read @p key into @p value, decoded as SnapshotWriter::field
     *  encodes its type. */
    template <typename T>
    void field(std::string_view key, T &value) const
    {
        if constexpr (std::is_same_v<T, bool>)
            value = getBool(key);
        else if constexpr (std::is_same_v<T, double>)
            value = getDouble(key);
        else if constexpr (std::is_same_v<T, Rng>)
            getRng(key, value);
        else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>)
            value = static_cast<T>(getI64(key));
        else if constexpr (std::is_integral_v<T>)
            value = static_cast<T>(getU64(key));
        else
            value = getString(key);
    }

    /**
     * Append the @p count doubles SnapshotWriter::series wrote under
     * @p key to @p values, one key lookup each.  Nothing is reserved,
     * so a corrupt count ends at the first missing key.
     */
    void series(std::string_view key, std::uint64_t count,
                std::vector<double> &values) const;

    /** Read @p key and report whether it equals @p expected. */
    template <typename T>
    bool match(std::string_view key, const T &expected) const
    {
        if constexpr (std::is_convertible_v<const T &, std::string_view>) {
            return getString(key) == std::string_view(expected);
        } else {
            T got{};
            field(key, got);
            return got == expected;
        }
    }

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
 * A key or scope name made of a prefix and a decimal index ("l17",
 * "cart3"), built without allocating.
 */
class IndexedKey
{
  public:
    IndexedKey(std::string_view prefix, std::uint64_t index);

    operator std::string_view() const { return {buf_, len_}; }

  private:
    char buf_[32];
    std::size_t len_;
};

} // namespace sim
} // namespace dhl

#endif // DHL_SIM_SNAPSHOT_HPP
