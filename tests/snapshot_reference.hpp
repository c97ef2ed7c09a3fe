/**
 * @file
 * Test-only oracle: the snapshot writer and reader as first written,
 * kept in behaviour so the buffered sim::SnapshotWriter and the
 * view-indexing sim::SnapshotReader can be checked against them byte
 * for byte and message for message (tests/test_snapshot.cpp).
 *
 * The writer streams every token through `std::ostream <<` as soon as
 * it is put; the reader splits the document with std::getline into an
 * `unordered_map<string, string>` and builds each full key as a fresh
 * string.  It is deliberately the slow, direct definition of the
 * `dhl-snapshot 1` format.
 */

#ifndef DHL_TESTS_SNAPSHOT_REFERENCE_HPP
#define DHL_TESTS_SNAPSHOT_REFERENCE_HPP

#include <bit>
#include <charconv>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"

namespace dhl {
namespace sim {
namespace reference {

inline constexpr std::string_view kMagic = "dhl-snapshot 1";

inline std::string
toHex64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out = "0x";
    for (int shift = 60; shift >= 0; shift -= 4)
        out += digits[(v >> shift) & 0xf];
    return out;
}

inline std::uint64_t
parseU64(const std::string &key, const std::string &text)
{
    std::uint64_t v = 0;
    const char *first = text.data();
    const char *last = first + text.size();
    int base = 10;
    if (text.size() > 2 && text[0] == '0' && text[1] == 'x') {
        first += 2;
        base = 16;
    }
    const auto [ptr, ec] = std::from_chars(first, last, v, base);
    if (ec != std::errc() || ptr != last)
        fatal("snapshot: bad integer for '" + key + "': '" + text + "'");
    return v;
}

/** Unbuffered writer: every put goes straight to the stream. */
class SnapshotWriter
{
  public:
    explicit SnapshotWriter(std::ostream &os) : os_(os)
    {
        os_ << kMagic << "\n";
    }

    SnapshotWriter(const SnapshotWriter &) = delete;
    SnapshotWriter &operator=(const SnapshotWriter &) = delete;

    void
    push(std::string_view scope)
    {
        scope_lens_.push_back(prefix_.size());
        prefix_.append(scope);
        prefix_.push_back('.');
    }

    void
    pop()
    {
        panic_if(scope_lens_.empty(), "snapshot writer scope underflow");
        prefix_.resize(scope_lens_.back());
        scope_lens_.pop_back();
    }

    void
    putString(std::string_view key, std::string_view value)
    {
        fatal_if(value.find('\n') != std::string_view::npos,
                 "snapshot values must not contain newlines");
        os_ << fullKey(key) << " = " << value << "\n";
    }

    void
    putU64(std::string_view key, std::uint64_t value)
    {
        os_ << fullKey(key) << " = " << value << "\n";
    }

    void
    putI64(std::string_view key, std::int64_t value)
    {
        os_ << fullKey(key) << " = " << value << "\n";
    }

    void
    putBool(std::string_view key, bool value)
    {
        os_ << fullKey(key) << " = " << (value ? "true" : "false") << "\n";
    }

    void
    putDouble(std::string_view key, double value)
    {
        os_ << fullKey(key) << " = "
            << toHex64(std::bit_cast<std::uint64_t>(value)) << "\n";
    }

    void
    putRng(std::string_view key, const Rng &rng)
    {
        const RngState s = rng.saveState();
        push(key);
        putU64("s0", s.state[0]);
        putU64("s1", s.state[1]);
        putU64("s2", s.state[2]);
        putU64("s3", s.state[3]);
        putBool("has_spare", s.has_spare);
        putDouble("spare", s.spare);
        pop();
    }

  private:
    std::string
    fullKey(std::string_view key) const
    {
        std::string full = prefix_;
        full.append(key);
        return full;
    }

    std::ostream &os_;
    std::vector<std::size_t> scope_lens_;
    std::string prefix_;
};

/** getline-based reader over an owning string map. */
class SnapshotReader
{
  public:
    explicit SnapshotReader(std::istream &is)
    {
        std::string line;
        if (!std::getline(is, line) || line != kMagic)
            fatal("snapshot: bad or missing header (expected '" +
                  std::string(kMagic) + "')");
        while (std::getline(is, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            const auto sep = line.find(" = ");
            if (sep == std::string::npos)
                fatal("snapshot: malformed line '" + line + "'");
            std::string key = line.substr(0, sep);
            std::string value = line.substr(sep + 3);
            if (values_.count(key) != 0)
                fatal("snapshot: duplicate key '" + key + "'");
            values_.emplace(std::move(key), std::move(value));
        }
    }

    SnapshotReader(const SnapshotReader &) = delete;
    SnapshotReader &operator=(const SnapshotReader &) = delete;

    void
    push(std::string_view scope)
    {
        scope_lens_.push_back(prefix_.size());
        prefix_.append(scope);
        prefix_.push_back('.');
    }

    void
    pop()
    {
        panic_if(scope_lens_.empty(), "snapshot reader scope underflow");
        prefix_.resize(scope_lens_.back());
        scope_lens_.pop_back();
    }

    bool
    has(std::string_view key) const
    {
        return values_.count(fullKey(key)) != 0;
    }

    std::string
    getString(std::string_view key) const
    {
        return rawValue(key);
    }

    std::uint64_t
    getU64(std::string_view key) const
    {
        return parseU64(fullKey(key), rawValue(key));
    }

    std::int64_t
    getI64(std::string_view key) const
    {
        const std::string &text = rawValue(key);
        std::int64_t v = 0;
        const auto [ptr, ec] =
            std::from_chars(text.data(), text.data() + text.size(), v);
        if (ec != std::errc() || ptr != text.data() + text.size())
            fatal("snapshot: bad integer for '" + fullKey(key) + "': '" +
                  text + "'");
        return v;
    }

    bool
    getBool(std::string_view key) const
    {
        const std::string &text = rawValue(key);
        if (text == "true")
            return true;
        if (text == "false")
            return false;
        fatal("snapshot: bad bool for '" + fullKey(key) + "': '" + text +
              "'");
    }

    double
    getDouble(std::string_view key) const
    {
        return std::bit_cast<double>(
            parseU64(fullKey(key), rawValue(key)));
    }

    void
    getRng(std::string_view key, Rng &rng) const
    {
        RngState s{};
        auto *self = const_cast<SnapshotReader *>(this);
        self->push(key);
        s.state[0] = getU64("s0");
        s.state[1] = getU64("s1");
        s.state[2] = getU64("s2");
        s.state[3] = getU64("s3");
        s.has_spare = getBool("has_spare");
        s.spare = getDouble("spare");
        self->pop();
        rng.restoreState(s);
    }

  private:
    std::string
    fullKey(std::string_view key) const
    {
        std::string full = prefix_;
        full.append(key);
        return full;
    }

    const std::string &
    rawValue(std::string_view key) const
    {
        const std::string full = fullKey(key);
        const auto it = values_.find(full);
        if (it == values_.end())
            fatal("snapshot: missing key '" + full + "'");
        return it->second;
    }

    std::unordered_map<std::string, std::string> values_;
    std::vector<std::size_t> scope_lens_;
    std::string prefix_;
};

} // namespace reference
} // namespace sim
} // namespace dhl

#endif // DHL_TESTS_SNAPSHOT_REFERENCE_HPP
