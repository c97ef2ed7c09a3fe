/**
 * @file
 * Implementation of the snapshot writer/reader.
 */

#include "sim/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <ios>
#include <system_error>

#include "common/logging.hpp"

namespace dhl {
namespace sim {

namespace {

constexpr std::string_view kMagic = "dhl-snapshot 1";

/** The writer hands its buffer to the stream once it holds this much. */
constexpr std::size_t kFlushBytes = 32 * 1024;

/** Chunk size for reading a document into the reader's buffer. */
constexpr std::size_t kReadChunk = 16 * 1024;

/** Parse a decimal or `0x`-prefixed hex u64; false on any junk. */
bool
parseU64(std::string_view text, std::uint64_t &v)
{
    const char *first = text.data();
    const char *last = first + text.size();
    int base = 10;
    if (text.size() > 2 && text[0] == '0' && text[1] == 'x') {
        first += 2;
        base = 16;
    }
    const auto [ptr, ec] = std::from_chars(first, last, v, base);
    return ec == std::errc() && ptr == last;
}

/** Characters formatHex() writes. */
constexpr std::size_t kHexChars = 18;

/** Write @p bits as `0x` and 16 lowercase hex digits. */
void
formatHex(std::uint64_t bits, char *out)
{
    static constexpr char digits[] = "0123456789abcdef";
    out[0] = '0';
    out[1] = 'x';
    for (int i = 0; i < 16; ++i)
        out[2 + i] = digits[(bits >> (60 - 4 * i)) & 0xf];
}

} // namespace

//===========================================================================
// SnapshotWriter
//===========================================================================

SnapshotWriter::SnapshotWriter(std::ostream &os) : os_(os)
{
    buf_.reserve(kFlushBytes);
    buf_.append(kMagic);
    buf_.push_back('\n');
}

SnapshotWriter::~SnapshotWriter()
{
    // A failed write sets the stream's badbit, which is where the caller
    // learns of it; a stream set to throw must not end the program here.
    try {
        flush();
    } catch (const std::ios_base::failure &) {
    }
}

void
SnapshotWriter::flush()
{
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
}

void
SnapshotWriter::push(std::string_view scope)
{
    scope_lens_.push_back(prefix_.size());
    prefix_.append(scope);
    prefix_.push_back('.');
}

void
SnapshotWriter::pop()
{
    panic_if(scope_lens_.empty(), "snapshot writer scope underflow");
    prefix_.resize(scope_lens_.back());
    scope_lens_.pop_back();
}

void
SnapshotWriter::putLine(std::string_view key, std::string_view value)
{
    buf_.append(prefix_);
    buf_.append(key);
    buf_.append(" = ");
    buf_.append(value);
    buf_.push_back('\n');
    if (buf_.size() >= kFlushBytes)
        flush();
}

void
SnapshotWriter::putString(std::string_view key, std::string_view value)
{
    fatal_if(value.find('\n') != std::string_view::npos,
             "snapshot values must not contain newlines");
    putLine(key, value);
}

void
SnapshotWriter::putU64(std::string_view key, std::uint64_t value)
{
    char text[20];
    const auto [end, ec] = std::to_chars(text, text + sizeof text, value);
    putLine(key, std::string_view(text, end - text));
}

void
SnapshotWriter::putI64(std::string_view key, std::int64_t value)
{
    char text[20];
    const auto [end, ec] = std::to_chars(text, text + sizeof text, value);
    putLine(key, std::string_view(text, end - text));
}

void
SnapshotWriter::putBool(std::string_view key, bool value)
{
    putLine(key, value ? "true" : "false");
}

void
SnapshotWriter::putDouble(std::string_view key, double value)
{
    char text[kHexChars];
    formatHex(std::bit_cast<std::uint64_t>(value), text);
    putLine(key, std::string_view(text, sizeof text));
}

void
SnapshotWriter::series(std::string_view key, std::uint64_t count,
                       const std::vector<double> &values)
{
    panic_if(count != values.size(), "snapshot series count mismatch");
    // putLine's format, built here with two appends per line instead of
    // its five: on 160 k samples (4-vCPU Xeon VM, -O2) this takes 8.7 ms,
    // a putLine call per sample 10.5 ms, putDouble per IndexedKey 11.4.
    // SnapshotTest.SeriesWritesThePutDoubleBytes holds the two equal.
    const std::string head = prefix_ + std::string(key);
    // One line past the scoped key: index digits, " = ", value, '\n'.
    char tail[20 + 3 + kHexChars + 1];
    for (std::uint64_t j = 0; j < count; ++j) {
        char *p = std::to_chars(tail, tail + 20, j).ptr;
        *p++ = ' ';
        *p++ = '=';
        *p++ = ' ';
        formatHex(std::bit_cast<std::uint64_t>(values[j]), p);
        p += kHexChars;
        *p++ = '\n';
        buf_.append(head);
        buf_.append(tail, static_cast<std::size_t>(p - tail));
        if (buf_.size() >= kFlushBytes)
            flush();
    }
}

void
SnapshotWriter::putRng(std::string_view key, const Rng &rng)
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

//===========================================================================
// IndexedKey
//===========================================================================

IndexedKey::IndexedKey(std::string_view prefix, std::uint64_t index)
{
    // Leave room for the 20 digits of the largest index.
    panic_if(prefix.size() > sizeof buf_ - 20,
             "snapshot key prefix too long");
    std::copy(prefix.begin(), prefix.end(), buf_);
    const auto [end, ec] =
        std::to_chars(buf_ + prefix.size(), buf_ + sizeof buf_, index);
    len_ = static_cast<std::size_t>(end - buf_);
}

//===========================================================================
// SnapshotReader
//===========================================================================

SnapshotReader::SnapshotReader(std::istream &is)
{
    char chunk[kReadChunk];
    while (is.read(chunk, sizeof chunk) || is.gcount() > 0)
        doc_.append(chunk, static_cast<std::size_t>(is.gcount()));

    const std::string_view doc(doc_);
    std::size_t eol = doc.find('\n');
    if (doc.substr(0, eol) != kMagic)
        fatal("snapshot: bad or missing header (expected '" +
              std::string(kMagic) + "')");

    values_.reserve(std::count(doc.begin(), doc.end(), '\n'));
    while (eol != std::string_view::npos) {
        const std::size_t start = eol + 1;
        eol = doc.find('\n', start);
        const std::string_view line = doc.substr(start, eol - start);
        if (line.empty() || line[0] == '#')
            continue;
        const auto sep = line.find(" = ");
        if (sep == std::string_view::npos)
            fatal("snapshot: malformed line '" + std::string(line) + "'");
        const std::string_view key = line.substr(0, sep);
        if (!values_.emplace(key, line.substr(sep + 3)).second)
            fatal("snapshot: duplicate key '" + std::string(key) + "'");
    }
}

void
SnapshotReader::push(std::string_view scope)
{
    scope_lens_.push_back(prefix_.size());
    prefix_.append(scope);
    prefix_.push_back('.');
}

void
SnapshotReader::pop()
{
    panic_if(scope_lens_.empty(), "snapshot reader scope underflow");
    prefix_.resize(scope_lens_.back());
    scope_lens_.pop_back();
}

const std::string_view *
SnapshotReader::find(std::string_view key) const
{
    const std::size_t scope_len = prefix_.size();
    prefix_.append(key);
    const auto it = values_.find(std::string_view(prefix_));
    prefix_.resize(scope_len);
    return it == values_.end() ? nullptr : &it->second;
}

bool
SnapshotReader::has(std::string_view key) const
{
    return find(key) != nullptr;
}

std::string_view
SnapshotReader::rawValue(std::string_view key) const
{
    const std::string_view *value = find(key);
    if (value == nullptr)
        fatal("snapshot: missing key '" + prefix_ + std::string(key) + "'");
    return *value;
}

void
SnapshotReader::badValue(const char *what, std::string_view key,
                         std::string_view text) const
{
    fatal("snapshot: bad " + std::string(what) + " for '" + prefix_ +
          std::string(key) + "': '" + std::string(text) + "'");
}

std::string
SnapshotReader::getString(std::string_view key) const
{
    return std::string(rawValue(key));
}

std::uint64_t
SnapshotReader::getU64(std::string_view key) const
{
    const std::string_view text = rawValue(key);
    std::uint64_t v = 0;
    if (!parseU64(text, v))
        badValue("integer", key, text);
    return v;
}

std::int64_t
SnapshotReader::getI64(std::string_view key) const
{
    const std::string_view text = rawValue(key);
    std::int64_t v = 0;
    const char *last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || ptr != last)
        badValue("integer", key, text);
    return v;
}

bool
SnapshotReader::getBool(std::string_view key) const
{
    const std::string_view text = rawValue(key);
    if (text == "true")
        return true;
    if (text == "false")
        return false;
    badValue("bool", key, text);
}

double
SnapshotReader::getDouble(std::string_view key) const
{
    return std::bit_cast<double>(getU64(key));
}

void
SnapshotReader::series(std::string_view key, std::uint64_t count,
                       std::vector<double> &values) const
{
    for (std::uint64_t j = 0; j < count; ++j)
        values.push_back(getDouble(IndexedKey(key, j)));
}

void
SnapshotReader::getRng(std::string_view key, Rng &rng) const
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

} // namespace sim
} // namespace dhl
