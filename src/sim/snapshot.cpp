/**
 * @file
 * Implementation of the snapshot writer/reader.
 */

#include "sim/snapshot.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstring>
#include <ios>
#include <system_error>

#include "common/logging.hpp"

namespace dhl {
namespace sim {

namespace {

constexpr std::string_view kMagic = "dhl-snapshot 1";

/** The writer hands its buffer to the stream once it holds this much. */
constexpr std::size_t kFlushBytes = 32 * 1024;

/** Chunk size for reading a stream whose size is unknown. */
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

/** The two lowercase hex digits of every byte value. */
constexpr std::array<char, 512> kByteHex = [] {
    constexpr char digits[] = "0123456789abcdef";
    std::array<char, 512> t{};
    for (std::size_t b = 0; b < 256; ++b) {
        t[2 * b] = digits[b >> 4];
        t[2 * b + 1] = digits[b & 0xf];
    }
    return t;
}();

/** Write @p bits as `0x` and 16 lowercase hex digits. */
void
formatHex(std::uint64_t bits, char *out)
{
    out[0] = '0';
    out[1] = 'x';
    for (int i = 0; i < 8; ++i) {
        const std::size_t byte = (bits >> (56 - 8 * i)) & 0xff;
        std::memcpy(out + 2 + 2 * i, &kByteHex[2 * byte], 2);
    }
}

/**
 * One line of a series, `<head><j> = 0x<16 hex digits>\n`, kept as a
 * template whose decimal index j counts up in place: the bytes
 * putDouble(IndexedKey(key, j), v) writes, without a to_chars call or a
 * key build per line.
 */
class SeriesLine
{
  public:
    explicit SeriesLine(std::string head)
        : text_(std::move(head)), digits_begin_(text_.size())
    {
        text_.append("0 = 0x0000000000000000\n");
    }

    /** The whole line, newline included. */
    std::string_view text() const { return text_; }

    /** Where the 16 value digits start. */
    std::size_t valueAt() const { return text_.size() - 17; }

    /** Write sample @p bits into the template. */
    void setValue(std::uint64_t bits)
    {
        formatHex(bits, text_.data() + valueAt() - 2);
    }

    /** Move on to the next index. */
    void next()
    {
        std::size_t i = valueAt() - 6; // the last index digit
        while (text_[i] == '9') {
            text_[i] = '0';
            if (i-- == digits_begin_) {
                text_.insert(digits_begin_, 1, '1');
                return;
            }
        }
        ++text_[i];
    }

  private:
    std::string text_;
    std::size_t digits_begin_;
};

/** Decimal digits of @p v. */
std::size_t
decimalDigits(std::uint64_t v)
{
    std::size_t n = 1;
    for (; v >= 10; v /= 10)
        ++n;
    return n;
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
    if (count == 0)
        return;
    // putLine's bytes, formatted in batches straight into buf_: one
    // resize per batch to the longest line times the batch, then cut
    // back to what was written.
    // SnapshotTest.SeriesWritesThePutDoubleBytes holds the two equal.
    SeriesLine line(prefix_ + std::string(key));
    const std::size_t line_max =
        line.text().size() - 1 + decimalDigits(count - 1);
    for (std::uint64_t j = 0; j < count;) {
        const std::size_t room =
            buf_.size() < kFlushBytes ? (kFlushBytes - buf_.size()) / line_max
                                      : 0;
        const std::uint64_t batch =
            std::min<std::uint64_t>(std::max<std::size_t>(room, 1), count - j);
        const std::size_t start = buf_.size();
        buf_.resize(start + batch * line_max);
        char *p = buf_.data() + start;
        for (const std::uint64_t end = j + batch; j < end; ++j) {
            line.setValue(std::bit_cast<std::uint64_t>(values[j]));
            std::memcpy(p, line.text().data(), line.text().size());
            p += line.text().size();
            line.next();
        }
        buf_.resize(static_cast<std::size_t>(p - buf_.data()));
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
    // One read into a buffer sized from the stream when it can seek;
    // chunks for whatever is left (or for a stream that cannot).
    const std::streampos kNoPos(-1);
    std::streambuf *sb = is.rdbuf();
    const std::streampos here =
        sb != nullptr ? sb->pubseekoff(0, std::ios::cur, std::ios::in)
                      : kNoPos;
    if (here != kNoPos) {
        const std::streampos end =
            sb->pubseekoff(0, std::ios::end, std::ios::in);
        if (sb->pubseekpos(here, std::ios::in) == here && end != kNoPos &&
            end > here) {
            doc_.resize(static_cast<std::size_t>(end - here));
            is.read(doc_.data(), static_cast<std::streamsize>(doc_.size()));
            doc_.resize(static_cast<std::size_t>(is.gcount()));
        }
    }
    if (is.peek() != std::istream::traits_type::eof()) {
        char chunk[kReadChunk];
        while (is.read(chunk, sizeof chunk) || is.gcount() > 0)
            doc_.append(chunk, static_cast<std::size_t>(is.gcount()));
    }

    const std::size_t eol = doc_.find('\n');
    if (std::string_view(doc_).substr(0, eol) != kMagic)
        fatal("snapshot: bad or missing header (expected '" +
              std::string(kMagic) + "')");
    pos_ = eol == std::string::npos ? doc_.size() : eol + 1;
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

bool
SnapshotReader::nextLine(std::string_view &line)
{
    const std::string_view doc(doc_);
    while (pos_ < doc.size()) {
        const std::size_t eol = std::min(doc.find('\n', pos_), doc.size());
        line = doc.substr(pos_, eol - pos_);
        if (!line.empty() && line[0] != '#')
            return true;
        pos_ = eol + 1;
    }
    return false;
}

std::string_view
SnapshotReader::take(std::string_view key)
{
    std::string_view line;
    if (!nextLine(line))
        fatal("snapshot: expected key '" + prefix_ + std::string(key) +
              "', found the end of the document");
    // Keys hold no " = ", so the line is the expected key's exactly
    // when it starts with the key and then the separator.  Each test
    // passing keeps the next one's substr inside the line.
    const std::size_t sep = prefix_.size() + key.size();
    if (!line.starts_with(prefix_) ||
        line.substr(prefix_.size(), key.size()) != key ||
        line.substr(sep, 3) != " = ")
        fatal("snapshot: expected key '" + prefix_ + std::string(key) +
              "', found '" + std::string(line) + "'");
    pos_ += line.size() + 1;
    return line.substr(sep + 3);
}

void
SnapshotReader::finish()
{
    std::string_view line;
    if (nextLine(line))
        fatal("snapshot: expected the end of the document, found '" +
              std::string(line) + "'");
}

void
SnapshotReader::badValue(const char *what, std::string_view key,
                         std::string_view text) const
{
    fatal("snapshot: bad " + std::string(what) + " for '" + prefix_ +
          std::string(key) + "': '" + std::string(text) + "'");
}

std::string
SnapshotReader::getString(std::string_view key)
{
    return std::string(take(key));
}

std::uint64_t
SnapshotReader::getU64(std::string_view key)
{
    const std::string_view text = take(key);
    std::uint64_t v = 0;
    if (!parseU64(text, v))
        badValue("integer", key, text);
    return v;
}

std::int64_t
SnapshotReader::getI64(std::string_view key)
{
    const std::string_view text = take(key);
    std::int64_t v = 0;
    const char *last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || ptr != last)
        badValue("integer", key, text);
    return v;
}

bool
SnapshotReader::getBool(std::string_view key)
{
    const std::string_view text = take(key);
    if (text == "true")
        return true;
    if (text == "false")
        return false;
    badValue("bool", key, text);
}

double
SnapshotReader::getDouble(std::string_view key)
{
    return std::bit_cast<double>(getU64(key));
}

void
SnapshotReader::series(std::string_view key, std::uint64_t count,
                       std::vector<double> &values)
{
    for (std::uint64_t j = 0; j < count; ++j)
        values.push_back(getDouble(IndexedKey(key, j)));
}

void
SnapshotReader::getRng(std::string_view key, Rng &rng)
{
    RngState s{};
    push(key);
    s.state[0] = getU64("s0");
    s.state[1] = getU64("s1");
    s.state[2] = getU64("s2");
    s.state[3] = getU64("s3");
    s.has_spare = getBool("has_spare");
    s.spare = getDouble("spare");
    pop();
    rng.restoreState(s);
}

} // namespace sim
} // namespace dhl
