/**
 * @file
 * Implementation of the trace recorder.
 */

#include "sim/trace.hpp"

#include "common/logging.hpp"
#include "common/units.hpp"

namespace dhl {
namespace sim {

TraceRecorder::TraceRecorder(Simulator &sim, std::size_t capacity)
    : sim_(sim),
      capacity_(capacity),
      enabled_(false),
      emitted_(0),
      dropped_(0)
{
    fatal_if(capacity == 0, "trace capacity must be positive");
}

void
TraceRecorder::record(std::string_view category, std::string_view object,
                      std::string_view message)
{
    if (!enabled_)
        return;
    ++emitted_;
    if (records_.size() >= capacity_) {
        records_.pop_front();
        ++dropped_;
    }
    records_.push_back(TraceRecord{sim_.now(), std::string(category),
                                   std::string(object),
                                   std::string(message)});
}

void
TraceRecorder::setCapacity(std::size_t max_records)
{
    fatal_if(max_records == 0, "trace capacity must be positive");
    capacity_ = max_records;
    while (records_.size() > capacity_) {
        records_.pop_front();
        ++dropped_;
    }
}

template <typename IO>
void
TraceRecorder::snapshot(IO &io)
{
    SnapshotScope scope(io, "trace");
    fatal_if(!io.match("capacity", capacity_),
             "trace restore: capacity does not match the checkpoint");
    io.field("emitted", emitted_);
    io.field("dropped", dropped_);
    std::uint64_t n = records_.size();
    io.field("records", n);
    if constexpr (IO::loading)
        records_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        SnapshotScope rs(io, IndexedKey("r", i));
        if constexpr (IO::loading)
            records_.emplace_back();
        TraceRecord &rec = records_[i];
        io.field("when", rec.when);
        io.field("category", rec.category);
        io.field("object", rec.object);
        io.field("message", rec.message);
    }
}

template void TraceRecorder::snapshot(SnapshotWriter &);
template void TraceRecorder::snapshot(SnapshotReader &);

std::vector<TraceRecord>
TraceRecorder::filter(std::string_view category) const
{
    std::vector<TraceRecord> out;
    for (const auto &r : records_) {
        if (r.category == category)
            out.push_back(r);
    }
    return out;
}

void
TraceRecorder::dump(std::ostream &os) const
{
    for (const auto &r : records_) {
        os << units::formatSig(r.when, 9) << " [" << r.category << "] "
           << r.object << ": " << r.message << "\n";
    }
}

void
TraceRecorder::dumpCsv(std::ostream &os) const
{
    os << "time,category,object,message\n";
    auto escape = [](const std::string &s) {
        std::string out;
        bool need_quotes = s.find_first_of(",\"\n") != std::string::npos;
        if (!need_quotes)
            return s;
        out.push_back('"');
        for (char c : s) {
            if (c == '"')
                out.push_back('"');
            out.push_back(c);
        }
        out.push_back('"');
        return out;
    };
    for (const auto &r : records_) {
        os << units::formatSig(r.when, 12) << "," << escape(r.category)
           << "," << escape(r.object) << "," << escape(r.message) << "\n";
    }
}

} // namespace sim
} // namespace dhl
