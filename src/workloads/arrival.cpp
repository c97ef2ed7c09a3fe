/**
 * @file
 * Implementation of the open-loop arrival process.
 */

#include "workloads/arrival.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "sim/snapshot.hpp"

namespace dhl {
namespace workloads {

namespace {

double
maxRate(const StageSpec &s)
{
    return std::max(s.start_rate, s.end_rate);
}

} // namespace

StagedArrivalProcess::StagedArrivalProcess(std::vector<StageSpec> stages,
                                           std::uint64_t seed)
    : stages_(std::move(stages)), rng_(seed)
{
    fatal_if(stages_.empty(), "staged profile needs at least one stage");
    starts_.reserve(stages_.size() + 1);
    starts_.push_back(0.0);
    for (const auto &s : stages_) {
        fatal_if(!(s.duration > 0.0), "stage duration must be positive");
        fatal_if(s.start_rate < 0.0 || s.end_rate < 0.0,
                 "stage rates must be non-negative");
        fatal_if(s.mix.empty(), "stage mix must not be empty");
        for (const auto &c : s.mix) {
            fatal_if(!(c.weight > 0.0), "mix weights must be positive");
            fatal_if(!(c.median_bytes > 0.0),
                     "mix sizes must be positive");
            fatal_if(c.sigma < 0.0, "mix sigma must be non-negative");
        }
        starts_.push_back(starts_.back() + s.duration);
        std::vector<double> logs;
        for (const auto &c : s.mix)
            logs.push_back(std::log(c.median_bytes));
        log_medians_.push_back(std::move(logs));
    }
    total_duration_ = starts_.back();
}

std::size_t
StagedArrivalProcess::stageAt(double t) const
{
    for (std::size_t k = 0; k + 1 < stages_.size(); ++k) {
        if (t < stageEnd(k))
            return k;
    }
    return stages_.size() - 1;
}

double
StagedArrivalProcess::rateAt(double t) const
{
    if (t < 0.0 || t >= total_duration_)
        return 0.0;
    const std::size_t k = stageAt(t);
    const auto &s = stages_[k];
    const double frac = (t - stageStart(k)) / s.duration;
    return s.start_rate + (s.end_rate - s.start_rate) * frac;
}

std::vector<ArrivalEvent>
StagedArrivalProcess::take(double until)
{
    std::vector<ArrivalEvent> out;
    take(until, out);
    return out;
}

void
StagedArrivalProcess::take(double until, std::vector<ArrivalEvent> &out)
{
    fatal_if(until < cursor_, "arrival cursor cannot move backwards");
    out.clear();
    while (stage_ < stages_.size() && cursor_ < until) {
        const auto &s = stages_[stage_];
        const double stage_end = stageEnd(stage_);
        const double rate_cap = maxRate(s);
        if (rate_cap <= 0.0) {
            // A silent stage: no candidates, no randomness consumed.
            cursor_ = std::min(until, stage_end);
            if (cursor_ >= stage_end)
                ++stage_;
            continue;
        }
        const double limit = std::min(until, stage_end);
        // Thinning against the stage's max rate.  Candidates past the
        // limit are discarded rather than remembered; redrawing the
        // gap on the next take() is distributionally identical
        // (memorylessness), and both the oracle and a restored run
        // call take() on the same epoch grid, so the realised stream
        // is identical too.
        const double t_cand = cursor_ + rng_.exponential(1.0 / rate_cap);
        if (t_cand > limit) {
            cursor_ = limit;
            if (cursor_ >= stage_end)
                ++stage_;
            continue;
        }
        cursor_ = t_cand;
        const double accept = rng_.uniform(0.0, 1.0);
        if (accept * rate_cap > rateAt(t_cand))
            continue;
        // Class selection by cumulative weight, then size.
        std::size_t pick_class = 0;
        if (s.mix.size() > 1) {
            double total_w = 0.0;
            for (const auto &c : s.mix)
                total_w += c.weight;
            double pick = rng_.uniform(0.0, total_w);
            for (std::size_t j = 0; j < s.mix.size(); ++j) {
                pick_class = j;
                pick -= s.mix[j].weight;
                if (pick <= 0.0)
                    break;
            }
        }
        const RequestClass *cls = &s.mix[pick_class];
        const double bytes =
            cls->sigma > 0.0
                ? rng_.lognormal(log_medians_[stage_][pick_class],
                                 cls->sigma)
                : cls->median_bytes;
        out.push_back(ArrivalEvent{t_cand, bytes, cls->tag,
                                   static_cast<int>(stage_),
                                   cls->priority});
        ++emitted_;
    }
    if (cursor_ < until)
        cursor_ = until;
}

template <typename IO>
void
StagedArrivalProcess::snapshot(IO &io)
{
    sim::SnapshotScope scope(io, "arrivals");
    io.field("stage", stage_);
    fatal_if(IO::loading && stage_ > stages_.size(),
             "arrival restore: stage index beyond the profile (the "
             "checkpoint was taken against a different profile)");
    io.field("cursor", cursor_);
    io.field("emitted", emitted_);
    io.field("rng", rng_);
}

template void StagedArrivalProcess::snapshot(sim::SnapshotWriter &);
template void StagedArrivalProcess::snapshot(sim::SnapshotReader &);

//===========================================================================
// parseStageSpec
//===========================================================================

std::vector<StageSpec>
parseStageSpec(const std::string &spec, double median_bytes, double sigma)
{
    fatal_if(spec.empty(), "empty stage spec");
    std::vector<StageSpec> stages;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string item =
            spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;

        std::vector<std::string> fields;
        std::size_t fpos = 0;
        while (fpos <= item.size()) {
            const std::size_t colon = item.find(':', fpos);
            fields.push_back(item.substr(
                fpos, colon == std::string::npos ? std::string::npos
                                                 : colon - fpos));
            if (colon == std::string::npos)
                break;
            fpos = colon + 1;
        }
        if (fields.size() < 3 || fields.size() > 4)
            fatal("stage spec '" + item +
                  "' is not name:duration:rate[:end_rate]");
        StageSpec s;
        s.name = fields[0];
        fatal_if(s.name.empty(), "stage spec needs a non-empty name");
        try {
            s.duration = std::stod(fields[1]);
            s.start_rate = std::stod(fields[2]);
            s.end_rate = fields.size() == 4 ? std::stod(fields[3])
                                            : s.start_rate;
        } catch (const std::exception &) {
            fatal("stage spec '" + item + "' has a malformed number");
        }
        s.mix.push_back(RequestClass{"serve", 1.0, median_bytes, sigma, 0});
        stages.push_back(std::move(s));
    }
    return stages;
}

} // namespace workloads
} // namespace dhl
