#include "stats/interval.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "stats/fields.hh"
#include "stats/telemetry.hh"
#include "util/logging.hh"

namespace cachetime
{

IntervalCounters
IntervalCounters::minus(const IntervalCounters &base) const
{
    IntervalCounters d = *this;
    forEachField([&](const char *, const char *, auto member) {
        d.*member -= base.*member;
    });
    return d;
}

void
IntervalCounters::add(const IntervalCounters &other)
{
    stats::mergeFields(*this, other);
}

namespace
{

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) /
                          static_cast<double>(den);
}

} // namespace

double
IntervalRecord::cpi() const
{
    return c.refs == 0 ? 0.0
                       : static_cast<double>(c.cycles) /
                             static_cast<double>(c.refs);
}

double
IntervalRecord::readMissRatio() const
{
    return ratio(c.ifetchMisses + c.readMisses,
                 c.ifetchAccesses + c.readAccesses);
}

double
IntervalRecord::ifetchMissRatio() const
{
    return ratio(c.ifetchMisses, c.ifetchAccesses);
}

double
IntervalRecord::writeMissRatio() const
{
    return ratio(c.writeMisses, c.writeAccesses);
}

double
IntervalRecord::wbufMeanOccupancy() const
{
    return c.wbufOccupancyCount == 0
               ? 0.0
               : c.wbufOccupancySum /
                     static_cast<double>(c.wbufOccupancyCount);
}

double
IntervalRecord::refsPerSec() const
{
    return wallSeconds <= 0.0
               ? 0.0
               : static_cast<double>(endRef - beginRef) /
                     wallSeconds;
}

IntervalCollector::IntervalCollector(std::uint64_t window_refs)
    : window_(window_refs)
{
    if (window_ == 0)
        panic("IntervalCollector needs a nonzero window");
}

IntervalCollector::IntervalCollector(
    std::vector<std::uint64_t> boundaries)
    : window_(0), schedule_(std::move(boundaries))
{
    for (std::size_t i = 1; i < schedule_.size(); ++i) {
        if (schedule_[i] <= schedule_[i - 1])
            panic("IntervalCollector: boundary schedule must be "
                  "strictly increasing");
    }
}

std::uint64_t
IntervalCollector::firstBoundaryAfter(std::uint64_t pos) const
{
    if (window_ != 0)
        return (pos / window_ + 1) * window_;
    auto it =
        std::upper_bound(schedule_.begin(), schedule_.end(), pos);
    return it == schedule_.end() ? kNoBoundary : *it;
}

void
IntervalCollector::beginRun(const std::string &trace_name)
{
    trace_ = trace_name;
    indexInRun_ = 0;
    lastRef_ = 0;
    lastCum_ = IntervalCounters{};
    lastWall_ = telemetry::processWallSeconds();
}

void
IntervalCollector::emit(std::uint64_t end_ref,
                        const IntervalCounters &cumulative,
                        bool final)
{
    double wall = telemetry::processWallSeconds();
    IntervalRecord record;
    record.trace = trace_;
    record.index = indexInRun_++;
    record.beginRef = lastRef_;
    record.endRef = end_ref;
    record.final = final;
    record.c = cumulative.minus(lastCum_);
    record.wallSeconds = wall - lastWall_;
    records_.push_back(std::move(record));
    lastRef_ = end_ref;
    lastCum_ = cumulative;
    lastWall_ = wall;
}

void
IntervalCollector::atBoundary(std::uint64_t consumed,
                              const IntervalCounters &cumulative)
{
    emit(consumed, cumulative, false);
}

void
IntervalCollector::endRun(std::uint64_t consumed,
                          const IntervalCounters &cumulative)
{
    // A trailing partial window exists whenever references were
    // issued past the last boundary (or the run was shorter than
    // one window and never reached a boundary at all).
    if (consumed > lastRef_ || indexInRun_ == 0)
        emit(consumed, cumulative, true);
}

void
IntervalCollector::clear()
{
    records_.clear();
    indexInRun_ = 0;
    lastRef_ = 0;
    lastCum_ = IntervalCounters{};
}

namespace
{

/**
 * The interval column list behind the CSV header, the CSV rows and
 * the JSON objects: fn(name, value) for the window's identity, then
 * for IntervalCounters' field list with each derived value at its
 * column (the ratios after cycles, the mean occupancy in place of
 * the (count, sum) pair it is computed from), then for host time.
 */
template <typename Fn>
void
forEachColumn(const IntervalRecord &r, Fn &&fn)
{
    fn("trace", r.trace);
    fn("window", r.index);
    fn("begin_ref", r.beginRef);
    fn("end_ref", r.endRef);
    fn("final", r.final);
    IntervalCounters::forEachField(
        [&](std::string_view column, const char *, auto member) {
            if (column == "wbuf_occupancy_count")
                return;
            if (column == "wbuf_occupancy_sum") {
                fn("wbuf_mean_occupancy", r.wbufMeanOccupancy());
                return;
            }
            fn(column, r.c.*member);
            if (column == "cycles") {
                fn("cpi", r.cpi());
                fn("read_miss_ratio", r.readMissRatio());
                fn("ifetch_miss_ratio", r.ifetchMissRatio());
                fn("write_miss_ratio", r.writeMissRatio());
            }
        });
    fn("wall_seconds", r.wallSeconds);
    fn("refs_per_sec", r.refsPerSec());
}

/** Write one column value as a CSV cell or a JSON value. */
template <typename T>
void
writeValue(std::ostream &os, const T &v, bool json)
{
    if constexpr (std::is_same_v<T, std::string>) {
        if (json)
            os << '"' << stats::jsonEscape(v) << '"';
        else
            os << v;
    } else if constexpr (std::is_same_v<T, bool>) {
        os << (json ? (v ? "true" : "false") : (v ? "1" : "0"));
    } else if constexpr (std::is_floating_point_v<T>) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        os << buf;
    } else {
        os << v;
    }
}

} // namespace

void
IntervalCollector::dumpCsv(std::ostream &os) const
{
    const char *sep = "";
    forEachColumn(IntervalRecord{},
                  [&](std::string_view name, const auto &) {
                      os << std::exchange(sep, ",") << name;
                  });
    os << '\n';
    for (const IntervalRecord &r : records_) {
        sep = "";
        forEachColumn(r, [&](std::string_view, const auto &v) {
            os << std::exchange(sep, ",");
            writeValue(os, v, false);
        });
        os << '\n';
    }
}

void
IntervalCollector::dumpJson(std::ostream &os) const
{
    os << '[';
    for (std::size_t i = 0; i < records_.size(); ++i) {
        if (i)
            os << ',';
        char sep = '{';
        forEachColumn(records_[i],
                      [&](std::string_view name, const auto &v) {
                          os << std::exchange(sep, ',') << '"' << name
                             << "\":";
                          writeValue(os, v, true);
                      });
        os << '}';
    }
    os << ']';
}

std::string
IntervalCollector::json() const
{
    std::ostringstream ss;
    dumpJson(ss);
    return ss.str();
}

} // namespace cachetime
