/**
 * @file
 * Schema walk over the counter structs' field lists
 * (stats/fields.hh): every entry of every list must reach every
 * consumer - verify::diffResults names it, SimResult::mergeCounters
 * sums it, the stats registry finds it under its dotted name, and
 * the interval CSV/JSON carry it as a column - and every list must
 * cover its struct's layout.  A counter added to a struct but not to
 * its list, or a consumer that skips a list entry, fails here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sim_result.hh"
#include "stats/fields.hh"
#include "stats/interval.hh"
#include "verify/diff.hh"

namespace cachetime
{
namespace
{

/** A result whose every optional group is registered. */
SimResult
schemaBase()
{
    SimResult r;
    r.physical = true;
    r.coherent = true;
    r.cores = 2;
    return r;
}

template <typename T>
void
setDistinct(T &field, std::uint64_t value)
{
    field = static_cast<T>(value);
}

void
setDistinct(Histogram &field, std::uint64_t value)
{
    field.sample(value);
}

/**
 * Walk S's field list at @p group(result) of a SimResult: @p diffName
 * is the group's prefix in diffResults, @p regName its registry
 * group (both empty for SimResult's own top-line list).
 */
template <typename S, typename Group>
void
walkFields(Group group, const std::string &diffName,
           const std::string &regName)
{
    auto dotted = [](const std::string &prefix, const char *leaf) {
        return prefix.empty() ? std::string(leaf) : prefix + "." + leaf;
    };
    std::set<std::string> leaves;
    std::uint64_t value = 3;
    S::forEachField([&](const char *leaf, const char *desc,
                        auto member) {
        SCOPED_TRACE(dotted(diffName, leaf));
        EXPECT_TRUE(leaves.insert(leaf).second) << "duplicate leaf";
        EXPECT_STRNE(desc, "");

        SimResult base = schemaBase();
        SimResult changed = base;
        auto &field = group(changed).*member;
        setDistinct(field, value += 7);

        // diffResults names exactly this field (a histogram may
        // differ in several of its moments, all under its name).
        std::vector<verify::FieldDiff> diffs =
            verify::diffResults(base, changed);
        ASSERT_FALSE(diffs.empty());
        const std::string name = dotted(diffName, leaf);
        for (const verify::FieldDiff &diff : diffs) {
            EXPECT_TRUE(diff.field == name ||
                        diff.field.rfind(name + ".", 0) == 0)
                << diff.field;
        }

        // mergeCounters sums it (maxOccupancy is a high-water mark).
        SimResult merged = changed;
        merged.mergeCounters(changed);
        const auto &sum = group(merged).*member;
        if constexpr (std::is_same_v<
                          std::remove_cvref_t<decltype(field)>,
                          Histogram>) {
            EXPECT_EQ(sum.count(), 2 * field.count());
            EXPECT_EQ(sum.sum(), 2 * field.sum());
        } else if (std::string(leaf) == "maxOccupancy") {
            EXPECT_EQ(sum, field);
        } else {
            EXPECT_EQ(sum, 2 * field);
        }

        // The registry finds it under its dotted name and reads the
        // live value through it.
        stats::Registry registry;
        changed.regStats(registry);
        const stats::Stat *stat =
            registry.find("system." + dotted(regName, leaf));
        ASSERT_NE(stat, nullptr);
        EXPECT_EQ(stat->desc, desc);
        if constexpr (std::is_same_v<
                          std::remove_cvref_t<decltype(field)>,
                          Histogram>)
            EXPECT_EQ(stat->hist, &field);
        else
            EXPECT_EQ(stat->value(), static_cast<double>(field));
    });
    EXPECT_FALSE(leaves.empty());
}

/** walkFields() over the counter struct at @p slot of a SimResult. */
template <typename S>
void
walkResultGroup(S SimResult::*slot, const std::string &diffName,
                const std::string &regName)
{
    walkFields<S>([slot](SimResult &r) -> S & { return r.*slot; },
                  diffName, regName);
}

/**
 * S's field list must cover its layout: entries in declaration
 * order and no member left out, so a counter declared but never
 * listed leaves a gap here.
 */
template <typename S>
void
expectListCoversLayout()
{
    S s{};
    auto base = reinterpret_cast<const char *>(&s);
    std::size_t end = 0;
    S::forEachField([&](const char *leaf, const char *,
                        auto member) {
        using T = std::remove_cvref_t<decltype(s.*member)>;
        std::size_t offset =
            reinterpret_cast<const char *>(&(s.*member)) - base;
        EXPECT_EQ(offset, (end + alignof(T) - 1) / alignof(T) *
                              alignof(T))
            << leaf << " is out of order or follows an unlisted member";
        end = offset + sizeof(T);
    });
    EXPECT_EQ((end + alignof(S) - 1) / alignof(S) * alignof(S),
              sizeof(S))
        << "unlisted members at the end";
}

TEST(StatsSchema, EveryListCoversItsStruct)
{
    expectListCoversLayout<CacheStats>();
    expectListCoversLayout<WriteBufferStats>();
    expectListCoversLayout<MainMemoryStats>();
    expectListCoversLayout<TlbStats>();
    expectListCoversLayout<CoherenceStats>();
    expectListCoversLayout<MissClassStats>();
    expectListCoversLayout<IntervalCounters>();
}

TEST(StatsSchema, EveryResultFieldReachesEveryConsumer)
{
    walkFields<SimResult>([](SimResult &r) -> SimResult & { return r; },
                          "", "");
    walkResultGroup(&SimResult::icache, "icache", "l1i");
    walkResultGroup(&SimResult::dcache, "dcache", "l1d");
    walkResultGroup(&SimResult::l1Buffer, "l1wbuf", "l1wbuf");
    walkResultGroup(&SimResult::memory, "mem", "mem");
    walkResultGroup(&SimResult::tlb, "tlb", "tlb");
    walkResultGroup(&SimResult::coherenceStats, "coh", "coh");
    walkResultGroup(&SimResult::missClasses, "missclass",
                    "missclass");
}

TEST(StatsSchema, MergeFieldsSumsEveryCounter)
{
    // The per-struct merge() helpers used outside SimResult.
    CacheStats cache;
    std::uint64_t value = 1;
    CacheStats::forEachField([&](const char *, const char *,
                                 auto member) {
        cache.*member = value++;
    });
    CacheStats twice = cache;
    twice.merge(cache);
    CacheStats::forEachField([&](const char *leaf, const char *,
                                 auto member) {
        EXPECT_EQ(twice.*member, 2 * (cache.*member)) << leaf;
    });

    WriteBufferStats buffer;
    buffer.maxOccupancy = 3;
    buffer.fullStalls = 5;
    buffer.occupancy.sample(2);
    WriteBufferStats other;
    other.maxOccupancy = 7;
    other.fullStalls = 1;
    buffer.merge(other);
    EXPECT_EQ(buffer.maxOccupancy, 7u);
    EXPECT_EQ(buffer.fullStalls, 6u);
    EXPECT_EQ(buffer.occupancy.count(), 1u);
}

/** Split one CSV line into its cells. */
std::vector<std::string>
cells(const std::string &line)
{
    std::vector<std::string> out;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ','))
        out.push_back(cell);
    return out;
}

TEST(StatsSchema, EveryIntervalFieldReachesEveryConsumer)
{
    // Every counter distinct and nonzero, through the collector.
    IntervalCounters cumulative;
    std::uint64_t value = 10;
    std::set<std::string> leaves;
    IntervalCounters::forEachField([&](const char *leaf,
                                       const char *desc,
                                       auto member) {
        EXPECT_TRUE(leaves.insert(leaf).second) << leaf;
        EXPECT_STRNE(desc, "");
        setDistinct(cumulative.*member, value += 10);
    });

    // minus() and add() cover every field.
    IntervalCounters zero;
    IntervalCounters window = cumulative.minus(zero);
    IntervalCounters twice = window;
    twice.add(window);
    IntervalCounters none = cumulative.minus(cumulative);
    IntervalCounters::forEachField([&](const char *leaf, const char *,
                                       auto member) {
        EXPECT_EQ(window.*member, cumulative.*member) << leaf;
        EXPECT_EQ(twice.*member, 2 * (cumulative.*member)) << leaf;
        EXPECT_EQ(none.*member, 0) << leaf;
    });

    IntervalCollector collector(1000);
    collector.beginRun("run");
    collector.endRun(500, cumulative);
    ASSERT_EQ(collector.records().size(), 1u);

    std::ostringstream csv;
    collector.dumpCsv(csv);
    std::stringstream lines(csv.str());
    std::string header_line, row_line;
    ASSERT_TRUE(std::getline(lines, header_line));
    ASSERT_TRUE(std::getline(lines, row_line));
    std::vector<std::string> header = cells(header_line);
    std::vector<std::string> row = cells(row_line);
    ASSERT_EQ(header.size(), row.size());
    std::string json = collector.json();

    // Each list entry is one column holding its value, except the
    // occupancy (count, sum) pair, which shows as its mean.
    std::size_t counter_columns = 0;
    IntervalCounters::forEachField([&](const char *leaf, const char *,
                                       auto member) {
        std::string column = leaf;
        if (column == "wbuf_occupancy_count" ||
            column == "wbuf_occupancy_sum") {
            EXPECT_EQ(std::count(header.begin(), header.end(), column),
                      0);
            return;
        }
        ++counter_columns;
        ASSERT_EQ(std::count(header.begin(), header.end(), column), 1)
            << column;
        std::size_t at =
            std::find(header.begin(), header.end(), column) -
            header.begin();
        std::string expect = std::to_string(cumulative.*member);
        EXPECT_EQ(row[at], expect) << column;
        EXPECT_NE(json.find("\"" + column + "\":" + expect + ","),
                  std::string::npos)
            << column;
    });
    EXPECT_EQ(counter_columns, leaves.size() - 2);
    ASSERT_EQ(std::count(header.begin(), header.end(),
                         "wbuf_mean_occupancy"),
              1);
    EXPECT_DOUBLE_EQ(collector.records()[0].wbufMeanOccupancy(),
                     cumulative.wbufOccupancySum /
                         static_cast<double>(
                             cumulative.wbufOccupancyCount));

    // The JSON objects carry the CSV's columns, in the CSV's order.
    std::size_t pos = 0;
    for (const std::string &column : header) {
        std::size_t at = json.find("\"" + column + "\":", pos);
        ASSERT_NE(at, std::string::npos) << column;
        pos = at;
    }
}

TEST(StatsSchema, DiffSeesHistogramSumWithinOneBin)
{
    // 8 and 9 share a bin of the width-2 miss-penalty histogram:
    // count, max and every bin agree, only the sum (and so the
    // dumped mean) tells the two results apart.
    SimResult a, b;
    a.missPenaltyCycles.sample(8);
    a.missPenaltyCycles.sample(9);
    b.missPenaltyCycles.sample(9);
    b.missPenaltyCycles.sample(9);
    std::vector<verify::FieldDiff> diffs = verify::diffResults(a, b);
    ASSERT_EQ(diffs.size(), 1u) << verify::formatDiffs(diffs);
    EXPECT_EQ(diffs[0].field, "missPenaltyCycles.sum");
}

} // namespace
} // namespace cachetime
