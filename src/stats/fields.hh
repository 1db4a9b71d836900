/**
 * @file
 * The consumers of a counter struct's field list.
 *
 * Each counter struct (CacheStats, WriteBufferStats, MainMemoryStats,
 * TlbStats, CoherenceStats, MissClassStats, IntervalCounters) lists
 * its counters exactly once, in a static member
 *
 *     template <typename Fn> static void forEachField(Fn &&fn);
 *
 * which calls fn(leaf, desc, member) per counter, in registration
 * order: the registry leaf name (an interval column name for
 * IntervalCounters), the registry description, and a pointer to the
 * member.  Merging, registration, verify::diffResults and the
 * interval dumps all walk that list, so adding a counter is one
 * entry in one list.
 */

#ifndef CACHETIME_STATS_FIELDS_HH
#define CACHETIME_STATS_FIELDS_HH

#include <cstdint>
#include <string>
#include <type_traits>

#include "stats/stats.hh"
#include "util/histogram.hh"

namespace cachetime
{
namespace stats
{

/** Add every field of @p from into @p into (histograms merge). */
template <typename S>
void
mergeFields(S &into, const S &from)
{
    S::forEachField([&](const char *, const char *, auto member) {
        if constexpr (std::is_same_v<
                          std::remove_cvref_t<decltype(into.*member)>,
                          Histogram>)
            (into.*member).merge(from.*member);
        else
            into.*member += from.*member;
    });
}

/**
 * Register every field of @p s as "<prefix>.<leaf>": histograms as
 * histograms, everything else as an integer scalar.  The registry
 * reads through references, so @p s must outlive every dump.
 */
template <typename S>
void
regFields(Registry &registry, const std::string &prefix, const S &s)
{
    S::forEachField([&](const char *leaf, const char *desc,
                        auto member) {
        const auto &field = s.*member;
        std::string name = prefix + "." + leaf;
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(field)>,
                                     Histogram>)
            registry.addHistogram(name, desc, &field);
        else
            registry.addScalar(name, desc, [&field] {
                return static_cast<std::uint64_t>(field);
            });
    });
}

} // namespace stats
} // namespace cachetime

#endif // CACHETIME_STATS_FIELDS_HH
