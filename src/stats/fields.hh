/**
 * @file
 * The consumers of a counter struct's field list.
 *
 * Each counter struct (CacheStats, WriteBufferStats, MainMemoryStats,
 * TlbStats, CoherenceStats, MissClassStats, IntervalCounters) and
 * SimResult's top-line counters list their counters exactly once, in
 * a static member
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
 * Register one field under @p name: a histogram as a histogram,
 * anything else as an integer scalar.  The registry reads through a
 * reference, so @p field must outlive every dump.
 */
template <typename T>
void
regField(Registry &registry, const std::string &name, const char *desc,
         const T &field)
{
    if constexpr (std::is_same_v<T, Histogram>)
        registry.addHistogram(name, desc, &field);
    else
        registry.addScalar(name, desc, [&field] {
            return static_cast<std::uint64_t>(field);
        });
}

/** Register every field of @p s as "<prefix>.<leaf>" (regField). */
template <typename S>
void
regFields(Registry &registry, const std::string &prefix, const S &s)
{
    S::forEachField([&](const char *leaf, const char *desc,
                        auto member) {
        regField(registry, prefix + "." + leaf, desc, s.*member);
    });
}

} // namespace stats
} // namespace cachetime

#endif // CACHETIME_STATS_FIELDS_HH
