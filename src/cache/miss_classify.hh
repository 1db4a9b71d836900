/**
 * @file
 * Three-C miss classification (Hill): compulsory, capacity,
 * conflict.
 *
 * The paper's associativity story is a conflict-miss story: extra
 * ways remove conflict misses, extra sets do not remove the
 * inter-process kind in a virtual cache.  MissClassifier makes that
 * decomposition measurable: it shadows a cache with (a) an
 * infinite-size filter that marks first-touches (compulsory) and
 * (b) a fully-associative LRU cache of equal capacity; misses that
 * hit in neither are capacity misses if the fully-associative
 * shadow also misses, conflict misses if it hits.
 */

#ifndef CACHETIME_CACHE_MISS_CLASSIFY_HH
#define CACHETIME_CACHE_MISS_CLASSIFY_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>

#include "stats/fields.hh"
#include "trace/ref.hh"

namespace cachetime
{

class StateReader;
class StateWriter;

/** Result of classifying one read. */
enum class MissClass : std::uint8_t
{
    Hit,        ///< not a miss in the shadow model
    Compulsory, ///< first touch of the block ever
    Capacity,   ///< missed even fully-associatively
    Conflict,   ///< placement-induced (hits fully-associatively)
    Coherence,  ///< first re-touch after a peer invalidated the copy
};

/** Counts per class (reset at warm start). */
struct MissClassStats
{
    std::uint64_t compulsory = 0;
    std::uint64_t capacity = 0;
    std::uint64_t conflict = 0;
    std::uint64_t coherence = 0;

    /** The field list (stats/fields.hh), in registration order. */
    template <typename Fn>
    static void
    forEachField(Fn &&fn)
    {
        using S = MissClassStats;
        fn("compulsory", "first-touch misses", &S::compulsory);
        fn("capacity",
           "misses a fully-associative equal-size cache also takes",
           &S::capacity);
        fn("conflict", "placement-induced misses", &S::conflict);
        fn("coherence", "first re-touches after a peer invalidation",
           &S::coherence);
    }

    std::uint64_t
    total() const
    {
        return compulsory + capacity + conflict + coherence;
    }

    void reset() { *this = MissClassStats(); }

    void
    merge(const MissClassStats &other)
    {
        stats::mergeFields(*this, other);
    }
};

/**
 * Shadow model classifying the misses of a cache of a given size.
 *
 * The classifier is organizational only and independent of the real
 * cache's policies: it answers "what *kind* of miss would a cache
 * of this capacity and block size see here".  Feed it every read
 * the real cache sees; classify only those the real cache missed.
 */
class MissClassifier
{
  public:
    /**
     * @param capacityBlocks capacity of the shadowed cache in blocks
     * @param blockWords     block size in words
     */
    MissClassifier(std::uint64_t capacityBlocks, unsigned blockWords);

    /**
     * Observe one read and classify what a miss here would be.
     * Call for every read; use the result only when the real cache
     * missed (the fully-associative shadow must see the complete
     * reference stream to stay aligned).
     */
    MissClass observe(Addr addr, Pid pid);

    /**
     * A peer invalidated this core's copy of @p addr's block: mark
     * it so the next miss of the block classifies as Coherence (the
     * standard first-re-touch approximation; the mark takes
     * precedence over capacity/conflict but not over compulsory,
     * which cannot co-occur).  The shadow structures are left
     * untouched so classification of *other* blocks is unaffected.
     */
    void invalidate(Addr addr, Pid pid);

    /** Account a real miss of class @p cls. */
    void
    account(MissClass cls)
    {
        switch (cls) {
          case MissClass::Hit:
            break;
          case MissClass::Compulsory:
            ++stats_.compulsory;
            break;
          case MissClass::Capacity:
            ++stats_.capacity;
            break;
          case MissClass::Conflict:
            ++stats_.conflict;
            break;
          case MissClass::Coherence:
            ++stats_.coherence;
            break;
        }
    }

    const MissClassStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /**
     * Serialize the shadow structures - first-touch filter, the
     * fully-associative LRU stack in recency order, and the pending
     * invalidation marks - so a restored classifier continues
     * bit-identically (statistics are not state; the measurement
     * boundary resets them).
     */
    void saveState(StateWriter &w) const;

    /** Restore saveState() output; fatal() on corruption. */
    void loadState(StateReader &r);

  private:
    /** Key combining pid and block address. */
    static std::uint64_t
    keyOf(Addr block, Pid pid)
    {
        return (static_cast<std::uint64_t>(pid) << 48) ^ block;
    }

    std::uint64_t capacityBlocks_;
    unsigned blockWords_;

    std::unordered_set<std::uint64_t> touched_; ///< ever-seen blocks

    /** Blocks whose next miss is a coherence miss. */
    std::unordered_set<std::uint64_t> invalidated_;

    // Fully-associative LRU shadow: list front = MRU, plus an index.
    std::list<std::uint64_t> lru_;
    std::unordered_map<std::uint64_t,
                       std::list<std::uint64_t>::iterator>
        where_;

    MissClassStats stats_;
};

} // namespace cachetime

#endif // CACHETIME_CACHE_MISS_CLASSIFY_HH
