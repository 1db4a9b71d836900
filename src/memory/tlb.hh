/**
 * @file
 * Address translation: a TLB and a deterministic page-frame map.
 *
 * The paper: "Virtual to physical translation can be placed
 * anywhere in the hierarchy.  All the simulations presented here
 * are with virtual caches..."  cachetime likewise defaults to
 * virtual (pid-tagged) caches, but provides the translation layer
 * so physically-addressed hierarchies can be simulated and compared
 * - including the Section 4 motivation that a physical cache
 * accessed in parallel with the TLB may use only the page-offset
 * bits for indexing, which forces associativity on large caches
 * (the IBM 3033's 16-way 64KB cache).
 *
 * The frame map stands in for an operating system's allocator: each
 * (pid, virtual page) is assigned a pseudo-random physical frame,
 * deterministically, so physical-cache index conflicts differ from
 * the virtual ones exactly as they do under a real OS.
 */

#ifndef CACHETIME_MEMORY_TLB_HH
#define CACHETIME_MEMORY_TLB_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/fields.hh"
#include "util/types.hh"

namespace cachetime
{

class StateReader;
class StateWriter;

/** Organizational and timing parameters of a TLB. */
struct TlbConfig
{
    unsigned entries = 64;        ///< total entries
    unsigned assoc = 64;          ///< fully associative by default
    std::uint64_t pageWords = 1024; ///< 4KB pages
    /** Cycles to refill on a TLB miss (table walk / trap). */
    unsigned missPenaltyCycles = 20;
    std::uint64_t physFrames = 1 << 20; ///< physical memory frames

    /** Fatal-exit unless self-consistent. */
    void validate() const;
};

/** TLB activity counters (reset at warm start). */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    /** The field list (stats/fields.hh), in registration order. */
    template <typename Fn>
    static void
    forEachField(Fn &&fn)
    {
        using S = TlbStats;
        fn("accesses", "translations", &S::accesses);
        fn("misses", "TLB misses", &S::misses);
    }

    double
    missRatio() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) / accesses;
    }

    /** Register counters and the miss ratio under @p prefix. */
    void regStats(stats::Registry &registry,
                  const std::string &prefix) const;

    void reset() { *this = TlbStats(); }

    /** Accumulate @p other (warm-segment measured-stats gathering). */
    void
    merge(const TlbStats &other)
    {
        stats::mergeFields(*this, other);
    }
};

/**
 * A set-associative TLB with LRU replacement over a deterministic
 * frame map.
 *
 * A hit costs one hashed load and one tag compare: a small
 * direct-mapped hint array, keyed by a mix of (vpage, pid), names the
 * way that last held the key.  The hint is only an accelerator - the
 * named entry must match valid, vpage and pid, and any other case
 * falls back to the set scan, which rewrites the hint.  A verified
 * hint names the way the scan would find because a (vpage, pid) sits
 * in at most one way of the one set its vpage maps to: refills happen
 * only on a miss, and loadState() rejects checkpoints that break it.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /** Result of a translation. */
    struct Translation
    {
        Addr paddr;  ///< physical word address
        bool hit;    ///< TLB hit (no penalty)
    };

    /**
     * Translate a virtual word address.  Misses refill the TLB (the
     * caller charges config().missPenaltyCycles).
     */
    inline Translation translate(Addr vaddr, Pid pid);

    /**
     * @return the physical frame backing (pid, vpage) - the OS
     * allocation, independent of TLB state.
     */
    std::uint64_t frameOf(std::uint64_t vpage, Pid pid) const;

    /** Drop all entries (e.g. on a simulated TLB flush). */
    void flush();

    const TlbConfig &config() const { return config_; }
    const TlbStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /** Serialize entries and the LRU sequence (checkpoints). */
    void saveState(StateWriter &w) const;

    /** Restore state written by saveState() on an identical config. */
    void loadState(StateReader &r);

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t vpage = 0;
        Pid pid = 0;
        std::uint64_t frame = 0;
        std::uint64_t lastUse = 0;
    };

    /** Hint slots per entry: keeps key collisions in the hint rare. */
    static constexpr unsigned kHintsPerEntry = 4;

    /** @return the hint slot of (vpage, pid). */
    std::size_t
    hintSlot(std::uint64_t vpage, Pid pid) const
    {
        const std::uint64_t key =
            vpage ^ (static_cast<std::uint64_t>(pid) << 48);
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> hintShift_);
    }

    /** The set scan and LRU refill behind a hint miss. */
    Translation translateSlow(std::uint64_t vpage, Addr offset,
                              Pid pid);

    TlbConfig config_;
    std::uint64_t numSets_;
    unsigned pageShift_;         ///< log2(pageWords)
    Addr pageMask_;              ///< pageWords - 1
    std::vector<Entry> entries_; ///< numSets x assoc
    /** Entry index per hint slot; unverified, never checkpointed. */
    std::vector<std::uint32_t> hint_;
    unsigned hintShift_;         ///< 64 - log2(hint_.size())
    std::uint64_t seq_ = 0;
    TlbStats stats_;
};

inline Tlb::Translation
Tlb::translate(Addr vaddr, Pid pid)
{
    ++seq_;
    ++stats_.accesses;
    const std::uint64_t vpage = vaddr >> pageShift_;
    const Addr offset = vaddr & pageMask_;
    Entry &entry = entries_[hint_[hintSlot(vpage, pid)]];
    if (entry.valid && entry.vpage == vpage && entry.pid == pid)
        [[likely]] {
        entry.lastUse = seq_;
        return {(entry.frame << pageShift_) | offset, true};
    }
    return translateSlow(vpage, offset, pid);
}

} // namespace cachetime

#endif // CACHETIME_MEMORY_TLB_HH
