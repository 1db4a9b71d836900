/**
 * @file
 * The write buffer placed between every pair of hierarchy levels.
 *
 * The paper: "Write buffers are included between every level of the
 * modeled system.  With eight parameters, the write buffer model can
 * replicate any reasonable write strategy.  The write buffers check
 * the addresses of reads to make sure that the fetched data is not
 * stale.  In the case of a match, the read is delayed until the
 * write propagates out of the buffer and into the next level."
 *
 * Our eight parameters: enabled, depth, readPriority, checkReadMatch,
 * matchGranularityWords, coalesce, drainOnIdle, highWater.
 */

#ifndef CACHETIME_MEMORY_WRITE_BUFFER_HH
#define CACHETIME_MEMORY_WRITE_BUFFER_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "memory/mem_level.hh"
#include "stats/fields.hh"
#include "util/histogram.hh"

namespace cachetime
{

class StateReader;
class StateWriter;

/** The eight write-buffer knobs. */
struct WriteBufferConfig
{
    /** If false, every write is synchronous (requester waits). */
    bool enabled = true;

    /** Capacity in entries (a block or a word write per entry). */
    unsigned depth = 4;

    /** Demand reads pass queued (not yet started) writes. */
    bool readPriority = true;

    /** Reads are checked against queued writes for staleness. */
    bool checkReadMatch = true;

    /** Address-match granularity in words (e.g. the block size). */
    unsigned matchGranularityWords = 4;

    /** Merge writes whose address range matches a queued entry. */
    bool coalesce = true;

    /** Retire eagerly whenever downstream is idle. */
    bool drainOnIdle = true;

    /** If not draining on idle, start once this many entries queue. */
    unsigned highWater = 1;
};

/** Write-buffer activity counters (reset at warm start). */
struct WriteBufferStats
{
    std::uint64_t enqueued = 0;
    std::uint64_t wordsEnqueued = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t retired = 0;
    std::uint64_t readMatches = 0;
    std::uint64_t fullStalls = 0;
    Tick readMatchStallCycles = 0;
    Tick fullStallCycles = 0;
    unsigned maxOccupancy = 0;

    /** Queue occupancy observed at each enqueue. */
    Histogram occupancy{17, 1};

    /** The field list (stats/fields.hh), in registration order. */
    template <typename Fn>
    static void
    forEachField(Fn &&fn)
    {
        using S = WriteBufferStats;
        fn("enqueued", "writes accepted", &S::enqueued);
        fn("wordsEnqueued", "words accepted", &S::wordsEnqueued);
        fn("coalesced", "writes merged into a queued entry",
           &S::coalesced);
        fn("retired", "entries drained downstream", &S::retired);
        fn("readMatches", "reads stalled by an address match",
           &S::readMatches);
        fn("fullStalls", "enqueues that found the buffer full",
           &S::fullStalls);
        fn("readMatchStallCycles", "cycles reads waited on matches",
           &S::readMatchStallCycles);
        fn("fullStallCycles", "cycles writers waited on a full buffer",
           &S::fullStallCycles);
        fn("maxOccupancy", "deepest queue observed", &S::maxOccupancy);
        fn("occupancy", "queue depth at each enqueue", &S::occupancy);
    }

    /**
     * Register every counter plus the occupancy histogram under
     * @p prefix in @p registry; *this must outlive every dump.
     */
    void
    regStats(stats::Registry &registry, const std::string &prefix) const
    {
        stats::regFields(registry, prefix, *this);
    }

    void reset() { *this = WriteBufferStats(); }

    /**
     * Accumulate @p other (warm-segment measured-stats gathering):
     * every field sums except maxOccupancy, a high-water mark.
     */
    void
    merge(const WriteBufferStats &other)
    {
        unsigned peak = std::max(maxOccupancy, other.maxOccupancy);
        stats::mergeFields(*this, other);
        maxOccupancy = peak;
    }
};

/**
 * FIFO write buffer decoupling a cache from the next level.
 *
 * Writes are posted: writeBlock() normally returns immediately while
 * the entry drains in the background whenever the downstream level
 * is free.  Reads are forwarded downstream, after forcing out any
 * queued write to a matching address.
 */
class WriteBuffer : public MemLevel
{
  public:
    /**
     * @param config     the eight knobs
     * @param downstream the level this buffer drains into
     * @param name       for diagnostics
     */
    WriteBuffer(const WriteBufferConfig &config, MemLevel *downstream,
                std::string name = "wbuf");

    ReadReply readBlock(Tick when, Addr addr, unsigned words,
                        unsigned criticalOffset, Pid pid) override;

    Tick writeBlock(Tick when, Addr addr, unsigned words,
                    Pid pid) override;

    Tick freeAt() const override;

    Tick drain(Tick when) override;

    /** @return current queue occupancy (for tests). */
    std::size_t occupancy() const { return queue_.size(); }

    const WriteBufferStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /** Serialize the queued entries in FIFO order (checkpoints). */
    void saveState(StateWriter &w) const;

    /** Restore state written by saveState() on an identical config. */
    void loadState(StateReader &r);

  private:
    struct Entry
    {
        Addr addr;
        unsigned words;
        Tick ready; ///< time the data is fully in the buffer
        Pid pid;
    };

    /**
     * FIFO over a power-of-two ring.  The queue can never exceed
     * config_.depth entries (writeBlock retires the head before
     * enqueueing at capacity), so the storage is sized once in the
     * constructor and no allocation happens on the hot path.
     */
    class Ring
    {
      public:
        void
        init(std::size_t capacity)
        {
            std::size_t cap = 1;
            while (cap < capacity)
                cap <<= 1;
            slots_.resize(cap);
            mask_ = cap - 1;
        }

        bool empty() const { return count_ == 0; }
        std::size_t size() const { return count_; }

        Entry &front() { return slots_[head_]; }
        const Entry &front() const { return slots_[head_]; }

        Entry &
        operator[](std::size_t i)
        {
            return slots_[(head_ + i) & mask_];
        }
        const Entry &
        operator[](std::size_t i) const
        {
            return slots_[(head_ + i) & mask_];
        }

        void
        push_back(const Entry &entry)
        {
            slots_[(head_ + count_) & mask_] = entry;
            ++count_;
        }

        void
        pop_front()
        {
            head_ = (head_ + 1) & mask_;
            --count_;
        }

        /** Empty the queue (checkpoint restore). */
        void
        clear()
        {
            head_ = 0;
            count_ = 0;
        }

      private:
        std::vector<Entry> slots_;
        std::size_t mask_ = 0;
        std::size_t head_ = 0;
        std::size_t count_ = 0;
    };

    /** Retire entries that can start strictly before @p now. */
    void catchUp(Tick now);

    /** Forcibly retire entries through index @p through (FIFO). */
    Tick forceDrain(std::size_t through, Tick now);

    bool matches(const Entry &entry, Addr addr, unsigned words,
                 Pid pid) const;

    WriteBufferConfig config_;
    MemLevel *down_;
    std::string name_;
    /** log2(matchGranularityWords) when it is a power of two. */
    static constexpr unsigned kNoShift = ~0u;
    unsigned granShift_ = kNoShift;
    Ring queue_;
    WriteBufferStats stats_;
};

} // namespace cachetime

#endif // CACHETIME_MEMORY_WRITE_BUFFER_HH
