/**
 * @file
 * The whole simulated machine: CPU + split L1 caches + write
 * buffer(s) + optional L2 + main memory, driven by a trace.
 *
 * System owns every component and implements the first-level timing
 * rules of Section 2:
 *
 *  - read hits take one CPU cycle, write hits two (tag then data);
 *  - on a read miss the memory read starts immediately; a dirty
 *    victim streams into the write buffer over a one-word-wide path
 *    during the memory latency, so the write-back is hidden unless
 *    the block is long relative to the latency;
 *  - stores that miss are not allocated; the words go down through
 *    the write buffer;
 *  - I and D references issue as couplets and both must complete
 *    before the next group issues.
 *
 * The engine runs each span in two passes.  The organizational pass
 * (L1Front::probe) advances the L1 cache(s) and the TLB and logs
 * what every reference did; the timing pass (replay) reads only that
 * log and the references and advances the clock, busy horizons,
 * write buffers, lower levels and stall counters.  Because the first
 * pass never depends on timing, machines that differ only in timing
 * can share it (feedGroup).
 */

#ifndef CACHETIME_SIM_SYSTEM_HH
#define CACHETIME_SIM_SYSTEM_HH

#include <memory>

#include "cache/cache.hh"
#include "cache/cache_level.hh"
#include "cpu/cpu.hh"
#include "memory/main_memory.hh"
#include "memory/tlb.hh"
#include "util/histogram.hh"
#include "memory/write_buffer.hh"
#include "sim/sim_result.hh"
#include "sim/system_config.hh"
#include "trace/trace.hh"

namespace cachetime
{

class IntervalCollector;
struct IntervalCounters;
class StateReader;
class StateWriter;

/** One simulated machine instance. */
class System
{
  public:
    /**
     * Validate @p config.  Components are built per run, by
     * beginRun(), so a machine that is constructed and run once
     * allocates its cache arrays once.
     */
    explicit System(const SystemConfig &config);

    /**
     * Run @p trace to completion and return measurements taken
     * after its warm-start boundary.  A System may run several
     * traces; state (cache contents, clock) is reset between runs.
     * Adapts the trace and delegates to the streaming overload, so
     * eager and streamed runs share one simulation loop.
     */
    SimResult run(const Trace &trace);

    /**
     * Run @p source to completion, pulling bounded chunks, so peak
     * memory is independent of stream length.  References inside the
     * source's warm segments are issued (state and clock advance)
     * but excluded from every measured counter.  The source is
     * reset() at the start of the run.
     */
    SimResult run(RefSource &source);

    /**
     * Resumable run interface, the building block of the batched
     * sweep engine: beginRun() builds the machine and arms it for
     * @p source's stream, feedChunk() replays a span of its
     * references, and endRun() folds the final measured segment and
     * yields the result.  run(RefSource&) is exactly beginRun + one
     * feedChunk per ChunkFeeder span + endRun; feeding the same
     * spans to many Systems interleaved produces results
     * bit-identical to running each alone, because a machine's
     * evolution depends only on its own state and the reference
     * sequence.
     *
     * With @p lead, this machine shares @p lead's L1 front (caches,
     * TLB and their statistics) instead of building its own; see
     * feedGroup().  @p lead must have begun the same source's run
     * just before and must keep its front - neither begin another
     * run nor be destroyed - until this machine's endRun(); the two
     * configs must share their lockstepKey() (core/sweep.hh): equal
     * warmStateKey() and equal couplet pairing.
     *
     * Chunks must partition the stream in order.  When couplet
     * pairing is on, a chunk may not end on an IFetch unless it is
     * the last chunk (ChunkFeeder's trim rule guarantees this).
     */
    void beginRun(const RefSource &source, System *lead = nullptr);

    /** Replay @p n references continuing the armed run. */
    void feedChunk(const Ref *refs, std::size_t n);

    /**
     * Replay @p n references on a lockstep group: @p members[0] is
     * the lead, and every other member began its run sharing the
     * lead's front.  Each span is probed through the shared L1
     * front once and the outcome is replayed into every member's
     * timing state, so a group of k machines pays one L1/TLB probe
     * per reference instead of k.  Results are bit-identical to
     * running each member alone.  Interval collectors are not
     * served here (feedChunk() serves a single machine's).
     */
    static void feedGroup(System *const *members, std::size_t count,
                          const Ref *refs, std::size_t n);

    /** Finish the armed run and return its measurements. */
    SimResult endRun();

    /**
     * Attach @p collector (nullptr to detach): every windowRefs()
     * issued references the run snapshots its cumulative measured
     * counters into the collector (stats/interval.hh).  Attaching a
     * collector never changes a simulated counter - the engine only
     * splits chunks at window boundaries (already bit-identical by
     * the resumable-run design) and snapshots read-only; couplets
     * straddling a boundary are kept whole.  Takes effect at the
     * next beginRun().
     */
    void setIntervalCollector(IntervalCollector *collector)
    {
        interval_ = collector;
    }

    /**
     * Serialize the machine's complete warm state - simulated clock,
     * L1 busy horizons, cache contents (tags, LRU, dirty bits,
     * victim buffers, replacement streams), TLB, write-buffer
     * queues, intermediate levels and memory bank horizons - into
     * tagged sections (live-points checkpoints, DESIGN.md section
     * 12).  Valid between feedChunk() calls of an armed run.
     * Statistics are not captured: the measurement boundary resets
     * them on restore anyway.
     */
    void captureState(StateWriter &w) const;

    /**
     * Restore everything captureState() wrote.  Must be called
     * after beginRun() and before the first feedChunk(); the config
     * must equal the capturing machine's (exactStateKey() match).
     * The continued run is bit-identical to the uninterrupted one.
     */
    void restoreState(StateReader &r);

    /**
     * Restore only the timing-independent warm state: L1 cache(s)
     * and TLB.  Their evolution depends only on the reference
     * stream and their own organizational config (warmStateKey()),
     * so a checkpoint taken under one timing configuration seeds
     * them for any other.  Timing-entangled state - clock, write
     * buffers, L2 contents, busy horizons - stays cold; the sampling
     * engine's detailed warm-up before each measurement unit exists
     * to re-warm exactly that remainder.
     */
    void restoreWarmState(StateReader &r);

    /** @return the configuration this machine was built from. */
    const SystemConfig &config() const { return config_; }

  private:
    /**
     * The organizational half of a machine: its L1 cache(s) and
     * TLB.  Their evolution depends only on the reference stream
     * and their own config (warmStateKey()), never on timing, so
     * machines that differ only in timing can share one front.
     * probe() advances the front through a span and logs what each
     * reference did; the timing pass reads only that log and the
     * references, never the caches.
     */
    struct L1Front
    {
        explicit L1Front(const SystemConfig &config);

        /** Outcome byte: the HitKind in the low two bits, plus: */
        static constexpr std::uint8_t kKindMask = 3;
        static constexpr std::uint8_t kTlbMiss = 4; ///< translation missed
        /** A lookahead prefetch filled; its record follows. */
        static constexpr std::uint8_t kPrefetchFill = 8;

        /**
         * A maximal run of hit groups: issue groups (a lone
         * reference, or an IFetch with the data reference it pairs
         * with) whose references all hit, with no TLB miss and no
         * prefetch fill.  Such a group's timing is a pure function
         * of its shape, so the timing pass can sum a whole run.
         */
        struct HitRun
        {
            std::uint32_t begin; ///< first reference of the run
            std::uint32_t end;   ///< one past its last reference
            /**
             * Four 16-bit group counts, indexed by shape
             * (paired << 1 | store): lone read, lone store,
             * ifetch+load, ifetch+store.
             */
            std::uint64_t shapes;
        };

        /**
         * Probe @p n references and rewrite the log: one outcome
         * byte per reference; in issue order, the AccessOutcome of
         * every demand miss and of every prefetch that filled; with
         * a TLB, the translated address of every store (and of every
         * reference while tracing); and, unless tracing, the hit
         * runs in order, closed by a {n, n} sentinel.  @p Pair must
         * match the members' couplet pairing.
         */
        template <bool TraceOn, bool Pair, bool Split, bool HasTlb>
        void probe(const Ref *refs, std::size_t n);

        /**
         * One-block lookahead behind @p addr; if it fills, its
         * outcome is logged at @p record, which then advances.
         */
        void prefetchAfter(Cache &cache, Addr addr, Pid pid,
                           AccessOutcome *&record, std::uint8_t &bits);

        void resetStats();

        std::unique_ptr<Cache> icache; ///< split L1 only
        std::unique_ptr<Cache> dcache; ///< L1D, or the unified L1
        std::unique_ptr<Tlb> tlb;      ///< physical addressing only

        std::vector<std::uint8_t> kinds;
        std::vector<AccessOutcome> records;
        std::vector<Addr> paddrs;
        std::vector<HitRun> runs;
    };

    /** Read position in the front's log during one timing pass. */
    struct LogCursor
    {
        const AccessOutcome *record;
        const Addr *paddr;
    };

    /** What the timing pass knows of one L1: config and trace name. */
    struct Side
    {
        const CacheConfig &config;
        const char *name;
    };

    /**
     * Build the timing half from config_: memory, the intermediate
     * levels with their write buffers (memory-first so each level
     * drains into the one below) and the L1 write buffer; zero the
     * busy horizons and the stall attribution.
     */
    void buildTiming();

    /** Reset the timing half's statistics (measurement start). */
    void resetTimingStats();

    /**
     * @return whether position @p p is measured; moves the segment
     * cursor and sets progress_.boundary to the next position where
     * the answer can change.
     */
    bool measuredAt(std::size_t p);

    /**
     * Re-derive the measurement state at the current position and
     * fold (measure-off) or reset the timing statistics
     * (measure-on).  @return true when measurement turned on.
     */
    bool crossBoundary();

    /**
     * The timing pass: replays one probed span against this
     * machine's clock, busy horizons, write buffers, lower levels
     * and stall counters, pairing I/D couplets inline.  A hit run
     * costs O(1) when it cannot wait on a busy horizon (both are at
     * or before the clock), the L1D is write-back and the run is not
     * traced; any other run, and every event group, goes reference
     * by reference.  Per-run decisions are template parameters so
     * the per-reference path carries no re-checks:
     * @tparam TraceOn  emit per-reference debug trace events
     * @tparam Pair     split caches with couplet issue enabled
     * @tparam HasTlb   physical addressing (the log holds the TLB)
     * Cross-span progress lives in progress_ and is staged through
     * locals so the steady-state loop runs out of registers.
     */
    template <bool TraceOn, bool Pair, bool Split, bool HasTlb>
    void replay(const Ref *refs, std::size_t n);

    /** Dispatch one span to the right probe instantiation. */
    void probeSpan(const Ref *refs, std::size_t n);

    /** Dispatch one span to the right replay instantiation. */
    void replaySpan(const Ref *refs, std::size_t n);

    /**
     * @return the cumulative measured counters of the armed run at
     * the current position: the folded result_ plus, inside a
     * measured segment, the live component stats.  Read-only; the
     * interval snapshots are built from differences of these.
     */
    IntervalCounters captureIntervalCounters() const;

    /**
     * Fold the measured span ending at @p now into result_ (group
     * and reference counts are taken from progress_).
     */
    void foldMeasured(Tick now);

    /**
     * @return completion time of a read issued at @p issue.  The
     * hit path is forced inline into replay(); everything past the
     * HitKind check lives out of line in readMissTail().
     */
    template <bool TraceOn, bool HasTlb>
    [[gnu::always_inline]] inline Tick
    accessRead(const Side &side, Tick &busy, const Ref &ref,
               std::uint8_t bits, Tick issue, LogCursor &log);

    /** Victim-swap / fetch / early-continuation miss timing. */
    Tick readMissTail(const Side &side, Tick &busy, Addr addr, Pid pid,
                      Tick start, std::uint8_t bits, LogCursor &log);

    /**
     * Time a logged lookahead prefetch fill issued at @p when.  The
     * fetch occupies the downstream path and the cache's fill port,
     * but the CPU does not wait for it.
     */
    void prefetchTiming(const Side &side, Tick &busy, Pid pid,
                        Tick when, LogCursor &log);

    /** @return completion time of a write issued at @p issue. */
    template <bool TraceOn, bool HasTlb>
    [[gnu::always_inline]] inline Tick
    accessWrite(const Side &side, Tick &busy, const Ref &ref,
                std::uint8_t bits, Tick issue, LogCursor &log);

    /** Victim-swap / no-allocate / write-allocate miss timing. */
    Tick writeMissTail(const Side &side, Tick &busy, Addr addr,
                       Pid pid, Tick start, LogCursor &log);

    SystemConfig config_;

    /** This machine's own front; empty while it follows a lead. */
    std::unique_ptr<L1Front> ownFront_;
    /** The front the armed run probes: ownFront_ or a lead's. */
    L1Front *front_ = nullptr;

    std::unique_ptr<MainMemory> memory_;
    /** Intermediate levels, nearest to memory first when built. */
    std::vector<std::unique_ptr<CacheLevel>> midLevels_;
    std::vector<std::unique_ptr<WriteBuffer>> midBuffers_;
    std::unique_ptr<WriteBuffer> l1Buffer_; ///< L1 -> (L2|memory)

    /** The level L1 misses and writes go to (the L1 write buffer). */
    MemLevel *l1Down_ = nullptr;

    /** Per-L1-cache busy horizon (fills outlast early continuation). */
    Tick icacheBusy_ = 0;
    Tick dcacheBusy_ = 0;

    /** Observed L1 read-miss service times, in cycles. */
    Histogram missPenalty_{32, 2};

    // Stall attribution (serial, per access; couplet overlap means
    // the parts can sum to more than the total).
    Tick stallRead_ = 0;
    Tick stallWrite_ = 0;
    Tick stallTlb_ = 0;

    /**
     * Cross-chunk position of an armed run.  Everything the timing
     * pass keeps in registers is staged here at span boundaries so
     * a run can be suspended and resumed between feedChunk() calls.
     */
    struct RunProgress
    {
        Tick now = 0;            ///< simulated clock
        Tick segStart = 0;       ///< clock at measure-on
        bool measuring = false;  ///< inside a measured span
        std::size_t segIdx = 0;  ///< warm-segment cursor
        std::size_t boundary = 0; ///< next position state can change
        std::size_t consumed = 0; ///< references issued so far
        std::uint64_t groups = 0; ///< measured issue groups pending fold
        std::uint64_t reads = 0;  ///< measured read refs pending fold
        std::uint64_t writes = 0; ///< measured write refs pending fold
    };

    RunProgress progress_;
    SimResult result_;           ///< accumulating result of the armed run
    /** Warm metadata captured by beginRun (copied; sources may die). */
    std::size_t runWarmStart_ = 0;
    std::vector<WarmSegment> runSegments_;
    bool runTraceOn_ = false;    ///< dispatch flags hoisted by beginRun
    bool runPair_ = false;

    /** Windowed-snapshot collector; optional and observation-only. */
    IntervalCollector *interval_ = nullptr;
    /** Next issued-ref position that closes a window. */
    std::uint64_t nextIntervalBoundary_ = 0;
};

} // namespace cachetime

#endif // CACHETIME_SIM_SYSTEM_HH
