/**
 * @file
 * Interval (windowed) statistics: a per-window time series over a
 * simulation run.
 *
 * The paper's own thesis is that one aggregate number hides the
 * story; an end-of-run miss ratio equally hides warm-up transients
 * and phase behavior inside a single run.  IntervalCollector turns
 * one run into a time series: every N issued references the System
 * snapshots its cumulative measured counters, and the collector
 * stores the per-window delta (miss ratios per class, CPI,
 * write-buffer occupancy, TLB misses, plus host-side refs/s).
 *
 * The hard invariant is that attaching a collector changes *no*
 * simulated counter: System feeds the same reference sequence
 * through the same engine, merely split at window boundaries (span
 * splitting is already bit-identical by the resumable-run design),
 * and snapshots only read state.  tests/test_differential.cc holds
 * runs with and without a collector to exact agreement at 1 and 8
 * threads.
 *
 * Windows are counted in *issued* references (warm-up included), so
 * window k covers positions [k*N, (k+1)*N) of the stream and the
 * warm-up prefix shows up as leading windows whose measured
 * counters are zero - which is exactly the transient the series
 * exists to expose.  A couplet split at a boundary is kept whole
 * (the cut slides past the data reference), so a window may be one
 * reference long of nominal.  Deltas of cumulative counters sum
 * exactly to the run's aggregate SimResult by construction.
 */

#ifndef CACHETIME_STATS_INTERVAL_HH
#define CACHETIME_STATS_INTERVAL_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cachetime
{

/**
 * The simulated counters a window snapshot carries.  All fields are
 * cumulative at capture time; the collector stores differences.
 * Occupancy is carried as (count, sum) so window means are exact
 * (integer-valued doubles subtract exactly below 2^53).
 */
struct IntervalCounters
{
    std::uint64_t refs = 0;
    std::uint64_t readRefs = 0;
    std::uint64_t writeRefs = 0;
    std::uint64_t groups = 0;
    std::uint64_t cycles = 0;

    std::uint64_t ifetchAccesses = 0;
    std::uint64_t ifetchMisses = 0;
    std::uint64_t readAccesses = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeAccesses = 0;
    std::uint64_t writeMisses = 0;

    std::uint64_t wbufEnqueued = 0;
    std::uint64_t wbufFullStalls = 0;
    std::uint64_t wbufOccupancyCount = 0;
    double wbufOccupancySum = 0.0;

    std::uint64_t tlbAccesses = 0;
    std::uint64_t tlbMisses = 0;

    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;

    // Coherent multi-core mode only (zero elsewhere).
    std::uint64_t cohInvalidations = 0;
    std::uint64_t cohUpgrades = 0;
    std::uint64_t cohBusBusyCycles = 0;

    /**
     * The field list (stats/fields.hh), in column order; the leaf is
     * the interval CSV/JSON column name.  The occupancy (count, sum)
     * pair has no column of its own: the dumps show their quotient,
     * wbuf_mean_occupancy, in its place.
     */
    template <typename Fn>
    static void
    forEachField(Fn &&fn)
    {
        using C = IntervalCounters;
        fn("refs", "measured references", &C::refs);
        fn("reads", "measured loads + ifetches", &C::readRefs);
        fn("writes", "measured stores", &C::writeRefs);
        fn("groups", "measured issue groups", &C::groups);
        fn("cycles", "measured cycles", &C::cycles);
        fn("ifetch_accesses", "L1I reads (split L1s only)",
           &C::ifetchAccesses);
        fn("ifetch_misses", "L1I read misses", &C::ifetchMisses);
        fn("read_accesses", "L1D reads (all L1 reads when unified)",
           &C::readAccesses);
        fn("read_misses", "L1D read misses", &C::readMisses);
        fn("write_accesses", "L1 writes", &C::writeAccesses);
        fn("write_misses", "L1 write misses", &C::writeMisses);
        fn("wbuf_enqueued", "L1 write-buffer entries accepted",
           &C::wbufEnqueued);
        fn("wbuf_full_stalls", "enqueues that found the buffer full",
           &C::wbufFullStalls);
        fn("wbuf_occupancy_count", "occupancy samples",
           &C::wbufOccupancyCount);
        fn("wbuf_occupancy_sum", "sum of the occupancy samples",
           &C::wbufOccupancySum);
        fn("tlb_accesses", "translations", &C::tlbAccesses);
        fn("tlb_misses", "TLB misses", &C::tlbMisses);
        fn("mem_reads", "main-memory read operations", &C::memReads);
        fn("mem_writes", "main-memory write operations",
           &C::memWrites);
        fn("coh_invalidations", "peer copies invalidated",
           &C::cohInvalidations);
        fn("coh_upgrades", "shared-to-modified ownership requests",
           &C::cohUpgrades);
        fn("coh_bus_busy_cycles", "total cycles the bus was held",
           &C::cohBusBusyCycles);
    }

    /** @return *this - @p base, field-wise (cumulative -> window). */
    IntervalCounters minus(const IntervalCounters &base) const;

    /** Accumulate @p other (window -> aggregate, for tests). */
    void add(const IntervalCounters &other);
};

/** One emitted window of the time series. */
struct IntervalRecord
{
    std::string trace;       ///< run the window belongs to
    std::size_t index = 0;   ///< window ordinal within the run
    std::uint64_t beginRef = 0; ///< first issued-ref position
    std::uint64_t endRef = 0;   ///< one past the last position
    bool final = false;         ///< partial window closing the run
    IntervalCounters c;         ///< per-window counter deltas
    double wallSeconds = 0.0;   ///< host time spent on the window

    /** @return measured cycles per measured reference (0 if none). */
    double cpi() const;

    /** @return combined L1 read miss ratio of the window. */
    double readMissRatio() const;

    /** @return instruction-side miss ratio (split L1s only). */
    double ifetchMissRatio() const;

    /** @return L1 write miss ratio of the window. */
    double writeMissRatio() const;

    /** @return mean write-buffer occupancy at enqueue. */
    double wbufMeanOccupancy() const;

    /** @return issued references per host second (0 if no time). */
    double refsPerSec() const;
};

/**
 * Collects the per-window series for one or more runs of a System.
 * Attach with System::setIntervalCollector(); the System calls the
 * three hooks below.  Not thread-safe: one collector serves one
 * System at a time (per-run collectors are cheap).
 */
class IntervalCollector
{
  public:
    /** @param window_refs window length in issued references. */
    explicit IntervalCollector(std::uint64_t window_refs);

    /**
     * Explicit-schedule mode: emit a window ending at each position
     * in @p boundaries (issued-ref positions, strictly increasing).
     * The sampling engine uses this to make windows coincide with
     * its measurement units, so a unit's counter deltas fall out of
     * the same bit-exact machinery as the fixed-width series.
     */
    explicit IntervalCollector(std::vector<std::uint64_t> boundaries);

    /** firstBoundaryAfter() result when no boundary remains. */
    static constexpr std::uint64_t kNoBoundary = ~std::uint64_t{0};

    /**
     * @return the first window boundary strictly after position
     * @p pos: the next multiple of windowRefs in fixed mode, the
     * next scheduled position in explicit mode (kNoBoundary once the
     * schedule is exhausted).  The System re-queries this after each
     * emission, so both modes share one engine-side path.
     */
    std::uint64_t firstBoundaryAfter(std::uint64_t pos) const;

    /** @return the fixed window length (0 in explicit mode). */
    std::uint64_t windowRefs() const { return window_; }

    // -- hooks called by System --------------------------------------

    /** A run over @p trace_name starts; resets the window cursor. */
    void beginRun(const std::string &trace_name);

    /** Cumulative counters at issued-ref position @p consumed. */
    void atBoundary(std::uint64_t consumed,
                    const IntervalCounters &cumulative);

    /**
     * The run ended at @p consumed with final cumulative counters;
     * emits the trailing partial window when one is open.
     */
    void endRun(std::uint64_t consumed,
                const IntervalCounters &cumulative);

    // -- results -----------------------------------------------------

    /** @return every emitted window, across all runs, in order. */
    const std::vector<IntervalRecord> &records() const
    {
        return records_;
    }

    /** Drop all records (reuse across independent experiments). */
    void clear();

    /**
     * Flat CSV, one row per window:
     * trace,window,begin_ref,end_ref,refs,cycles,cpi,... with a
     * header row.
     */
    void dumpCsv(std::ostream &os) const;

    /** The series as a JSON array of window objects. */
    void dumpJson(std::ostream &os) const;

    /** dumpJson() into a string (manifest embedding). */
    std::string json() const;

  private:
    void emit(std::uint64_t end_ref,
              const IntervalCounters &cumulative, bool final);

    std::uint64_t window_;
    /** Explicit boundary schedule (empty in fixed mode). */
    std::vector<std::uint64_t> schedule_;
    std::string trace_;
    std::size_t indexInRun_ = 0;
    std::uint64_t lastRef_ = 0;
    IntervalCounters lastCum_;
    double lastWall_ = 0.0;
    std::vector<IntervalRecord> records_;
};

} // namespace cachetime

#endif // CACHETIME_STATS_INTERVAL_HH
