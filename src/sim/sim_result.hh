/**
 * @file
 * The measured output of one simulation run.
 *
 * SimResult gathers the component counters taken after the
 * warm-start boundary plus the top-line numbers the paper's
 * experiments are built from: total cycles, references, and the
 * derived metrics (cycles per reference, execution time, miss and
 * traffic ratios).
 */

#ifndef CACHETIME_SIM_SIM_RESULT_HH
#define CACHETIME_SIM_SIM_RESULT_HH

#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/coherence.hh"
#include "cache/miss_classify.hh"
#include "memory/main_memory.hh"
#include "memory/tlb.hh"
#include "util/histogram.hh"
#include "memory/write_buffer.hh"

namespace cachetime
{

namespace stats
{
class Registry;
}

/** Results of simulating one trace on one machine. */
struct SimResult
{
    std::string traceName;
    std::string configSummary;
    double cycleNs = 0.0;

    // --- measured after the warm-start boundary ---
    std::uint64_t refs = 0;       ///< references measured
    std::uint64_t readRefs = 0;   ///< loads + ifetches measured
    std::uint64_t writeRefs = 0;  ///< stores measured
    std::uint64_t groups = 0;     ///< issue groups (couplets count 1)
    Tick cycles = 0;              ///< cycles consumed

    CacheStats icache;
    CacheStats dcache;
    /** All intermediate levels, nearest the CPU first (L2, L3...). */
    std::vector<CacheStats> midLevels;
    std::vector<WriteBufferStats> midBuffers;
    WriteBufferStats l1Buffer;
    MainMemoryStats memory;
    TlbStats tlb;
    bool physical = false; ///< TLB stats valid only when physical

    // --- coherent multi-core mode only ------------------------------

    /** Core count the run modeled (1 for the classic engine). */
    unsigned cores = 1;
    /** True when the coherent engine produced this result. */
    bool coherent = false;
    /** Per-core private L1 stats (icache empty when unified); the
     * aggregate icache/dcache fields above hold their sums. */
    std::vector<CacheStats> coreIcache;
    std::vector<CacheStats> coreDcache;
    /** Bus-side coherence traffic, measured. */
    CoherenceStats coherenceStats;
    /** 3C + coherence decomposition of every L1 miss, summed over
     * cores and both sides; total() equals the L1 miss count. */
    MissClassStats missClasses;

    /** @return true when the machine had an intermediate level. */
    bool hasL2() const { return !midLevels.empty(); }

    /**
     * @return the first intermediate level's stats (all-zero when
     * there is none).  A view over midLevels.front() - the counters
     * are stored once, so the two can never drift.
     */
    const CacheStats &l2() const;

    /** @return the first intermediate level's write-buffer stats. */
    const WriteBufferStats &l2Buffer() const;

    /** Observed L1 read-miss service times, in cycles. */
    Histogram missPenaltyCycles{32, 2};

    /**
     * Serial stall attribution, in cycles: time read misses held
     * the CPU beyond the hit time, ditto writes (buffer stalls and
     * write-allocate fills), and TLB walks.  Couplets overlap I and
     * D service, so the parts may sum to more than `cycles`.
     */
    Tick stallReadCycles = 0;
    Tick stallWriteCycles = 0;
    Tick stallTlbCycles = 0;

    /**
     * The top-line counters' field list (stats/fields.hh), in
     * registration order; regStats() registers the derived metrics
     * right after `cycles`.  The component groups have lists of
     * their own.
     */
    template <typename Fn>
    static void
    forEachField(Fn &&fn)
    {
        using S = SimResult;
        fn("refs", "references measured", &S::refs);
        fn("readRefs", "loads + ifetches measured", &S::readRefs);
        fn("writeRefs", "stores measured", &S::writeRefs);
        fn("groups", "issue groups (couplets count 1)", &S::groups);
        fn("cycles", "cycles consumed", &S::cycles);
        fn("stallReadCycles", "cycles read misses held the CPU",
           &S::stallReadCycles);
        fn("stallWriteCycles", "cycles writes held the CPU",
           &S::stallWriteCycles);
        fn("stallTlbCycles", "cycles TLB walks held the CPU",
           &S::stallTlbCycles);
        fn("missPenaltyCycles", "observed L1 read-miss service times",
           &S::missPenaltyCycles);
    }

    /**
     * Accumulate every measured counter of @p other into this
     * result: the top-line counts, each component's stats (via their
     * merge() helpers), the miss-penalty histogram and the stall
     * attribution.  Descriptive fields (names, cycleNs, cores,
     * flags) are left alone, so merging partials produced from one
     * config preserves its identity.  Per-level and per-core vectors
     * must have matching shapes (or @p other's may be empty);
     * anything else is a logic error and panics.  This is the one
     * SimResult-level accumulate: the set-sharded stack kernel sums
     * per-shard partials with it.
     */
    void mergeCounters(const SimResult &other);

    /** @return total cycles / total references. */
    double cyclesPerRef() const;

    /** @return execution time per reference, in nanoseconds. */
    double execNsPerRef() const;

    /** @return total execution time in nanoseconds. */
    double totalExecNs() const;

    /** @return combined L1 read miss ratio (read misses / reads). */
    double readMissRatio() const;

    /** @return instruction-side read miss ratio. */
    double ifetchMissRatio() const;

    /** @return data-side (load) read miss ratio. */
    double loadMissRatio() const;

    /**
     * @return read traffic ratio: words fetched from below the L1s
     * per L1 read request (with fixed block size this is simply
     * blockWords x miss ratio, as the paper notes).
     */
    double readTrafficRatio() const;

    /**
     * @return write traffic counting every word of each dirty block
     * replaced, per reference (the larger curve of Figure 3-1).
     */
    double writeTrafficBlockRatio(unsigned blockWords) const;

    /**
     * @return write traffic counting only the dirty words
     * themselves, per reference (the smaller curve of Figure 3-1).
     */
    double writeTrafficWordRatio() const;

    /**
     * Register the whole result as a stats tree rooted at @p root
     * (default "system"): top-line counters and derived metrics,
     * then per-component groups - system.l1i, system.l1d,
     * system.l1wbuf, system.l2 / l2wbuf (and l3... for deeper
     * hierarchies), system.mem, and system.tlb when physical.  The
     * registry reads through accessors, so *this must outlive every
     * dump of @p registry.
     */
    void regStats(stats::Registry &registry,
                  const std::string &root = "system") const;
};

} // namespace cachetime

#endif // CACHETIME_SIM_SIM_RESULT_HH
