/**
 * @file
 * The outcome log an L1 front writes for one span and every timing
 * pass reads (DESIGN.md sections 9 and 10).
 *
 * A front has one or more layers.  A Cache-backed front has exactly
 * one; an inclusion-chain front (sim/l1_chain.hh) has one per L1
 * size it serves.  Per reference the log holds one byte: the depth
 * of its first hit - the index of the smallest layer that hits, the
 * layer count when none does - plus the TLB-miss and prefetch-fill
 * flags.  A member at layer k misses exactly when the depth exceeds
 * k.  Per layer the log holds the AccessOutcome of every miss and
 * prefetch fill there, in issue order, and the runs of hit groups
 * that layer sees.
 */

#ifndef CACHETIME_SIM_FRONT_LOG_HH
#define CACHETIME_SIM_FRONT_LOG_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "trace/ref.hh"

namespace cachetime
{

/**
 * A maximal run of hit groups: issue groups (a lone reference, or an
 * IFetch with the data reference it pairs with) whose references all
 * hit, with no TLB miss and no prefetch fill.  Such a group's timing
 * is a pure function of its shape, so the timing pass can sum a
 * whole run.
 */
struct HitRun
{
    std::uint32_t begin; ///< first reference of the run
    std::uint32_t end;   ///< one past its last reference
    /**
     * Four 16-bit group counts, indexed by shape
     * (paired << 1 | store): lone read, lone store, ifetch+load,
     * ifetch+store.
     */
    std::uint64_t shapes;
};

/** The log of one probed span. */
struct FrontLog
{
    /** Depth bits of a log byte: the first hit's layer index. */
    static constexpr std::uint8_t kDepthMask = 0x3f;
    static constexpr std::uint8_t kTlbMiss = 0x40; ///< translation missed
    /** A lookahead prefetch filled; its record follows. */
    static constexpr std::uint8_t kPrefetchFill = 0x80;
    /** Most layers one front serves (the depth must fit its bits). */
    static constexpr unsigned kMaxLayers = 32;

    /** What the members at one layer read. */
    struct Layer
    {
        std::vector<AccessOutcome> records;
        std::vector<HitRun> runs;
    };

    explicit FrontLog(unsigned layer_count) : layers(layer_count) {}

    /**
     * Size the arrays for an @p n-reference span whose references
     * log at most @p records_per_ref records per layer each (a miss,
     * and with prefetching its lookahead fill), so fronts write
     * records straight into the log.  Runs are separated by event
     * groups: at most (n + 1) / 2, plus the sentinel.
     */
    void
    reserve(std::size_t n, bool has_tlb, unsigned records_per_ref)
    {
        if (kinds.size() >= n)
            return;
        kinds.resize(n);
        if (has_tlb)
            paddrs.resize(n);
        for (Layer &layer : layers) {
            layer.records.resize(records_per_ref * n);
            layer.runs.resize(n / 2 + 2);
        }
    }

    std::vector<std::uint8_t> kinds;
    std::vector<Addr> paddrs; ///< physical addressing only
    std::vector<Layer> layers;
};

/**
 * Cuts a span into each layer's hit runs as the probe walks it.
 *
 * Every reference adds its shape to one cumulative four-field count
 * (an IFetch counts as a lone read, and the data reference that
 * pairs with it moves that count to an ifetch+load or ifetch+store
 * one), so a run's shape counts are the difference of the count at
 * its two ends.  A group is an event for the layers below its level
 * - the number of layers it missed, or all of them on a TLB miss or
 * a prefetch fill - and closes only their runs, so a span costs
 * O(references + layer misses).
 */
template <bool Pair>
class RunCutter
{
  public:
    explicit RunCutter(FrontLog &log)
        : layers_(static_cast<unsigned>(log.layers.size()))
    {
        for (unsigned k = 0; k < layers_; ++k)
            open_[k] = {0, 0, log.layers[k].runs.data()};
    }

    /** Account reference @p i of kind @p kind at event level @p level. */
    [[gnu::always_inline]] void
    add(std::uint32_t i, RefKind kind, unsigned level)
    {
        const bool ifetch = kind == RefKind::IFetch;
        const bool paired = Pair & prevIfetch_ & !ifetch;
        // A data reference paired with an IFetch is part of its
        // group: the group's level is the larger of the two.
        if (paired && prevLevel_ > level)
            level = prevLevel_;
        const std::uint64_t before = counts_;
        const unsigned shape =
            (unsigned{paired} << 1) | unsigned{kind == RefKind::Store};
        counts_ += (std::uint64_t{1} << (16 * shape)) - paired;
        if (level != 0) [[unlikely]]
            close(i, paired, before - paired, level);
        prevIfetch_ = ifetch;
        prevLevel_ = level;
    }

    /** Close every layer's last run and write the sentinels. */
    void
    finish(std::uint32_t n)
    {
        for (unsigned k = 0; k < layers_; ++k) {
            OpenRun &run = open_[k];
            if (n > run.begin)
                *run.out++ = {run.begin, n, counts_ - run.base};
            *run.out = {n, n, 0};
        }
    }

  private:
    /** A layer's open hit run. */
    struct OpenRun
    {
        std::uint32_t begin;
        std::uint64_t base; ///< cumulative shape counts at begin
        HitRun *out;
    };

    void
    close(std::uint32_t i, bool paired, std::uint64_t at_group,
          unsigned level)
    {
        // The group starts at its IFetch when paired.  A layer that
        // the IFetch already closed finds group < begin and emits
        // nothing; its slot is overwritten by its next run.
        const std::uint32_t group = i - paired;
        for (unsigned k = 0; k < level; ++k) {
            OpenRun &run = open_[k];
            *run.out = {run.begin, group, at_group - run.base};
            run.out += group > run.begin;
            run.begin = i + 1;
            run.base = counts_;
        }
    }

    std::array<OpenRun, FrontLog::kMaxLayers> open_;
    unsigned layers_;
    std::uint64_t counts_ = 0;
    bool prevIfetch_ = false;
    unsigned prevLevel_ = 0;
};

} // namespace cachetime

#endif // CACHETIME_SIM_FRONT_LOG_HH
