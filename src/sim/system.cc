#include "sim/system.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "stats/interval.hh"
#include "trace_debug/trace_debug.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace cachetime
{

namespace
{

/** @return the trace name of an L1: "L1" when unified, else L1I/L1D. */
const char *
l1Name(bool split, bool iside)
{
    return !split ? "L1" : iside ? "L1I" : "L1D";
}

/**
 * Most references probed before the timing passes replay them.  2048
 * references (32 KB) and their log fit a 48 KB L1 data cache, so
 * every member's timing pass re-reads them from there.  On a 4-vCPU
 * Xeon, 1024-4096 measured alike; 128 and whole 16K-reference feeder
 * chunks were slower, on the fused batch and on a single machine.
 */
constexpr std::size_t kProbeSpan = 2048;
static_assert(kProbeSpan < 0xffff,
              "a span's group counts must fit a HitRun's 16-bit fields");

/**
 * Call @p fn with std::bool_constant arguments for each runtime
 * flag, so every combination gets its own instantiation.
 */
template <typename Fn>
void
withFlags(Fn &&fn)
{
    fn();
}

template <typename Fn, typename... Rest>
void
withFlags(Fn &&fn, bool flag, Rest... rest)
{
    auto bind = [&](auto c) {
        withFlags([&](auto... cs) { fn(c, cs...); }, rest...);
    };
    flag ? bind(std::true_type{}) : bind(std::false_type{});
}

} // namespace

System::System(const SystemConfig &config) : config_(config)
{
    config_.validate();

    if (config_.addressing == AddressMode::Physical) {
        // Physical caches tag with the physical address alone.
        config_.icache.virtualTags = false;
        config_.dcache.virtualTags = false;
        config_.l2cache.virtualTags = false;
    }
}

System::L1Front::L1Front(const SystemConfig &config) : log(1)
{
    if (config.addressing == AddressMode::Physical)
        tlb = std::make_unique<Tlb>(config.tlb);
    if (config.split)
        icache = std::make_unique<Cache>(config.icache,
                                         l1Name(true, true));
    dcache = std::make_unique<Cache>(config.dcache,
                                     l1Name(config.split, false));
}

System::L1Front::L1Front(const std::vector<const SystemConfig *> &layers)
    : chain(std::make_unique<L1Chain>(layers)), log(chain->size())
{
}

CacheStats
System::L1Front::stats(bool iside, unsigned layer) const
{
    if (chain)
        return chain->stats(iside, layer);
    return (iside ? *icache : *dcache).stats();
}

void
System::L1Front::resetStats()
{
    if (chain)
        chain->resetStats();
    if (icache)
        icache->resetStats();
    if (dcache)
        dcache->resetStats();
    if (tlb)
        tlb->resetStats();
}

void
System::L1Front::prefetchAfter(Cache &cache, Addr addr, Pid pid,
                               AccessOutcome *&record,
                               std::uint8_t &bits)
{
    const unsigned block = cache.config().blockWords;
    *record = cache.prefetch((addr / block + 1) * block, pid);
    if (!record->filled)
        return; // already resident
    ++record;
    bits |= FrontLog::kPrefetchFill;
}

template <bool TraceOn, bool Pair, bool Split, bool HasTlb>
void
System::L1Front::probe(const Ref *refs, std::size_t n)
{
    Cache &iside = Split ? *icache : *dcache;
    Cache &dside = *dcache;
    // Sized for the worst case - every reference a miss followed by
    // a prefetch - so the caches write misses straight into the log.
    log.reserve(n, HasTlb, 2);
    std::uint8_t *kind = log.kinds.data();
    AccessOutcome *record = log.layers[0].records.data();
    Addr *paddr = log.paddrs.data();
    RunCutter<Pair> cutter(log);

    for (std::size_t i = 0; i < n; ++i) {
        const Ref &ref = refs[i];
        Addr addr = ref.addr;
        Pid pid = ref.pid;
        std::uint8_t bits = 0;
        if constexpr (HasTlb) {
            Tlb::Translation t = tlb->translate(addr, pid);
            bits = t.hit ? 0 : FrontLog::kTlbMiss;
            // Physical tags carry no process id.
            addr = t.paddr;
            pid = 0;
            if (TraceOn || ref.kind == RefKind::Store)
                *paddr++ = addr;
        }
        // A hit leaves *record untouched; a miss fills it in place
        // and logs depth 1: the front's one layer missed.
        if (ref.kind == RefKind::Store) {
            HitKind hit = dside.writeFast(addr, 1, pid, *record);
            if (hit == HitKind::Miss) [[unlikely]] {
                ++record;
                bits |= 1;
            }
        } else {
            Cache &cache = ref.kind == RefKind::IFetch ? iside : dside;
            HitKind hit = cache.readFast(addr, 1, pid, *record);
            const PrefetchPolicy policy = cache.config().prefetchPolicy;
            if (hit == HitKind::Miss) [[unlikely]] {
                bits |= 1;
                const AccessOutcome &miss = *record++;
                // One-block lookahead behind every demand fill (a
                // victim-cache swap fetches nothing).
                if (policy != PrefetchPolicy::None &&
                    !(miss.victimCacheHit && !miss.filled))
                    prefetchAfter(cache, addr, pid, record, bits);
            } else if (hit == HitKind::HitPrefetched &&
                       policy == PrefetchPolicy::Tagged) [[unlikely]] {
                // Tagged prefetch: first use of a prefetched block
                // triggers the next lookahead.
                prefetchAfter(cache, addr, pid, record, bits);
            }
        }
        kind[i] = bits;
        // A miss, a TLB miss or a prefetch fill is an event.
        cutter.add(static_cast<std::uint32_t>(i), ref.kind, bits != 0);
    }
    cutter.finish(static_cast<std::uint32_t>(n));
}

void
System::buildTiming()
{
    memory_ = std::make_unique<MainMemory>(config_.memory,
                                           config_.cycleNs);
    midLevels_.clear();
    midBuffers_.clear();
    MemLevel *below = memory_.get();
    auto mids = config_.resolvedMidLevels();
    // Build from the memory upward so each level drains into the
    // one below through its own write buffer.
    for (std::size_t i = mids.size(); i-- > 0;) {
        std::string name = "L";
        name.append(std::to_string(i + 2));
        midBuffers_.push_back(std::make_unique<WriteBuffer>(
            mids[i].buffer, below, name + ".wbuf"));
        midLevels_.push_back(std::make_unique<CacheLevel>(
            mids[i].cache, mids[i].timing, midBuffers_.back().get(),
            name));
        below = midLevels_.back().get();
    }
    l1Buffer_ = std::make_unique<WriteBuffer>(config_.l1Buffer,
                                              below, "L1.wbuf");
    l1Down_ = l1Buffer_.get();

    icacheBusy_ = 0;
    dcacheBusy_ = 0;
    missPenalty_.reset();
    stallRead_ = 0;
    stallWrite_ = 0;
    stallTlb_ = 0;
}

void
System::resetTimingStats()
{
    for (auto &level : midLevels_)
        level->resetStats();
    for (auto &buffer : midBuffers_)
        buffer->resetStats();
    l1Buffer_->resetStats();
    memory_->resetStats();
    missPenalty_.reset();
    // Stall attribution must cover the same window as the cycle
    // count, so the warm-start boundary clears it too.
    stallRead_ = 0;
    stallWrite_ = 0;
    stallTlb_ = 0;
}

void
System::prefetchTiming(const Side &side, Tick &busy, Pid pid,
                       Tick when, LogCursor &log)
{
    const AccessOutcome &outcome = *log.record++;
    ReadReply reply = l1Down_->readBlock(when, outcome.fetchAddr,
                                         outcome.fetchedWords, 0,
                                         pid);
    Tick victim_ready = when;
    if (outcome.victimDirty) {
        unsigned block = side.config.blockWords;
        victim_ready = when + block;
        Tick stall = l1Down_->writeBlock(
            victim_ready, outcome.victimBlockAddr, block,
            outcome.victimPid);
        victim_ready = std::max(victim_ready, stall);
    }
    // The fill port stays busy; the CPU does not wait.
    busy = std::max(busy, std::max(reply.complete, victim_ready));
}

template <bool TraceOn, bool HasTlb>
Tick
System::accessRead(const Side &side, Tick &busy, const Ref &ref,
                   std::uint8_t bits, Tick issue, LogCursor &log)
{
    Tick start = std::max(issue, busy);
    Pid pid = ref.pid;
    Addr addr = ref.addr;
    if constexpr (HasTlb) {
        if (bits & FrontLog::kTlbMiss) [[unlikely]] {
            CACHETIME_TRACE_EVENT(
                trace_debug::Tlb, "tlb miss vpage=%llx pid=%u",
                static_cast<unsigned long long>(
                    ref.addr / config_.tlb.pageWords),
                static_cast<unsigned>(ref.pid));
            start += config_.tlb.missPenaltyCycles;
            stallTlb_ += config_.tlb.missPenaltyCycles;
        }
        pid = 0;
        if constexpr (TraceOn)
            addr = *log.paddr++;
    }

    if ((bits & FrontLog::kDepthMask) <= log.layer) [[likely]] {
        Tick done = start + config_.cpu.readHitCycles;
        if constexpr (TraceOn) {
            CACHETIME_TRACE_EVENT(
                trace_debug::Cache, "%s t=%llu read hit addr=%llx",
                side.name, static_cast<unsigned long long>(start),
                static_cast<unsigned long long>(addr));
        }
        busy = std::max(busy, done);
        if (bits & FrontLog::kPrefetchFill) [[unlikely]]
            prefetchTiming(side, busy, pid, done, log);
        return done;
    }

    return readMissTail(side, busy, addr, pid, start, bits, log);
}

Tick
System::readMissTail(const Side &side, Tick &busy, Addr addr, Pid pid,
                     Tick start, std::uint8_t bits, LogCursor &log)
{
    const AccessOutcome &outcome = *log.record++;
    if (outcome.victimCacheHit && !outcome.filled) {
        // Victim-cache swap: a short fixed penalty instead of the
        // memory round trip; a dirty castout still drains below.
        Tick done = start + config_.cpu.readHitCycles +
                    config_.cpu.victimSwapCycles;
        if (outcome.victimDirty) {
            l1Down_->writeBlock(done, outcome.victimBlockAddr,
                                side.config.blockWords,
                                outcome.victimPid);
        }
        busy = std::max(busy, done);
        missPenalty_.sample(
            static_cast<std::uint64_t>(done - start));
        stallRead_ += done - start - config_.cpu.readHitCycles;
        CACHETIME_TRACE_EVENT(
            trace_debug::Cache,
            "%s t=%llu read victim-hit addr=%llx latency=%llu",
            side.name, static_cast<unsigned long long>(start),
            static_cast<unsigned long long>(addr),
            static_cast<unsigned long long>(done - start));
        return done;
    }

    // Miss: the tag probe costs the hit time, then the fetch goes
    // down through the write buffer (which checks for stale data).
    Tick request = start + config_.cpu.readHitCycles;
    ReadReply reply =
        l1Down_->readBlock(request, outcome.fetchAddr,
                           outcome.fetchedWords,
                           outcome.fetchCriticalOffset, pid);

    // Dirty victim: extracted over a one-word-wide path during the
    // memory latency; write-back is hidden iff the latency covers
    // the block transfer into the buffer.
    Tick victim_ready = request;
    if (outcome.victimDirty) {
        unsigned block = side.config.blockWords;
        victim_ready = request + block; // one word per cycle
        Tick stall = l1Down_->writeBlock(
            victim_ready, outcome.victimBlockAddr, block,
            outcome.victimPid);
        victim_ready = std::max(victim_ready, stall);
    }

    Tick fill_done = std::max(reply.complete, victim_ready);
    busy = std::max(busy, fill_done);
    missPenalty_.sample(static_cast<std::uint64_t>(fill_done - start));

    Tick done = fill_done;
    if (config_.cpu.earlyContinuation) {
        // Resume on the demanded word; unless the memory streams
        // data to CPU and cache simultaneously, one extra forward
        // cycle is charged.
        Tick resume = reply.criticalWord +
                      (config_.memory.streaming ? 0 : 1);
        resume = std::max(resume, victim_ready);
        done = std::min(resume, fill_done);
    }
    stallRead_ += done - start - config_.cpu.readHitCycles;
    CACHETIME_TRACE_EVENT(
        trace_debug::Cache,
        "%s t=%llu read miss%s addr=%llx latency=%llu%s", side.name,
        static_cast<unsigned long long>(start),
        outcome.tagMatch ? " (sub-block)" : "",
        static_cast<unsigned long long>(addr),
        static_cast<unsigned long long>(done - start),
        outcome.victimDirty ? " writeback" : "");
    // One-block lookahead behind the demand fill.
    if (bits & FrontLog::kPrefetchFill)
        prefetchTiming(side, busy, pid, fill_done, log);
    return done;
}

template <bool TraceOn, bool HasTlb>
Tick
System::accessWrite(const Side &side, Tick &busy, const Ref &ref,
                    std::uint8_t bits, Tick issue, LogCursor &log)
{
    Tick start = std::max(issue, busy);
    Pid pid = ref.pid;
    Addr addr = ref.addr;
    if constexpr (HasTlb) {
        if (bits & FrontLog::kTlbMiss) [[unlikely]] {
            CACHETIME_TRACE_EVENT(
                trace_debug::Tlb, "tlb miss vpage=%llx pid=%u",
                static_cast<unsigned long long>(
                    ref.addr / config_.tlb.pageWords),
                static_cast<unsigned>(ref.pid));
            start += config_.tlb.missPenaltyCycles;
            stallTlb_ += config_.tlb.missPenaltyCycles;
        }
        pid = 0;
        addr = *log.paddr++;
    }

    Tick done = start + config_.cpu.writeHitCycles;
    if ((bits & FrontLog::kDepthMask) <= log.layer) [[likely]] {
        if (side.config.writePolicy == WritePolicy::WriteThrough) {
            Tick stall =
                l1Down_->writeBlock(done, addr, 1, pid);
            done = std::max(done, stall);
        }
        busy = std::max(busy, done);
        stallWrite_ += done - start - config_.cpu.writeHitCycles;
        if constexpr (TraceOn) {
            CACHETIME_TRACE_EVENT(
                trace_debug::Cache,
                "%s t=%llu write hit addr=%llx latency=%llu",
                side.name, static_cast<unsigned long long>(start),
                static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(done - start));
        }
        return done;
    }

    return writeMissTail(side, busy, addr, pid, start, log);
}

Tick
System::writeMissTail(const Side &side, Tick &busy, Addr addr,
                      Pid pid, Tick start, LogCursor &log)
{
    const AccessOutcome &outcome = *log.record++;
    Tick done = start + config_.cpu.writeHitCycles;

    if (outcome.victimCacheHit && !outcome.filled) {
        // The store landed in a block swapped back from the victim
        // cache; only the swap penalty (and any castout) is paid.
        done += config_.cpu.victimSwapCycles;
        if (outcome.victimDirty) {
            l1Down_->writeBlock(done, outcome.victimBlockAddr,
                                side.config.blockWords,
                                outcome.victimPid);
        }
        busy = std::max(busy, done);
        stallWrite_ += done - start - config_.cpu.writeHitCycles;
        return done;
    }

    if (!outcome.filled) {
        // No-write-allocate: the word goes straight down.
        Tick stall = l1Down_->writeBlock(done, addr, 1, pid);
        done = std::max(done, stall);
        busy = std::max(busy, done);
        stallWrite_ += done - start - config_.cpu.writeHitCycles;
        CACHETIME_TRACE_EVENT(
            trace_debug::Cache,
            "%s t=%llu write miss (no-allocate) addr=%llx "
            "latency=%llu",
            side.name, static_cast<unsigned long long>(start),
            static_cast<unsigned long long>(addr),
            static_cast<unsigned long long>(done - start));
        return done;
    }

    // Write-allocate: fetch the block, then complete the write.
    Tick request = start + config_.cpu.readHitCycles;
    ReadReply reply =
        l1Down_->readBlock(request, outcome.fetchAddr,
                           outcome.fetchedWords,
                           outcome.fetchCriticalOffset, pid);
    Tick victim_ready = request;
    if (outcome.victimDirty) {
        unsigned block = side.config.blockWords;
        victim_ready = request + block;
        Tick stall = l1Down_->writeBlock(
            victim_ready, outcome.victimBlockAddr, block,
            outcome.victimPid);
        victim_ready = std::max(victim_ready, stall);
    }
    done = std::max(reply.complete, victim_ready) + 1;
    if (side.config.writePolicy == WritePolicy::WriteThrough) {
        Tick stall = l1Down_->writeBlock(done, addr, 1, pid);
        done = std::max(done, stall);
    }
    busy = std::max(busy, done);
    stallWrite_ += done - start - config_.cpu.writeHitCycles;
    CACHETIME_TRACE_EVENT(
        trace_debug::Cache,
        "%s t=%llu write miss (allocate) addr=%llx latency=%llu%s",
        side.name, static_cast<unsigned long long>(start),
        static_cast<unsigned long long>(addr),
        static_cast<unsigned long long>(done - start),
        outcome.victimDirty ? " writeback" : "");
    return done;
}

SimResult
System::run(const Trace &trace)
{
    TraceRefSource source(trace);
    return run(source);
}

void
System::foldMeasured(Tick now)
{
    // Fold the current measured span's component counters into the
    // accumulated result (a single fold over the whole post-warm
    // span when there are no warm segments, so the unsegmented path
    // is bit-identical to reading the stats directly).
    result_.cycles += now - progress_.segStart;
    result_.groups += progress_.groups;
    result_.refs += progress_.reads + progress_.writes;
    result_.readRefs += progress_.reads;
    result_.writeRefs += progress_.writes;
    progress_.groups = progress_.reads = progress_.writes = 0;
    if (config_.split)
        result_.icache.merge(front_->stats(true, layer_));
    result_.dcache.merge(front_->stats(false, layer_));
    // midLevels_ is ordered memory-first; expose CPU-first.
    for (std::size_t i = midLevels_.size(); i-- > 0;) {
        std::size_t out = midLevels_.size() - 1 - i;
        result_.midLevels[out].merge(midLevels_[i]->cache().stats());
        result_.midBuffers[out].merge(midBuffers_[i]->stats());
    }
    result_.l1Buffer.merge(l1Buffer_->stats());
    result_.memory.merge(memory_->stats());
    if (front_->tlb)
        result_.tlb.merge(front_->tlb->stats());
    result_.missPenaltyCycles.merge(missPenalty_);
    result_.stallReadCycles += stallRead_;
    result_.stallWriteCycles += stallWrite_;
    result_.stallTlbCycles += stallTlb_;
}

bool
System::measuredAt(std::size_t p)
{
    // Measurement state is a pure function of the reference
    // position; it is evaluated only at positions where it can
    // change (progress_.boundary).
    const std::vector<WarmSegment> &segments = runSegments_;
    std::size_t &seg_idx = progress_.segIdx;
    if (p < runWarmStart_) {
        progress_.boundary = runWarmStart_;
        return false;
    }
    while (seg_idx < segments.size() && p >= segments[seg_idx].end)
        ++seg_idx;
    if (seg_idx < segments.size() && p >= segments[seg_idx].begin) {
        progress_.boundary = segments[seg_idx].end;
        return false;
    }
    progress_.boundary = seg_idx < segments.size()
                             ? segments[seg_idx].begin
                             : std::numeric_limits<std::size_t>::max();
    return true;
}

bool
System::crossBoundary()
{
    bool want = measuredAt(progress_.consumed);
    if (want == progress_.measuring)
        return false;
    if (want) {
        resetTimingStats();
        progress_.segStart = progress_.now;
    } else {
        foldMeasured(progress_.now);
    }
    progress_.measuring = want;
    return want;
}

template <bool TraceOn, bool Pair, bool Split, bool HasTlb>
void
System::replay(const Ref *buffer, std::size_t n)
{
    static_assert(Split || !Pair, "paired issue requires a split L1");
    const Side iside{Split ? config_.icache : config_.dcache,
                     l1Name(Split, true)};
    const Side dside{config_.dcache, l1Name(Split, false)};
    // Busy horizons live in locals for the duration of the span so
    // the per-access load/max/store cycle stays in registers; they
    // are written back below for the next span.  Unified caches
    // share one port, so ifetches contend on the same horizon as
    // data references - with Split known at compile time the
    // aliasing is resolved here instead of per access.
    Tick ibusyLocal = Split ? icacheBusy_ : 0;
    Tick dbusyLocal = dcacheBusy_;
    Tick &ibusy = Split ? ibusyLocal : dbusyLocal;
    Tick &dbusy = dbusyLocal;

    const FrontLog &front_log = front_->log;
    const FrontLog::Layer &mine = front_log.layers[layer_];
    const std::uint8_t *kinds = front_log.kinds.data();
    LogCursor log{mine.records.data(), front_log.paddrs.data(), layer_};
    const HitRun *run = mine.runs.data();
    std::size_t head = 0;
    Tick now = progress_.now;
    std::uint64_t groups = 0;
    std::uint64_t writes = 0;

    // A hit run sums exactly only when no group in it waits on a
    // busy horizon - once both are at or before the clock, hits keep
    // them there - and no store hit goes down (write-through).
    const bool sum_runs =
        !TraceOn && config_.dcache.writePolicy == WritePolicy::WriteBack;
    const Tick read_hit = config_.cpu.readHitCycles;
    const Tick write_hit = config_.cpu.writeHitCycles;
    const Tick pair_write_hit = std::max(read_hit, write_hit);

    for (;;) {
        std::size_t stop = run->begin;
        if (head == stop) {
            if (head == n)
                break;
            if (sum_runs && ibusy <= now && dbusy <= now) {
                const std::uint64_t s = run->shapes;
                const Tick reads = s & 0xffff;
                const Tick stores = s >> 16 & 0xffff;
                const Tick pair_reads = s >> 32 & 0xffff;
                const Tick pair_writes = s >> 48;
                now += (reads + pair_reads) * read_hit +
                       stores * write_hit + pair_writes * pair_write_hit;
                groups += reads + stores + pair_reads + pair_writes;
                writes += stores + pair_writes;
                if constexpr (HasTlb)
                    log.paddr += stores + pair_writes;
                head = run->end;
                ++run;
                continue;
            }
            stop = run->end;
            ++run;
        }
        // Reference by reference up to the next run (event groups),
        // or through a run that cannot be summed.
        while (head < stop) {
            const Ref &first = buffer[head];
            Tick done;
            if (first.kind == RefKind::IFetch) {
                done = accessRead<TraceOn, HasTlb>(iside, ibusy, first,
                                                   kinds[head], now, log);
                ++head;
                if (Pair && head < n && isData(buffer[head].kind)) {
                    const Ref &data = buffer[head];
                    Tick d;
                    if (data.kind == RefKind::Store) {
                        ++writes;
                        d = accessWrite<TraceOn, HasTlb>(
                            dside, dbusy, data, kinds[head], now, log);
                    } else {
                        d = accessRead<TraceOn, HasTlb>(
                            dside, dbusy, data, kinds[head], now, log);
                    }
                    done = std::max(done, d);
                    ++head;
                }
            } else if (first.kind == RefKind::Store) {
                ++writes;
                done = accessWrite<TraceOn, HasTlb>(dside, dbusy, first,
                                                    kinds[head], now, log);
                ++head;
            } else {
                done = accessRead<TraceOn, HasTlb>(dside, dbusy, first,
                                                   kinds[head], now, log);
                ++head;
            }
            if (done <= now) [[unlikely]]
                panic("System: time failed to advance at ref %zu",
                      progress_.consumed + head);
            now = done;
            ++groups;
        }
    }

    // A span never crosses a measurement boundary (feedGroup cuts
    // there), so its counts are measured or not as a whole.
    progress_.consumed += n;
    progress_.now = now;
    if (progress_.measuring) {
        progress_.groups += groups;
        progress_.reads += n - writes;
        progress_.writes += writes;
    }
    if (Split)
        icacheBusy_ = ibusyLocal;
    dcacheBusy_ = dbusyLocal;
}

void
System::beginRun(const RefSource &source, System *lead)
{
    if (lead) {
        ownFront_.reset();
        front_ = lead->front_;
    } else {
        ownFront_ = std::make_unique<L1Front>(config_);
        front_ = ownFront_.get();
    }
    layer_ = 0;
    // A follower takes the lead's trace choice: the log's shape
    // depends on it.
    arm(source, lead ? lead->runTraceOn_ : trace_debug::flags() != 0);
}

void
System::beginChain(System *const *members, std::size_t count,
                   const RefSource &source)
{
    // One layer per distinct L1 size, in member order; members of
    // equal sizes share a layer.
    std::vector<const SystemConfig *> layers;
    std::vector<unsigned> layer_of(count);
    for (std::size_t k = 0; k < count; ++k) {
        const SystemConfig &config = members[k]->config_;
        const SystemConfig *last = layers.empty() ? nullptr : layers.back();
        const bool split = config.split;
        if (!last || last->dcache.sizeWords != config.dcache.sizeWords ||
            (split && last->icache.sizeWords != config.icache.sizeWords)) {
            if (last && (config.dcache.sizeWords < last->dcache.sizeWords ||
                         (split && config.icache.sizeWords <
                                       last->icache.sizeWords)))
                panic("System::beginChain: L1 sizes must not decrease");
            layers.push_back(&config);
        }
        layer_of[k] = static_cast<unsigned>(layers.size() - 1);
    }
    System &lead = *members[0];
    lead.ownFront_ = std::make_unique<L1Front>(layers);
    const bool trace_on = trace_debug::flags() != 0;
    for (std::size_t k = 0; k < count; ++k) {
        System &member = *members[k];
        if (k != 0)
            member.ownFront_.reset();
        member.front_ = lead.ownFront_.get();
        member.layer_ = layer_of[k];
        member.arm(source, trace_on);
    }
}

void
System::arm(const RefSource &source, bool trace_on)
{
    buildTiming();
    CACHETIME_TRACE_EVENT(
        trace_debug::Sim, "run start trace=%s refs=%llu warm=%zu",
        source.name().c_str(),
        static_cast<unsigned long long>(source.size()),
        source.warmStart());

    result_ = SimResult{};
    result_.traceName = source.name();
    result_.configSummary = config_.describe();
    result_.cycleNs = config_.cycleNs;
    result_.midLevels.resize(midLevels_.size());
    result_.midBuffers.resize(midBuffers_.size());
    result_.physical = config_.addressing == AddressMode::Physical;

    progress_ = RunProgress{};
    runWarmStart_ = source.warmStart();
    runSegments_ = source.warmSegments();
    // Hoist the per-run decisions out of the reference loop: each
    // span dispatches to a dedicated instantiation whose
    // per-reference path re-checks none of them.  The TraceOn=false
    // paths skip even the (cheap) flag loads of the per-reference
    // trace points; results are bit-identical across instantiations.
    runTraceOn_ = trace_on;
    runPair_ = config_.split && config_.cpu.pairIssue;

    if (interval_) {
        interval_->beginRun(result_.traceName);
        nextIntervalBoundary_ = interval_->firstBoundaryAfter(0);
    }
}

IntervalCounters
System::captureIntervalCounters() const
{
    IntervalCounters c;
    const bool measuring = progress_.measuring;
    c.refs = result_.refs + progress_.reads + progress_.writes;
    c.readRefs = result_.readRefs + progress_.reads;
    c.writeRefs = result_.writeRefs + progress_.writes;
    c.groups = result_.groups + progress_.groups;
    c.cycles =
        result_.cycles +
        (measuring ? progress_.now - progress_.segStart : Tick{0});

    // Folded counters plus, inside a measured span, the live
    // component stats (foldMeasured() has not seen them yet; outside
    // a span the live structs hold already-folded leftovers that
    // the next measure-on resetStats() will clear).
    CacheStats ic = result_.icache;
    CacheStats dc = result_.dcache;
    WriteBufferStats wb = result_.l1Buffer;
    TlbStats tlb = result_.tlb;
    MainMemoryStats mem = result_.memory;
    if (measuring) {
        if (config_.split)
            ic.merge(front_->stats(true, layer_));
        dc.merge(front_->stats(false, layer_));
        wb.merge(l1Buffer_->stats());
        if (front_->tlb)
            tlb.merge(front_->tlb->stats());
        mem.merge(memory_->stats());
    }
    if (config_.split) {
        c.ifetchAccesses = ic.readAccesses;
        c.ifetchMisses = ic.readMisses;
    }
    c.readAccesses = dc.readAccesses;
    c.readMisses = dc.readMisses;
    c.writeAccesses = dc.writeAccesses;
    c.writeMisses = dc.writeMisses;
    c.wbufEnqueued = wb.enqueued;
    c.wbufFullStalls = wb.fullStalls;
    c.wbufOccupancyCount = wb.occupancy.count();
    c.wbufOccupancySum = wb.occupancy.sum();
    c.tlbAccesses = tlb.accesses;
    c.tlbMisses = tlb.misses;
    c.memReads = mem.reads;
    c.memWrites = mem.writes;
    return c;
}

void
System::feedChunk(const Ref *refs, std::size_t n)
{
    System *self = this;
    if (!interval_) [[likely]] {
        feedGroup(&self, 1, refs, n);
        return;
    }
    while (n != 0) {
        std::size_t take = n;
        if (nextIntervalBoundary_ > progress_.consumed) {
            std::uint64_t room =
                nextIntervalBoundary_ - progress_.consumed;
            if (room < take)
                take = static_cast<std::size_t>(room);
        }
        // Never split a couplet: if the cut would separate an
        // IFetch from the data reference it pairs with, slide the
        // cut past the data ref so every pairing decision matches
        // the unsplit stream.
        if (runPair_ && take < n &&
            refs[take - 1].kind == RefKind::IFetch &&
            isData(refs[take].kind))
            ++take;
        feedGroup(&self, 1, refs, take);
        refs += take;
        n -= take;
        if (progress_.consumed >= nextIntervalBoundary_) {
            interval_->atBoundary(progress_.consumed,
                                  captureIntervalCounters());
            nextIntervalBoundary_ =
                interval_->firstBoundaryAfter(progress_.consumed);
        }
    }
}

void
System::feedGroup(System *const *members, std::size_t count,
                  const Ref *refs, std::size_t n)
{
    System &lead = *members[0];
    L1Front &front = *lead.front_;
    const RunProgress &at = lead.progress_;
    while (n != 0) {
        // Warm-segment and measurement boundaries are positions in
        // the stream, so every member crosses them here together
        // (lockstep members pair couplets alike).  The shared L1
        // statistics are folded by each member on measure-off and
        // cleared once on measure-on.
        if (at.consumed >= at.boundary) [[unlikely]] {
            bool on = false;
            for (std::size_t k = 0; k < count; ++k)
                on = members[k]->crossBoundary();
            if (on)
                front.resetStats();
        }
        // Cut the span at the next boundary, or after kProbeSpan
        // references; as at interval windows, a couplet straddling
        // the cut stays whole, and the state at its first reference
        // governs it.
        std::size_t take = std::min(n, kProbeSpan);
        if (at.boundary - at.consumed < take)
            take = at.boundary - at.consumed;
        if (take < n && lead.runPair_ &&
            refs[take - 1].kind == RefKind::IFetch &&
            isData(refs[take].kind))
            ++take;
        lead.probeSpan(refs, take);
        for (std::size_t k = 0; k < count; ++k)
            members[k]->replaySpan(refs, take);
        refs += take;
        n -= take;
    }
}

void
System::probeSpan(const Ref *refs, std::size_t n)
{
    if (front_->chain) {
        withFlags(
            [&](auto pair_c, auto split_c) {
                if constexpr (split_c.value || !pair_c.value)
                    front_->chain->walk<pair_c.value, split_c.value>(
                        refs, n, front_->log);
            },
            runPair_, config_.split);
        return;
    }
    withFlags(
        [&](auto trace_c, auto pair_c, auto split_c, auto tlb_c) {
            if constexpr (split_c.value || !pair_c.value)
                front_->probe<trace_c.value, pair_c.value,
                              split_c.value, tlb_c.value>(refs, n);
        },
        runTraceOn_, runPair_, config_.split, front_->tlb != nullptr);
}

void
System::replaySpan(const Ref *refs, std::size_t n)
{
    const bool has_tlb = front_->tlb != nullptr;
    withFlags(
        [&](auto trace_c, auto pair_c, auto split_c, auto tlb_c) {
            if constexpr (split_c.value || !pair_c.value)
                replay<trace_c.value, pair_c.value, split_c.value,
                       tlb_c.value>(refs, n);
        },
        runTraceOn_, runPair_, config_.split, has_tlb);
}

SimResult
System::endRun()
{
    if (progress_.measuring) {
        foldMeasured(progress_.now);
        progress_.measuring = false;
    }
    if (interval_)
        interval_->endRun(progress_.consumed,
                          captureIntervalCounters());
    CACHETIME_TRACE_EVENT(
        trace_debug::Sim, "run end trace=%s cycles=%llu refs=%llu",
        result_.traceName.c_str(),
        static_cast<unsigned long long>(result_.cycles),
        static_cast<unsigned long long>(result_.refs));
    return std::move(result_);
}

SimResult
System::run(RefSource &source)
{
    ChunkFeeder feeder(source);
    beginRun(source);
    while (ChunkFeeder::Span span = feeder.next())
        feedChunk(span.data, span.size);
    return endRun();
}

namespace
{

/** @return true when @p tag (4 raw bytes) equals literal @p want. */
bool
tagIs(const std::string &tag, const char want[4])
{
    return tag.size() == 4 && std::memcmp(tag.data(), want, 4) == 0;
}

/** beginSection and fatal() unless the tag is @p want. */
void
expectSection(StateReader &r, const char want[4])
{
    std::string tag = r.beginSection();
    if (!tagIs(tag, want))
        fatal("checkpoint state: expected section '%s', found '%s'",
              want, tag.c_str());
}

} // namespace

void
System::requireCaches(const char *what) const
{
    if (front_->chain)
        fatal("System: cannot %s a machine on an inclusion-chain L1 "
              "front (only simulateBatch forms chains, and it never "
              "checkpoints)",
              what);
}

void
System::captureState(StateWriter &w) const
{
    requireCaches("capture the state of");
    // A busy horizon at or before the clock acts as the clock
    // itself; whether a hit run was summed or replayed leaves it at
    // different such values, so it is written as the clock.
    const Tick now = progress_.now;
    w.beginSection("CLK");
    w.u64(static_cast<std::uint64_t>(now));
    w.u64(static_cast<std::uint64_t>(std::max(icacheBusy_, now)));
    w.u64(static_cast<std::uint64_t>(std::max(dcacheBusy_, now)));
    w.endSection();
    if (config_.split) {
        w.beginSection("L1I");
        front_->icache->saveState(w);
        w.endSection();
    }
    w.beginSection("L1D");
    front_->dcache->saveState(w);
    w.endSection();
    if (front_->tlb) {
        w.beginSection("TLB");
        front_->tlb->saveState(w);
        w.endSection();
    }
    w.beginSection("WB1");
    l1Buffer_->saveState(w);
    w.endSection();
    w.beginSection("MID");
    w.u64(midLevels_.size());
    for (std::size_t i = 0; i < midLevels_.size(); ++i) {
        midBuffers_[i]->saveState(w);
        midLevels_[i]->saveState(w);
    }
    w.endSection();
    w.beginSection("MEM");
    memory_->saveState(w);
    w.endSection();
}

void
System::restoreState(StateReader &r)
{
    requireCaches("restore state into");
    expectSection(r, "CLK");
    progress_.now = static_cast<Tick>(r.u64());
    icacheBusy_ = static_cast<Tick>(r.u64());
    dcacheBusy_ = static_cast<Tick>(r.u64());
    r.endSection();
    if (config_.split) {
        expectSection(r, "L1I");
        front_->icache->loadState(r);
        r.endSection();
    }
    expectSection(r, "L1D");
    front_->dcache->loadState(r);
    r.endSection();
    if (front_->tlb) {
        expectSection(r, "TLB");
        front_->tlb->loadState(r);
        r.endSection();
    }
    expectSection(r, "WB1");
    l1Buffer_->loadState(r);
    r.endSection();
    expectSection(r, "MID");
    std::uint64_t mids = r.u64();
    if (mids != midLevels_.size())
        fatal("checkpoint state: %llu intermediate levels, this "
              "machine has %zu (config mismatch)",
              static_cast<unsigned long long>(mids),
              midLevels_.size());
    for (std::size_t i = 0; i < midLevels_.size(); ++i) {
        midBuffers_[i]->loadState(r);
        midLevels_[i]->loadState(r);
    }
    r.endSection();
    expectSection(r, "MEM");
    memory_->loadState(r);
    r.endSection();
}

void
System::restoreWarmState(StateReader &r)
{
    requireCaches("restore warm state into");
    bool saw_d = false;
    bool saw_i = false;
    bool saw_tlb = false;
    while (r.remaining() > 0) {
        std::string tag = r.beginSection();
        if (tagIs(tag, "L1I")) {
            if (!config_.split)
                fatal("checkpoint warm state has a split L1, this "
                      "machine is unified (warm-key mismatch)");
            front_->icache->loadState(r);
            r.endSection();
            saw_i = true;
        } else if (tagIs(tag, "L1D")) {
            front_->dcache->loadState(r);
            r.endSection();
            saw_d = true;
        } else if (tagIs(tag, "TLB")) {
            if (!front_->tlb)
                fatal("checkpoint warm state has a TLB, this machine "
                      "is virtually addressed (warm-key mismatch)");
            front_->tlb->loadState(r);
            r.endSection();
            saw_tlb = true;
        } else {
            // Timing-entangled sections (clock, buffers, L2, memory)
            // are deliberately not restored across configs.
            r.skipSection();
        }
    }
    if (!saw_d || (config_.split && !saw_i) || (front_->tlb && !saw_tlb))
        fatal("checkpoint warm state is missing a cache/TLB section "
              "(corrupt or warm-key mismatch)");
}

} // namespace cachetime
