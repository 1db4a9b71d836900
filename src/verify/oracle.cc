#include "verify/oracle.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "util/logging.hh"
#include "util/rng.hh"

namespace cachetime
{
namespace verify
{
namespace
{

// ---------------------------------------------------------------
// Timing rules, restated from the paper.
// ---------------------------------------------------------------

/**
 * Quantize a nanosecond quantity to whole CPU cycles (Section 2:
 * the memory is synchronous, so every physical time rounds *up* to
 * the next cycle).  The 1e-9 slack keeps an exact multiple - e.g.
 * 120ns at 40ns/cycle - from rounding to one cycle more than the
 * paper's Table 2.
 */
Tick
wholeCycles(double ns, double cycle_ns)
{
    if (ns <= 0.0)
        return 0;
    return static_cast<Tick>(std::ceil(ns / cycle_ns - 1e-9));
}

/** Cycles to move @p n words at @p rate; any transfer takes >= 1. */
Tick
moveCycles(const TransferRate &rate, unsigned n)
{
    if (n == 0)
        return 0;
    Tick whole = (static_cast<Tick>(n) * rate.cycles + rate.words - 1) /
                 rate.words;
    return whole < 1 ? 1 : whole;
}

// ---------------------------------------------------------------
// The organizational cache model: what happened, not when.
// ---------------------------------------------------------------

/** What one cache access did, for the timing layer. */
struct CacheEvent
{
    bool hit = false;
    bool filled = false;
    bool victimDirty = false;
    Addr victimBlockAddr = 0;
    Pid victimPid = 0;
    unsigned victimDirtyWords = 0;
    unsigned fetchedWords = 0;
    Addr fetchAddr = 0;
    unsigned fetchCriticalOffset = 0;
};

/** One cache block, with per-word valid/dirty bytes. */
struct OBlock
{
    bool present = false;
    Addr tag = 0;
    Pid pid = 0;
    std::vector<char> validWord;
    std::vector<char> dirtyWord;
    std::uint64_t lastUse = 0;
    std::uint64_t fillSeq = 0;
};

/**
 * A set-associative cache with pid-extended tags, per-word valid
 * bits (sub-block fetching) and per-word dirty bits.
 */
struct OCacheModel
{
    CacheConfig cfg;
    std::uint64_t sets;
    std::vector<OBlock> blocks; ///< sets x assoc, way-major per set
    std::uint64_t clock = 0;    ///< access sequence for LRU/FIFO
    Rng replRng;                ///< Random replacement stream
    CacheStats stats;

    OCacheModel(const CacheConfig &config)
        : cfg(config), sets(config.numSets()), replRng(config.replSeed)
    {
        blocks.resize(sets * cfg.assoc);
        for (OBlock &b : blocks) {
            b.validWord.assign(cfg.blockWords, 0);
            b.dirtyWord.assign(cfg.blockWords, 0);
        }
    }

    OBlock *
    find(Addr block_addr, Pid pid)
    {
        Addr tag = block_addr / sets;
        OBlock *set = &blocks[(block_addr % sets) * cfg.assoc];
        for (unsigned w = 0; w < cfg.assoc; ++w) {
            if (set[w].present && set[w].tag == tag &&
                (!cfg.virtualTags || set[w].pid == pid)) {
                return &set[w];
            }
        }
        return nullptr;
    }

    bool
    wordsValid(const OBlock &b, unsigned offset, unsigned words) const
    {
        for (unsigned i = 0; i < words; ++i)
            if (!b.validWord[offset + i])
                return false;
        return true;
    }

    unsigned
    dirtyCount(const OBlock &b) const
    {
        unsigned n = 0;
        for (char d : b.dirtyWord)
            n += d != 0;
        return n;
    }

    /**
     * Pick the way a new block lands in: the first invalid way, or
     * the replacement policy's choice when the set is full.  Charges
     * the eviction statistics and reports any dirty victim.
     */
    OBlock &
    chooseVictim(Addr block_addr, CacheEvent &event)
    {
        OBlock *set = &blocks[(block_addr % sets) * cfg.assoc];
        OBlock *way = nullptr;
        for (unsigned w = 0; w < cfg.assoc; ++w) {
            if (!set[w].present) {
                way = &set[w];
                break;
            }
        }
        if (!way) {
            unsigned pick = 0;
            switch (cfg.replPolicy) {
              case ReplPolicy::Random:
                pick = static_cast<unsigned>(replRng.below(cfg.assoc));
                break;
              case ReplPolicy::LRU:
                for (unsigned w = 1; w < cfg.assoc; ++w)
                    if (set[w].lastUse < set[pick].lastUse)
                        pick = w;
                break;
              case ReplPolicy::FIFO:
                for (unsigned w = 1; w < cfg.assoc; ++w)
                    if (set[w].fillSeq < set[pick].fillSeq)
                        pick = w;
                break;
            }
            way = &set[pick];
            ++stats.blocksReplaced;
            unsigned dirty = dirtyCount(*way);
            if (dirty > 0) {
                ++stats.dirtyBlocksReplaced;
                stats.dirtyWordsReplaced += dirty;
                event.victimDirty = true;
                event.victimBlockAddr =
                    (way->tag * sets + block_addr % sets) *
                    cfg.blockWords;
                event.victimPid = way->pid;
                event.victimDirtyWords = dirty;
            }
        }
        return *way;
    }

    /** The fetch an access at @p offset x @p words triggers. */
    void
    fetchRange(unsigned offset, unsigned words, unsigned &start,
               unsigned &count) const
    {
        unsigned unit = cfg.effectiveFetchWords();
        start = (offset / unit) * unit;
        count = unit;
        while (start + count < offset + words)
            count += unit;
    }

    /** Install @p count words at @p start into @p way as a new block. */
    void
    installNew(OBlock &way, Addr block_addr, Pid pid, unsigned start,
               unsigned count, CacheEvent &event)
    {
        way.present = true;
        way.tag = block_addr / sets;
        way.pid = pid;
        std::fill(way.validWord.begin(), way.validWord.end(), 0);
        std::fill(way.dirtyWord.begin(), way.dirtyWord.end(), 0);
        std::fill(way.validWord.begin() + start,
                  way.validWord.begin() + start + count, 1);
        way.fillSeq = clock;
        way.lastUse = clock;
        event.filled = true;
        event.fetchedWords = count;
        event.fetchAddr = block_addr * cfg.blockWords + start;
        ++stats.fills;
        stats.wordsFetched += count;
    }

    /** Widen a resident block's valid range (sub-block refill). */
    void
    refillResident(OBlock &block, Addr block_addr, unsigned start,
                   unsigned count, CacheEvent &event)
    {
        std::fill(block.validWord.begin() + start,
                  block.validWord.begin() + start + count, 1);
        block.lastUse = clock;
        event.filled = true;
        event.fetchedWords = count;
        event.fetchAddr = block_addr * cfg.blockWords + start;
        ++stats.fills;
        stats.wordsFetched += count;
    }

    CacheEvent
    read(Addr addr, unsigned words, Pid pid)
    {
        ++clock;
        ++stats.readAccesses;
        CacheEvent event;
        Addr block_addr = addr / cfg.blockWords;
        unsigned offset = static_cast<unsigned>(addr % cfg.blockWords);

        unsigned fetch_start, fetch_count;
        if (OBlock *block = find(block_addr, pid)) {
            if (wordsValid(*block, offset, words)) {
                event.hit = true;
                block->lastUse = clock;
                return event;
            }
            // Tag match with the demanded words missing: fetch only
            // the missing sub-block(s) into the resident line.
            ++stats.readMisses;
            ++stats.subBlockMisses;
            fetchRange(offset, words, fetch_start, fetch_count);
            refillResident(*block, block_addr, fetch_start,
                           fetch_count, event);
            event.fetchCriticalOffset = offset - fetch_start;
            return event;
        }

        ++stats.readMisses;
        fetchRange(offset, words, fetch_start, fetch_count);
        OBlock &way = chooseVictim(block_addr, event);
        installNew(way, block_addr, pid, fetch_start, fetch_count,
                   event);
        event.fetchCriticalOffset = offset - fetch_start;
        return event;
    }

    CacheEvent
    write(Addr addr, unsigned words, Pid pid)
    {
        ++clock;
        ++stats.writeAccesses;
        CacheEvent event;
        Addr block_addr = addr / cfg.blockWords;
        unsigned offset = static_cast<unsigned>(addr % cfg.blockWords);

        if (OBlock *block = find(block_addr, pid)) {
            // A tag match is a write hit: the store validates the
            // words it writes even if they were not resident.
            event.hit = true;
            block->lastUse = clock;
            std::fill(block->validWord.begin() + offset,
                      block->validWord.begin() + offset + words, 1);
            if (cfg.writePolicy == WritePolicy::WriteBack) {
                std::fill(block->dirtyWord.begin() + offset,
                          block->dirtyWord.begin() + offset + words,
                          1);
            } else {
                stats.wordsWrittenThrough += words;
            }
            return event;
        }

        ++stats.writeMisses;
        if (cfg.allocPolicy == AllocPolicy::WriteAllocate) {
            unsigned fetch_start, fetch_count;
            fetchRange(offset, words, fetch_start, fetch_count);
            OBlock &way = chooseVictim(block_addr, event);
            installNew(way, block_addr, pid, fetch_start, fetch_count,
                       event);
            event.fetchCriticalOffset = offset - fetch_start;
            std::fill(way.validWord.begin() + offset,
                      way.validWord.begin() + offset + words, 1);
            if (cfg.writePolicy == WritePolicy::WriteBack) {
                std::fill(way.dirtyWord.begin() + offset,
                          way.dirtyWord.begin() + offset + words, 1);
            } else {
                stats.wordsWrittenThrough += words;
            }
            return event;
        }

        // No fetch on write miss: the words go straight down.
        stats.wordsWrittenThrough += words;
        return event;
    }
};

// ---------------------------------------------------------------
// Timed hierarchy levels.
// ---------------------------------------------------------------

struct LevelReply
{
    Tick complete;
    Tick critical;
};

/** One level misses and write-backs drain into. */
struct OLevel
{
    virtual ~OLevel() = default;
    virtual LevelReply read(Tick when, Addr addr, unsigned words,
                            unsigned criticalOffset, Pid pid) = 0;
    virtual Tick write(Tick when, Addr addr, unsigned words,
                       Pid pid) = 0;
    /** Earliest time this level could accept a new operation. */
    virtual Tick idleAt() const = 0;
};

/**
 * Main memory: one bus, word-interleaved banks.  A read occupies
 * the bus for latency + transfer and the touched banks additionally
 * for the recovery time; a write releases the requester after the
 * address and data cycles while the write operation and recovery
 * proceed inside the banks.
 */
struct OMemory final : OLevel
{
    MainMemoryConfig cfg;
    Tick readLatency; ///< address cycles + quantized access time
    Tick writeOp;
    Tick recovery;
    Tick busFree = 0;
    std::vector<Tick> bankFree;
    MainMemoryStats stats;

    OMemory(const MainMemoryConfig &config, double cycle_ns)
        : cfg(config)
    {
        readLatency = cfg.addressCycles +
                      wholeCycles(cfg.readLatencyNs, cycle_ns);
        writeOp = wholeCycles(cfg.writeNs, cycle_ns);
        recovery = wholeCycles(cfg.recoveryNs, cycle_ns);
        bankFree.assign(cfg.banks, 0);
    }

    Tick
    touchedBanksFree(Addr addr, unsigned words) const
    {
        Tick latest = 0;
        unsigned touched = std::min<unsigned>(words, cfg.banks);
        for (unsigned i = 0; i < touched; ++i)
            latest = std::max(latest,
                              bankFree[(addr + i) % cfg.banks]);
        return latest;
    }

    void
    occupyBanks(Addr addr, unsigned words, Tick until)
    {
        unsigned touched = std::min<unsigned>(words, cfg.banks);
        for (unsigned i = 0; i < touched; ++i) {
            Tick &bank = bankFree[(addr + i) % cfg.banks];
            bank = std::max(bank, until);
        }
    }

    LevelReply
    read(Tick when, Addr addr, unsigned words,
         unsigned criticalOffset, Pid pid) override
    {
        (void)pid;
        Tick start = std::max(
            {when, busFree, touchedBanksFree(addr, words)});
        stats.readWaitCycles += start - when;

        Tick data_ready = start + readLatency;
        Tick complete = data_ready + moveCycles(cfg.rate, words);
        Tick critical =
            data_ready +
            moveCycles(cfg.rate,
                       cfg.loadForwarding ? 1 : criticalOffset + 1);

        busFree = complete;
        Tick bank_until = complete + recovery;
        occupyBanks(addr, words, bank_until);

        ++stats.reads;
        stats.wordsRead += words;
        stats.busyCycles += bank_until - start;
        return {complete, critical};
    }

    Tick
    write(Tick when, Addr addr, unsigned words, Pid pid) override
    {
        (void)pid;
        Tick start = std::max(
            {when, busFree, touchedBanksFree(addr, words)});
        Tick release = start + cfg.addressCycles +
                       moveCycles(cfg.rate, words);
        busFree = release;
        Tick bank_until = release + writeOp + recovery;
        occupyBanks(addr, words, bank_until);

        ++stats.writes;
        stats.wordsWritten += words;
        stats.busyCycles += bank_until - start;
        return release;
    }

    Tick
    idleAt() const override
    {
        return std::max(busFree,
                        *std::min_element(bankFree.begin(),
                                          bankFree.end()));
    }
};

/**
 * The paper's write buffer: posted writes drain whenever the level
 * below is free, reads force out queued writes to matching
 * addresses, and a full buffer stalls the writer until the head
 * entry is accepted downstream.
 */
struct OWriteBuffer final : OLevel
{
    struct Entry
    {
        Addr addr;
        unsigned words;
        Tick ready;
        Pid pid;
    };

    WriteBufferConfig cfg;
    OLevel *down;
    std::deque<Entry> queue;
    WriteBufferStats stats;

    OWriteBuffer(const WriteBufferConfig &config, OLevel *downstream)
        : cfg(config), down(downstream)
    {
    }

    bool
    overlaps(const Entry &entry, Addr addr, unsigned words,
             Pid pid) const
    {
        if (entry.pid != pid)
            return false;
        Addr g = cfg.matchGranularityWords;
        return entry.addr / g <= (addr + words - 1) / g &&
               addr / g <= (entry.addr + entry.words - 1) / g;
    }

    /** Retire whatever can drain in the background before @p now. */
    void
    drainBackground(Tick now)
    {
        while (!queue.empty()) {
            if (!cfg.drainOnIdle && queue.size() < cfg.highWater)
                break;
            const Entry &head = queue.front();
            Tick start = std::max(down->idleAt(), head.ready);
            if (cfg.readPriority && start >= now)
                break;
            down->write(std::max(start, head.ready), head.addr,
                        head.words, head.pid);
            queue.pop_front();
            ++stats.retired;
        }
    }

    /** Force out entries up to and including index @p through. */
    Tick
    forceOut(std::size_t through, Tick now)
    {
        Tick release = now;
        for (std::size_t i = 0; i <= through && !queue.empty(); ++i) {
            const Entry head = queue.front();
            queue.pop_front();
            release = down->write(std::max(now, head.ready),
                                  head.addr, head.words, head.pid);
            ++stats.retired;
        }
        return release;
    }

    LevelReply
    read(Tick when, Addr addr, unsigned words,
         unsigned criticalOffset, Pid pid) override
    {
        drainBackground(when);

        Tick start = when;
        if (!cfg.readPriority && !queue.empty()) {
            forceOut(queue.size() - 1, when);
        } else if (cfg.checkReadMatch) {
            std::size_t match = queue.size();
            for (std::size_t i = 0; i < queue.size(); ++i)
                if (overlaps(queue[i], addr, words, pid))
                    match = i;
            if (match < queue.size()) {
                ++stats.readMatches;
                Tick release = forceOut(match, when);
                if (release > start) {
                    stats.readMatchStallCycles += release - start;
                    start = release;
                }
            }
        }
        return down->read(start, addr, words, criticalOffset, pid);
    }

    Tick
    write(Tick when, Addr addr, unsigned words, Pid pid) override
    {
        if (!cfg.enabled)
            return down->write(when, addr, words, pid);

        drainBackground(when);

        ++stats.enqueued;
        stats.wordsEnqueued += words;

        if (cfg.coalesce) {
            for (Entry &entry : queue) {
                if (entry.addr == addr && entry.pid == pid) {
                    entry.words = std::max(entry.words, words);
                    entry.ready = std::max(entry.ready, when);
                    ++stats.coalesced;
                    return when;
                }
            }
        }

        Tick stall_until = when;
        if (queue.size() >= cfg.depth) {
            ++stats.fullStalls;
            const Entry head = queue.front();
            queue.pop_front();
            stall_until = down->write(std::max(when, head.ready),
                                      head.addr, head.words,
                                      head.pid);
            ++stats.retired;
            if (stall_until > when)
                stats.fullStallCycles += stall_until - when;
        }

        queue.push_back(
            {addr, words, std::max(when, stall_until), pid});
        stats.maxOccupancy = std::max<unsigned>(
            stats.maxOccupancy, static_cast<unsigned>(queue.size()));
        stats.occupancy.sample(queue.size());
        return stall_until;
    }

    Tick
    idleAt() const override
    {
        return down->idleAt();
    }
};

/** An intermediate cache level (L2, L3...) with its access timing. */
struct OCacheLevel final : OLevel
{
    OCacheModel cache;
    CacheLevelTiming timing;
    OLevel *down;
    Tick free = 0;

    OCacheLevel(const CacheConfig &config,
                const CacheLevelTiming &level_timing,
                OLevel *downstream)
        : cache(config), timing(level_timing), down(downstream)
    {
    }

    Tick
    fillFromBelow(Tick start, const CacheEvent &event, Pid pid)
    {
        Tick request = start + timing.hitCycles;
        LevelReply reply =
            down->read(request, event.fetchAddr, event.fetchedWords,
                       event.fetchCriticalOffset, pid);
        Tick victim_ready = request;
        if (event.victimDirty) {
            unsigned block = cache.cfg.blockWords;
            victim_ready =
                request + moveCycles(timing.victimRate, block);
            down->write(victim_ready, event.victimBlockAddr, block,
                        event.victimPid);
        }
        return std::max(reply.complete, victim_ready);
    }

    LevelReply
    read(Tick when, Addr addr, unsigned words,
         unsigned criticalOffset, Pid pid) override
    {
        Tick start = std::max(when, free);
        CacheEvent event = cache.read(addr, words, pid);
        Tick ready = event.hit ? start + timing.hitCycles
                               : fillFromBelow(start, event, pid);
        Tick complete =
            ready + moveCycles(timing.upstreamRate, words);
        Tick critical =
            ready +
            moveCycles(timing.upstreamRate, criticalOffset + 1);
        free = complete;
        return {complete, std::min(critical, complete)};
    }

    Tick
    write(Tick when, Addr addr, unsigned words, Pid pid) override
    {
        Tick start = std::max(when, free);
        CacheEvent event = cache.write(addr, words, pid);
        Tick received = start + timing.hitCycles +
                        moveCycles(timing.upstreamRate, words);
        Tick release = received;
        if (!event.hit && !event.filled)
            release = down->write(received, addr, words, pid);
        else if (event.filled)
            release =
                std::max(received, fillFromBelow(start, event, pid));
        free = release;
        return release;
    }

    Tick
    idleAt() const override
    {
        return free;
    }
};

// ---------------------------------------------------------------
// Address translation.
// ---------------------------------------------------------------

/** Set-associative LRU TLB over the deterministic frame map. */
struct OTlb
{
    struct Entry
    {
        bool valid = false;
        std::uint64_t vpage = 0;
        Pid pid = 0;
        std::uint64_t frame = 0;
        std::uint64_t lastUse = 0;
    };

    TlbConfig cfg;
    std::uint64_t sets;
    std::vector<Entry> entries;
    std::uint64_t clock = 0;
    TlbStats stats;

    OTlb(const TlbConfig &config)
        : cfg(config), sets(config.entries / config.assoc)
    {
        entries.resize(cfg.entries);
    }

    /** The OS frame allocator stand-in (same mix as memory/tlb.cc). */
    std::uint64_t
    frameOf(std::uint64_t vpage, Pid pid) const
    {
        std::uint64_t h = vpage * 0x9e3779b97f4a7c15ULL +
                          (static_cast<std::uint64_t>(pid) + 1) *
                              0xc2b2ae3d27d4eb4fULL;
        h ^= h >> 29;
        h *= 0xbf58476d1ce4e5b9ULL;
        h ^= h >> 32;
        return h % cfg.physFrames;
    }

    /** @return the physical address; *hit reports the TLB outcome. */
    Addr
    translate(Addr vaddr, Pid pid, bool *hit)
    {
        ++clock;
        ++stats.accesses;
        std::uint64_t vpage = vaddr / cfg.pageWords;
        Addr offset = vaddr % cfg.pageWords;
        Entry *ways = &entries[(vpage & (sets - 1)) * cfg.assoc];

        for (unsigned w = 0; w < cfg.assoc; ++w) {
            if (ways[w].valid && ways[w].vpage == vpage &&
                ways[w].pid == pid) {
                ways[w].lastUse = clock;
                *hit = true;
                return ways[w].frame * cfg.pageWords + offset;
            }
        }

        ++stats.misses;
        Entry *victim = &ways[0];
        for (unsigned w = 0; w < cfg.assoc; ++w) {
            if (!ways[w].valid) {
                victim = &ways[w];
                break;
            }
            if (ways[w].lastUse < victim->lastUse)
                victim = &ways[w];
        }
        victim->valid = true;
        victim->vpage = vpage;
        victim->pid = pid;
        victim->frame = frameOf(vpage, pid);
        victim->lastUse = clock;
        *hit = false;
        return victim->frame * cfg.pageWords + offset;
    }
};

// ---------------------------------------------------------------
// The machine: paired issue, per-side ports, stall accounting.
// ---------------------------------------------------------------

struct OMachine
{
    SystemConfig cfg;
    std::unique_ptr<OMemory> memory;
    /** Intermediate levels, memory-first (built bottom-up). */
    std::vector<std::unique_ptr<OWriteBuffer>> midBuffers;
    std::vector<std::unique_ptr<OCacheLevel>> midLevels;
    std::unique_ptr<OWriteBuffer> l1Buffer;
    std::unique_ptr<OCacheModel> icache;
    std::unique_ptr<OCacheModel> dcache;
    std::unique_ptr<OTlb> tlb;
    OLevel *belowL1 = nullptr;

    Tick iBusy = 0;
    Tick dBusy = 0;
    Tick stallRead = 0;
    Tick stallWrite = 0;
    Tick stallTlb = 0;
    Histogram missPenalty{32, 2};

    OMachine(const SystemConfig &config) : cfg(config)
    {
        cfg.validate();
        if (cfg.addressing == AddressMode::Physical) {
            // Physical caches tag with the physical address alone.
            cfg.icache.virtualTags = false;
            cfg.dcache.virtualTags = false;
            cfg.l2cache.virtualTags = false;
        }

        memory = std::make_unique<OMemory>(cfg.memory, cfg.cycleNs);
        OLevel *below = memory.get();
        auto mids = cfg.resolvedMidLevels();
        for (std::size_t i = mids.size(); i-- > 0;) {
            midBuffers.push_back(std::make_unique<OWriteBuffer>(
                mids[i].buffer, below));
            midLevels.push_back(std::make_unique<OCacheLevel>(
                mids[i].cache, mids[i].timing,
                midBuffers.back().get()));
            below = midLevels.back().get();
        }
        l1Buffer =
            std::make_unique<OWriteBuffer>(cfg.l1Buffer, below);
        belowL1 = l1Buffer.get();

        if (cfg.addressing == AddressMode::Physical)
            tlb = std::make_unique<OTlb>(cfg.tlb);
        if (cfg.split)
            icache = std::make_unique<OCacheModel>(cfg.icache);
        dcache = std::make_unique<OCacheModel>(cfg.dcache);
    }

    /** Zero every statistic at the warm-start boundary. */
    void
    resetStats()
    {
        if (icache)
            icache->stats.reset();
        dcache->stats.reset();
        for (auto &level : midLevels)
            level->cache.stats.reset();
        for (auto &buffer : midBuffers)
            buffer->stats.reset();
        l1Buffer->stats.reset();
        memory->stats = MainMemoryStats();
        if (tlb)
            tlb->stats.reset();
        missPenalty.reset();
        stallRead = 0;
        stallWrite = 0;
        stallTlb = 0;
    }

    Addr
    translate(const Ref &ref, Tick &start, Pid &pid)
    {
        if (!tlb)
            return ref.addr;
        bool hit = false;
        Addr paddr = tlb->translate(ref.addr, ref.pid, &hit);
        if (!hit) {
            start += cfg.tlb.missPenaltyCycles;
            stallTlb += cfg.tlb.missPenaltyCycles;
        }
        pid = 0; // physical tags carry no process id
        return paddr;
    }

    Tick
    readAccess(OCacheModel &cache, Tick &busy, const Ref &ref,
               Tick issue)
    {
        Tick start = std::max(issue, busy);
        Pid pid = ref.pid;
        Addr addr = translate(ref, start, pid);

        CacheEvent event = cache.read(addr, 1, pid);
        if (event.hit) {
            Tick done = start + cfg.cpu.readHitCycles;
            busy = std::max(busy, done);
            return done;
        }

        // Miss: a tag-probe cycle, then the fetch goes down through
        // the write buffer; a dirty victim follows one word per
        // cycle and its write-back hides under the fetch latency.
        Tick request = start + cfg.cpu.readHitCycles;
        LevelReply reply =
            belowL1->read(request, event.fetchAddr,
                          event.fetchedWords,
                          event.fetchCriticalOffset, pid);

        Tick victim_ready = request;
        if (event.victimDirty) {
            unsigned block = cache.cfg.blockWords;
            victim_ready = request + block;
            Tick stall =
                belowL1->write(victim_ready, event.victimBlockAddr,
                               block, event.victimPid);
            victim_ready = std::max(victim_ready, stall);
        }

        Tick fill_done = std::max(reply.complete, victim_ready);
        busy = std::max(busy, fill_done);
        missPenalty.sample(
            static_cast<std::uint64_t>(fill_done - start));

        Tick done = fill_done;
        if (cfg.cpu.earlyContinuation) {
            Tick resume = reply.critical +
                          (cfg.memory.streaming ? 0 : 1);
            resume = std::max(resume, victim_ready);
            done = std::min(resume, fill_done);
        }
        stallRead += done - start - cfg.cpu.readHitCycles;
        return done;
    }

    Tick
    writeAccess(OCacheModel &cache, Tick &busy, const Ref &ref,
                Tick issue)
    {
        Tick start = std::max(issue, busy);
        Pid pid = ref.pid;
        Addr addr = translate(ref, start, pid);

        CacheEvent event = cache.write(addr, 1, pid);
        Tick done = start + cfg.cpu.writeHitCycles;

        if (event.hit) {
            if (cache.cfg.writePolicy == WritePolicy::WriteThrough) {
                Tick stall = belowL1->write(done, addr, 1, pid);
                done = std::max(done, stall);
            }
            busy = std::max(busy, done);
            stallWrite += done - start - cfg.cpu.writeHitCycles;
            return done;
        }

        if (!event.filled) {
            // No fetch on write miss: the word goes straight down.
            Tick stall = belowL1->write(done, addr, 1, pid);
            done = std::max(done, stall);
            busy = std::max(busy, done);
            stallWrite += done - start - cfg.cpu.writeHitCycles;
            return done;
        }

        // Write-allocate: fetch the block, then complete the write.
        Tick request = start + cfg.cpu.readHitCycles;
        LevelReply reply =
            belowL1->read(request, event.fetchAddr,
                          event.fetchedWords,
                          event.fetchCriticalOffset, pid);
        Tick victim_ready = request;
        if (event.victimDirty) {
            unsigned block = cache.cfg.blockWords;
            victim_ready = request + block;
            Tick stall =
                belowL1->write(victim_ready, event.victimBlockAddr,
                               block, event.victimPid);
            victim_ready = std::max(victim_ready, stall);
        }
        done = std::max(reply.complete, victim_ready) + 1;
        if (cache.cfg.writePolicy == WritePolicy::WriteThrough) {
            Tick stall = belowL1->write(done, addr, 1, pid);
            done = std::max(done, stall);
        }
        busy = std::max(busy, done);
        stallWrite += done - start - cfg.cpu.writeHitCycles;
        return done;
    }
};

// ---------------------------------------------------------------
// The coherent multi-core machine, restated straight-line.
//
// An independent mirror of the coherent engine, written against the
// protocol definitions rather than the engine's classes: simple
// per-core MESI line stores, a fully-associative shadow classifier
// with linear search, an OCacheModel for the shared L2, and the
// memory times rebuilt from the nanosecond parameters.  Only the
// statistics structs and enums are shared.
// ---------------------------------------------------------------

/** One private L1 line: coherence state plus replacement metadata. */
struct OCohLine
{
    Addr tag = 0;
    CohState state = CohState::Invalid;
    std::uint64_t lastUse = 0;
    std::uint64_t fillSeq = 0;
};

/** A per-core private L1 holding whole-block MESI lines. */
struct OCohL1
{
    CacheConfig cfg;
    std::uint64_t sets;
    std::vector<OCohLine> lines; ///< sets x assoc, way-major
    std::uint64_t useSeq = 0;
    std::uint64_t fillCount = 0;
    Rng replRng;
    CacheStats stats;

    OCohL1(const CacheConfig &config)
        : cfg(config), sets(config.numSets()),
          replRng(config.replSeed)
    {
        lines.resize(sets * cfg.assoc);
    }

    OCohLine *
    find(Addr addr)
    {
        std::uint64_t block = addr / cfg.blockWords;
        Addr tag = block / sets;
        OCohLine *set = &lines[(block % sets) * cfg.assoc];
        for (unsigned w = 0; w < cfg.assoc; ++w) {
            if (set[w].state != CohState::Invalid &&
                set[w].tag == tag) {
                return &set[w];
            }
        }
        return nullptr;
    }

    /** Recency-neutral state probe (snoops do not touch LRU). */
    CohState
    probe(Addr addr)
    {
        OCohLine *line = find(addr);
        return line ? line->state : CohState::Invalid;
    }

    CohState
    lookupRead(Addr addr)
    {
        ++stats.readAccesses;
        OCohLine *line = find(addr);
        if (!line) {
            ++stats.readMisses;
            return CohState::Invalid;
        }
        line->lastUse = ++useSeq;
        return line->state;
    }

    CohState
    lookupWrite(Addr addr)
    {
        ++stats.writeAccesses;
        OCohLine *line = find(addr);
        if (!line) {
            ++stats.writeMisses;
            return CohState::Invalid;
        }
        line->lastUse = ++useSeq;
        return line->state;
    }

    void
    setState(Addr addr, CohState state)
    {
        find(addr)->state = state;
    }

    struct Victim
    {
        bool valid = false;
        bool dirty = false;
        Addr blockAddr = 0;
    };

    Victim
    fill(Addr addr, CohState state)
    {
        std::uint64_t block = addr / cfg.blockWords;
        std::uint64_t set = block % sets;
        OCohLine *base = &lines[set * cfg.assoc];

        unsigned way = cfg.assoc;
        for (unsigned w = 0; w < cfg.assoc; ++w) {
            if (base[w].state == CohState::Invalid) {
                way = w;
                break;
            }
        }

        Victim victim;
        if (way == cfg.assoc) {
            way = 0;
            switch (cfg.replPolicy) {
              case ReplPolicy::Random:
                way = static_cast<unsigned>(
                    replRng.below(cfg.assoc));
                break;
              case ReplPolicy::LRU:
                for (unsigned w = 1; w < cfg.assoc; ++w)
                    if (base[w].lastUse < base[way].lastUse)
                        way = w;
                break;
              case ReplPolicy::FIFO:
                for (unsigned w = 1; w < cfg.assoc; ++w)
                    if (base[w].fillSeq < base[way].fillSeq)
                        way = w;
                break;
            }
            victim.valid = true;
            victim.dirty = base[way].state == CohState::Modified;
            victim.blockAddr =
                (base[way].tag * sets + set) * cfg.blockWords;
            ++stats.blocksReplaced;
            if (victim.dirty) {
                ++stats.dirtyBlocksReplaced;
                stats.dirtyWordsReplaced += cfg.blockWords;
            }
        }

        base[way].tag = block / sets;
        base[way].state = state;
        base[way].lastUse = ++useSeq;
        base[way].fillSeq = ++fillCount;
        ++stats.fills;
        stats.wordsFetched += cfg.blockWords;
        return victim;
    }
};

/**
 * The Hill 3C + coherence classifier, restated: an ever-touched
 * filter, an equal-capacity fully-associative LRU stack (a plain
 * vector, front = MRU) and the pending-invalidation marks.
 */
struct OClassifier
{
    std::uint64_t capacity;
    unsigned blockWords;
    std::unordered_set<std::uint64_t> touched;
    std::unordered_set<std::uint64_t> marked;
    std::vector<std::uint64_t> stack;
    MissClassStats stats;

    OClassifier(std::uint64_t capacity_blocks, unsigned block_words)
        : capacity(capacity_blocks), blockWords(block_words)
    {
    }

    MissClass
    observe(Addr addr)
    {
        std::uint64_t key = addr / blockWords; // pid-0 keys
        bool first = touched.insert(key).second;
        bool fa_hit = false;
        for (std::size_t i = 0; i < stack.size(); ++i) {
            if (stack[i] == key) {
                fa_hit = true;
                stack.erase(stack.begin() +
                            static_cast<std::ptrdiff_t>(i));
                break;
            }
        }
        stack.insert(stack.begin(), key);
        if (stack.size() > capacity)
            stack.pop_back();
        if (first) {
            marked.erase(key);
            return MissClass::Compulsory;
        }
        if (marked.erase(key) > 0)
            return MissClass::Coherence;
        return fa_hit ? MissClass::Conflict : MissClass::Capacity;
    }

    void mark(Addr addr) { marked.insert(addr / blockWords); }

    void
    account(MissClass cls)
    {
        switch (cls) {
          case MissClass::Hit:
            break;
          case MissClass::Compulsory:
            ++stats.compulsory;
            break;
          case MissClass::Capacity:
            ++stats.capacity;
            break;
          case MissClass::Conflict:
            ++stats.conflict;
            break;
          case MissClass::Coherence:
            ++stats.coherence;
            break;
        }
    }
};

struct OCoherent
{
    SystemConfig cfg;
    unsigned blockWords; ///< data-side L1 block
    Tick snoopCycles;    ///< bus arbitration/broadcast cost
    CacheLevelTiming l2t;
    OCacheModel l2;
    Tick memReadLatency; ///< address cycles + quantized access
    Tick memWriteOp;

    struct OCore
    {
        std::unique_ptr<OCohL1> icache; ///< null when unified
        std::unique_ptr<OCohL1> dcache;
        std::unique_ptr<OClassifier> iCls;
        std::unique_ptr<OClassifier> dCls;
        Tick now = 0;
    };
    std::vector<OCore> cores;

    MainMemoryStats memStats;
    CoherenceStats coh;
    Tick bus = 0;
    Histogram missPenalty{32, 2};
    Tick stallRead = 0;
    Tick stallWrite = 0;

    std::size_t consumed = 0;
    std::size_t warmStart = 0;
    bool measuring = false;
    Tick measureStart = 0;
    std::uint64_t mReads = 0;
    std::uint64_t mWrites = 0;

    OCoherent(const SystemConfig &config)
        : cfg(config), blockWords(config.dcache.blockWords),
          snoopCycles(config.memory.addressCycles),
          l2t(config.resolvedMidLevels().front().timing),
          l2(config.resolvedMidLevels().front().cache)
    {
        cfg.validate();
        memReadLatency =
            cfg.memory.addressCycles +
            wholeCycles(cfg.memory.readLatencyNs, cfg.cycleNs);
        memWriteOp = wholeCycles(cfg.memory.writeNs, cfg.cycleNs);
        cores.resize(cfg.cores);
        for (OCore &core : cores) {
            if (cfg.split) {
                core.icache = std::make_unique<OCohL1>(cfg.icache);
                core.iCls = std::make_unique<OClassifier>(
                    std::max<std::uint64_t>(
                        1, cfg.icache.sizeWords /
                               cfg.icache.blockWords),
                    cfg.icache.blockWords);
            }
            core.dcache = std::make_unique<OCohL1>(cfg.dcache);
            core.dCls = std::make_unique<OClassifier>(
                std::max<std::uint64_t>(
                    1, cfg.dcache.sizeWords / cfg.dcache.blockWords),
                cfg.dcache.blockWords);
        }
    }

    Tick
    wall() const
    {
        Tick latest = 0;
        for (const OCore &core : cores)
            latest = std::max(latest, core.now);
        return latest;
    }

    static Addr
    blockStart(Addr addr, unsigned block_words)
    {
        return addr / block_words * block_words;
    }

    Tick
    memReadTime(unsigned words) const
    {
        return memReadLatency + moveCycles(cfg.memory.rate, words);
    }

    Tick
    memWriteTime(unsigned words) const
    {
        return cfg.memory.addressCycles +
               moveCycles(cfg.memory.rate, words) + memWriteOp;
    }

    Tick
    l2Fetch(Addr addr, unsigned words)
    {
        Tick cost = l2t.hitCycles;
        CacheEvent event = l2.read(addr, words, 0);
        if (event.filled) {
            ++memStats.reads;
            memStats.wordsRead += event.fetchedWords;
            Tick mem = memReadTime(event.fetchedWords);
            if (event.victimDirty) {
                ++memStats.writes;
                memStats.wordsWritten += event.victimDirtyWords;
                mem += memWriteTime(event.victimDirtyWords);
            }
            memStats.busyCycles += mem;
            cost += mem;
        }
        cost += moveCycles(l2t.upstreamRate, words);
        return cost;
    }

    Tick
    l2Put(Addr addr, unsigned words)
    {
        Tick cost =
            l2t.hitCycles + moveCycles(l2t.victimRate, words);
        CacheEvent event = l2.write(addr, words, 0);
        if (event.filled) {
            ++memStats.reads;
            memStats.wordsRead += event.fetchedWords;
            Tick mem = memReadTime(event.fetchedWords);
            if (event.victimDirty) {
                ++memStats.writes;
                memStats.wordsWritten += event.victimDirtyWords;
                mem += memWriteTime(event.victimDirtyWords);
            }
            memStats.busyCycles += mem;
            cost += mem;
        }
        return cost;
    }

    struct Snoop
    {
        Tick cycles = 0;
        bool sharers = false;
    };

    Snoop
    snoopPeers(unsigned core, Addr addr, bool for_write)
    {
        Snoop result;
        ++coh.snoops;
        for (unsigned p = 0;
             p < static_cast<unsigned>(cores.size()); ++p) {
            if (p == core)
                continue;
            OCohL1 &peer = *cores[p].dcache;
            CohState state = peer.probe(addr);
            if (state == CohState::Invalid)
                continue;
            bool invalidate =
                for_write || cfg.protocol == CoherenceProtocol::VI;
            if (invalidate) {
                peer.setState(addr, CohState::Invalid);
                ++coh.invalidations;
                cores[p].dCls->mark(addr);
                if (state == CohState::Modified) {
                    ++coh.interventions;
                    ++coh.writebacks;
                    Tick flush = l2Put(blockStart(addr, blockWords),
                                       blockWords);
                    coh.interventionCycles += flush;
                    result.cycles += flush;
                }
            } else {
                result.sharers = true;
                if (state == CohState::Modified) {
                    peer.setState(addr, CohState::Shared);
                    ++coh.interventions;
                    ++coh.writebacks;
                    Tick flush = l2Put(blockStart(addr, blockWords),
                                       blockWords);
                    coh.interventionCycles += flush;
                    result.cycles += flush;
                } else if (state == CohState::Exclusive) {
                    peer.setState(addr, CohState::Shared);
                }
            }
        }
        return result;
    }

    void
    serveIfetch(unsigned core, Addr addr)
    {
        OCore &c = cores[core];
        Tick issue = c.now;
        MissClass cls = c.iCls->observe(addr);
        if (c.icache->lookupRead(addr) != CohState::Invalid) {
            c.now = issue + cfg.cpu.readHitCycles;
            return;
        }
        c.iCls->account(cls);
        Tick start = std::max(issue, bus);
        ++coh.busTransactions;
        Tick cost = snoopCycles;
        unsigned iblock = cfg.icache.blockWords;
        cost += l2Fetch(blockStart(addr, iblock), iblock);
        OCohL1::Victim victim =
            c.icache->fill(addr, CohState::Exclusive);
        if (victim.valid && victim.dirty)
            cost += l2Put(victim.blockAddr, iblock);
        coh.busBusyCycles += cost;
        bus = start + cost;
        Tick done = bus + cfg.cpu.readHitCycles;
        missPenalty.sample(static_cast<std::uint64_t>(done - issue));
        stallRead += done - issue - cfg.cpu.readHitCycles;
        c.now = done;
    }

    void
    serveRead(unsigned core, Addr addr)
    {
        OCore &c = cores[core];
        Tick issue = c.now;
        MissClass cls = c.dCls->observe(addr);
        if (c.dcache->lookupRead(addr) != CohState::Invalid) {
            c.now = issue + cfg.cpu.readHitCycles;
            return;
        }
        c.dCls->account(cls);
        Tick start = std::max(issue, bus);
        ++coh.busTransactions;
        Snoop snoop = snoopPeers(core, addr, false);
        Tick cost = snoopCycles + snoop.cycles;
        cost += l2Fetch(blockStart(addr, blockWords), blockWords);
        CohState fill_state;
        switch (cfg.protocol) {
          case CoherenceProtocol::VI:
            fill_state = CohState::Exclusive;
            break;
          case CoherenceProtocol::MSI:
            fill_state = CohState::Shared;
            break;
          default: // MESI
            fill_state = snoop.sharers ? CohState::Shared
                                       : CohState::Exclusive;
            break;
        }
        OCohL1::Victim victim = c.dcache->fill(addr, fill_state);
        if (victim.valid && victim.dirty)
            cost += l2Put(victim.blockAddr, blockWords);
        coh.busBusyCycles += cost;
        bus = start + cost;
        Tick done = bus + cfg.cpu.readHitCycles;
        missPenalty.sample(static_cast<std::uint64_t>(done - issue));
        stallRead += done - issue - cfg.cpu.readHitCycles;
        c.now = done;
    }

    void
    serveWrite(unsigned core, Addr addr)
    {
        OCore &c = cores[core];
        Tick issue = c.now;
        MissClass cls = c.dCls->observe(addr);
        CohState state = c.dcache->lookupWrite(addr);
        switch (state) {
          case CohState::Modified:
            c.now = issue + cfg.cpu.writeHitCycles;
            return;
          case CohState::Exclusive:
            c.dcache->setState(addr, CohState::Modified);
            c.now = issue + cfg.cpu.writeHitCycles;
            return;
          case CohState::Shared: {
            Tick start = std::max(issue, bus);
            ++coh.busTransactions;
            ++coh.upgrades;
            Snoop snoop = snoopPeers(core, addr, true);
            Tick cost = snoopCycles + snoop.cycles;
            c.dcache->setState(addr, CohState::Modified);
            coh.upgradeCycles += cost;
            coh.busBusyCycles += cost;
            bus = start + cost;
            Tick done = bus + cfg.cpu.writeHitCycles;
            stallWrite += done - issue - cfg.cpu.writeHitCycles;
            c.now = done;
            return;
          }
          case CohState::Invalid:
            break;
        }
        c.dCls->account(cls);
        Tick start = std::max(issue, bus);
        ++coh.busTransactions;
        Snoop snoop = snoopPeers(core, addr, true);
        Tick cost = snoopCycles + snoop.cycles;
        cost += l2Fetch(blockStart(addr, blockWords), blockWords);
        OCohL1::Victim victim =
            c.dcache->fill(addr, CohState::Modified);
        if (victim.valid && victim.dirty)
            cost += l2Put(victim.blockAddr, blockWords);
        coh.busBusyCycles += cost;
        bus = start + cost;
        Tick done = bus + cfg.cpu.writeHitCycles;
        stallWrite += done - issue - cfg.cpu.writeHitCycles;
        c.now = done;
    }

    void
    resetStats()
    {
        for (OCore &core : cores) {
            if (core.icache) {
                core.icache->stats.reset();
                core.iCls->stats.reset();
            }
            core.dcache->stats.reset();
            core.dCls->stats.reset();
        }
        l2.stats.reset();
        memStats = MainMemoryStats();
        coh.reset();
        missPenalty.reset();
        stallRead = 0;
        stallWrite = 0;
    }

    void
    consume(const Ref &ref)
    {
        if (!measuring && consumed == warmStart) {
            resetStats();
            measuring = true;
            measureStart = wall();
        }
        unsigned core = cfg.coreMap == CoreMapPolicy::Modulo
                            ? ref.pid % cfg.cores
                            : ref.pid;
        switch (ref.kind) {
          case RefKind::IFetch:
            if (cfg.split)
                serveIfetch(core, ref.addr);
            else
                serveRead(core, ref.addr);
            if (measuring)
                ++mReads;
            break;
          case RefKind::Load:
            serveRead(core, ref.addr);
            if (measuring)
                ++mReads;
            break;
          case RefKind::Store:
            serveWrite(core, ref.addr);
            if (measuring)
                ++mWrites;
            break;
        }
        ++consumed;
    }
};

SimResult
oracleRunCoherent(const SystemConfig &config, RefSource &source)
{
    if (!source.warmSegments().empty())
        fatal("oracleRun: coherent mode does not support sampled "
              "traces (warm segments)");

    OCoherent m(config);
    m.warmStart = source.warmStart();
    source.reset();

    std::vector<Ref> buf(4096);
    for (;;) {
        std::size_t n = source.fill(buf.data(), buf.size());
        if (n == 0)
            break;
        for (std::size_t i = 0; i < n; ++i)
            m.consume(buf[i]);
    }

    SimResult result;
    result.traceName = source.name();
    result.configSummary = m.cfg.describe();
    result.cycleNs = m.cfg.cycleNs;
    result.cores = m.cfg.cores;
    result.coherent = true;
    if (m.measuring) {
        result.refs = m.mReads + m.mWrites;
        result.readRefs = m.mReads;
        result.writeRefs = m.mWrites;
        result.groups = result.refs;
        result.cycles = m.wall() - m.measureStart;
        for (const OCoherent::OCore &core : m.cores) {
            if (core.icache) {
                result.coreIcache.push_back(core.icache->stats);
                result.icache.merge(core.icache->stats);
                result.missClasses.merge(core.iCls->stats);
            }
            result.coreDcache.push_back(core.dcache->stats);
            result.dcache.merge(core.dcache->stats);
            result.missClasses.merge(core.dCls->stats);
        }
        result.midLevels.push_back(m.l2.stats);
        result.memory = m.memStats;
        result.coherenceStats = m.coh;
        result.missPenaltyCycles = m.missPenalty;
        result.stallReadCycles = m.stallRead;
        result.stallWriteCycles = m.stallWrite;
    }
    return result;
}

} // namespace

bool
oracleSupports(const SystemConfig &config, std::string *why)
{
    auto reject = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };
    std::vector<std::pair<std::string, CacheConfig>> caches;
    if (config.split)
        caches.emplace_back("icache", config.icache);
    caches.emplace_back("dcache", config.dcache);
    unsigned level = 2;
    for (const auto &mid : config.resolvedMidLevels()) {
        std::string name = "L";
        name.append(std::to_string(level++));
        caches.emplace_back(std::move(name), mid.cache);
    }
    for (const auto &[name, cache] : caches) {
        if (cache.prefetchPolicy != PrefetchPolicy::None)
            return reject(name + ": hardware prefetch");
        if (cache.victimEntries != 0)
            return reject(name + ": victim cache");
    }
    return true;
}

SimResult
oracleRun(const SystemConfig &config, const Trace &trace)
{
    TraceRefSource source(trace);
    return oracleRun(config, source);
}

SimResult
oracleRun(const SystemConfig &config, RefSource &source)
{
    std::string why;
    if (!oracleSupports(config, &why))
        fatal("oracleRun: unsupported feature (%s)", why.c_str());

    if (config.coherent())
        return oracleRunCoherent(config, source);

    OMachine m(config);

    const bool pair = m.cfg.split && m.cfg.cpu.pairIssue;
    const std::vector<WarmSegment> &segments = source.warmSegments();
    const std::size_t warm_start = source.warmStart();
    source.reset();

    // The oracle keeps its own chunk buffer and pairing loop rather
    // than reusing the simulator's StreamPairer; sharing the
    // iteration machinery would hide a bug in it from the harness.
    std::vector<Ref> buf(4096);
    std::size_t head = 0;
    std::size_t buffered = 0;
    std::size_t consumed = 0; ///< index of the next unconsumed ref
    bool drained = false;
    auto ensure = [&](std::size_t want) {
        if (drained || buffered - head >= want)
            return;
        std::copy(buf.begin() + static_cast<std::ptrdiff_t>(head),
                  buf.begin() + static_cast<std::ptrdiff_t>(buffered),
                  buf.begin());
        buffered -= head;
        head = 0;
        while (buffered < want) {
            std::size_t n =
                source.fill(buf.data() + buffered,
                            buf.size() - buffered);
            if (n == 0) {
                drained = true;
                break;
            }
            buffered += n;
        }
    };

    SimResult result;
    result.traceName = source.name();
    result.configSummary = m.cfg.describe();
    result.cycleNs = m.cfg.cycleNs;
    result.midLevels.resize(m.midLevels.size());
    result.midBuffers.resize(m.midBuffers.size());
    result.physical = m.tlb != nullptr;

    Tick now = 0;
    Tick seg_start = 0;
    bool measuring = false;
    std::size_t seg_idx = 0;

    auto fold = [&]() {
        result.cycles += now - seg_start;
        if (m.cfg.split)
            result.icache.merge(m.icache->stats);
        result.dcache.merge(m.dcache->stats);
        // midLevels is ordered memory-first; expose CPU-first.
        for (std::size_t l = m.midLevels.size(); l-- > 0;) {
            std::size_t out = m.midLevels.size() - 1 - l;
            result.midLevels[out].merge(m.midLevels[l]->cache.stats);
            result.midBuffers[out].merge(m.midBuffers[l]->stats);
        }
        result.l1Buffer.merge(m.l1Buffer->stats);
        result.memory.merge(m.memory->stats);
        if (m.tlb)
            result.tlb.merge(m.tlb->stats);
        result.missPenaltyCycles.merge(m.missPenalty);
        result.stallReadCycles += m.stallRead;
        result.stallWriteCycles += m.stallWrite;
        result.stallTlbCycles += m.stallTlb;
    };

    for (;;) {
        // Two refs of lookahead so couplets form across chunk
        // boundaries exactly as they would in a materialized walk.
        ensure(2);
        if (head >= buffered)
            break;

        // Measurement state is decided at issue-group granularity,
        // matching System::run.
        std::size_t p = consumed;
        while (seg_idx < segments.size() && p >= segments[seg_idx].end)
            ++seg_idx;
        bool want = p >= warm_start &&
                    (seg_idx >= segments.size() ||
                     p < segments[seg_idx].begin);
        if (want != measuring) {
            if (want) {
                m.resetStats();
                seg_start = now;
            } else {
                fold();
            }
            measuring = want;
        }

        // Form one issue group: an ifetch, optionally coupled with
        // the immediately following data reference.
        Ref ifetch;
        Ref data;
        bool has_ifetch = false;
        bool has_data = false;
        if (buf[head].kind == RefKind::IFetch) {
            ifetch = buf[head];
            has_ifetch = true;
            ++head;
            ++consumed;
            if (pair && head < buffered && isData(buf[head].kind)) {
                data = buf[head];
                has_data = true;
                ++head;
                ++consumed;
            }
        } else {
            data = buf[head];
            has_data = true;
            ++head;
            ++consumed;
        }

        Tick done = now;
        if (has_ifetch) {
            OCacheModel &iside =
                m.cfg.split ? *m.icache : *m.dcache;
            Tick &busy = m.cfg.split ? m.iBusy : m.dBusy;
            done = std::max(done,
                            m.readAccess(iside, busy, ifetch, now));
        }
        if (has_data) {
            Tick d = data.kind == RefKind::Store
                         ? m.writeAccess(*m.dcache, m.dBusy, data,
                                         now)
                         : m.readAccess(*m.dcache, m.dBusy, data,
                                        now);
            done = std::max(done, d);
        }
        now = done;

        if (measuring) {
            ++result.groups;
            if (has_ifetch) {
                ++result.refs;
                ++result.readRefs;
            }
            if (has_data) {
                ++result.refs;
                if (data.kind == RefKind::Store)
                    ++result.writeRefs;
                else
                    ++result.readRefs;
            }
        }
    }
    if (measuring)
        fold();

    return result;
}

} // namespace verify
} // namespace cachetime
