#include "memory/tlb.hh"

#include "stats/stats.hh"
#include "trace_debug/trace_debug.hh"
#include "util/logging.hh"
#include "util/mathutil.hh"
#include "util/serialize.hh"

namespace cachetime
{

void
TlbStats::regStats(stats::Registry &registry,
                   const std::string &prefix) const
{
    stats::regFields(registry, prefix, *this);
    registry.addFormula(prefix + ".missRatio",
                        "misses / translations",
                        [this] { return missRatio(); });
}

void
TlbConfig::validate() const
{
    if (entries == 0 || !isPowerOfTwo(entries))
        fatal("tlb: entries (%u) must be a nonzero power of two",
              entries);
    if (assoc == 0 || assoc > entries || entries % assoc != 0)
        fatal("tlb: assoc (%u) must divide entries (%u)", assoc,
              entries);
    if (pageWords == 0 || !isPowerOfTwo(pageWords))
        fatal("tlb: pageWords must be a nonzero power of two");
    if (physFrames == 0)
        fatal("tlb: physFrames must be nonzero");
}

Tlb::Tlb(const TlbConfig &config) : config_(config)
{
    config_.validate();
    numSets_ = config_.entries / config_.assoc;
    entries_.resize(config_.entries);
}

std::uint64_t
Tlb::frameOf(std::uint64_t vpage, Pid pid) const
{
    // A deterministic stand-in for the OS frame allocator: well
    // mixed, so physical placement decorrelates the virtual layout.
    std::uint64_t h = vpage * 0x9e3779b97f4a7c15ULL +
                      (static_cast<std::uint64_t>(pid) + 1) *
                          0xc2b2ae3d27d4eb4fULL;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    return h % config_.physFrames;
}

Tlb::Translation
Tlb::translate(Addr vaddr, Pid pid)
{
    ++seq_;
    ++stats_.accesses;
    std::uint64_t vpage = vaddr / config_.pageWords;
    Addr offset = vaddr % config_.pageWords;
    std::uint64_t set = vpage & (numSets_ - 1);
    Entry *ways = &entries_[set * config_.assoc];

    for (unsigned w = 0; w < config_.assoc; ++w) {
        Entry &entry = ways[w];
        if (entry.valid && entry.vpage == vpage &&
            entry.pid == pid) {
            entry.lastUse = seq_;
            return {entry.frame * config_.pageWords + offset, true};
        }
    }

    // Miss: refill, evicting the LRU way.
    ++stats_.misses;
    CACHETIME_TRACE_EVENT(trace_debug::Tlb,
                          "tlb miss vpage=%llx pid=%u",
                          static_cast<unsigned long long>(vpage),
                          static_cast<unsigned>(pid));
    Entry *victim = &ways[0];
    for (unsigned w = 0; w < config_.assoc; ++w) {
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
    victim->lastUse = seq_;
    return {victim->frame * config_.pageWords + offset, false};
}

void
Tlb::flush()
{
    for (Entry &entry : entries_)
        entry.valid = false;
}

void
Tlb::saveState(StateWriter &w) const
{
    w.u64(seq_);
    w.u64(entries_.size());
    for (const Entry &entry : entries_) {
        w.b(entry.valid);
        if (!entry.valid)
            continue;
        w.u64(entry.vpage);
        w.u64(entry.pid);
        w.u64(entry.frame);
        w.u64(entry.lastUse);
    }
}

void
Tlb::loadState(StateReader &r)
{
    seq_ = r.u64();
    std::uint64_t n = r.u64();
    if (n != entries_.size())
        fatal("tlb: checkpoint has %llu entries, this TLB has %zu "
              "(config mismatch)",
              static_cast<unsigned long long>(n), entries_.size());
    for (Entry &entry : entries_) {
        entry.valid = r.b();
        if (!entry.valid) {
            entry = Entry{};
            continue;
        }
        entry.vpage = r.u64();
        entry.pid = static_cast<Pid>(r.u64());
        entry.frame = r.u64();
        entry.lastUse = r.u64();
    }
}

} // namespace cachetime
