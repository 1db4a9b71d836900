#include "memory/tlb.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "stats/stats.hh"
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
    pageShift_ = ilog2(config_.pageWords);
    pageMask_ = config_.pageWords - 1;
    entries_.resize(config_.entries);
    // Any in-range start is safe: translate() verifies a hinted
    // entry's key before using it.
    const std::uint64_t slots =
        std::uint64_t{config_.entries} * kHintsPerEntry;
    hint_.assign(slots, 0);
    hintShift_ = 64 - ilog2(slots);
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
Tlb::translateSlow(std::uint64_t vpage, Addr offset, Pid pid)
{
    std::uint64_t set = vpage & (numSets_ - 1);
    const std::size_t base = set * config_.assoc;
    Entry *ways = &entries_[base];
    std::uint32_t &hint = hint_[hintSlot(vpage, pid)];

    for (unsigned w = 0; w < config_.assoc; ++w) {
        Entry &entry = ways[w];
        if (entry.valid && entry.vpage == vpage &&
            entry.pid == pid) {
            entry.lastUse = seq_;
            hint = static_cast<std::uint32_t>(base + w);
            return {(entry.frame << pageShift_) | offset, true};
        }
    }

    // Miss: refill, evicting the LRU way.  (The "tlb miss" trace
    // line is emitted by the timing pass that charges the penalty,
    // so it stays in order with the reference's other events.)
    ++stats_.misses;
    unsigned victim = 0;
    for (unsigned w = 0; w < config_.assoc; ++w) {
        if (!ways[w].valid) {
            victim = w;
            break;
        }
        if (ways[w].lastUse < ways[victim].lastUse)
            victim = w;
    }
    Entry &entry = ways[victim];
    entry.valid = true;
    entry.vpage = vpage;
    entry.pid = pid;
    entry.frame = frameOf(vpage, pid);
    entry.lastUse = seq_;
    hint = static_cast<std::uint32_t>(base + victim);
    return {(entry.frame << pageShift_) | offset, false};
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
    // Every entry must sit where translate() can find it, at most
    // once: a duplicate (vpage, pid) would make the hint and the set
    // scan pick different ways.
    std::vector<std::pair<std::uint64_t, Pid>> keys;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        Entry &entry = entries_[i];
        entry.valid = r.b();
        if (!entry.valid) {
            entry = Entry{};
            continue;
        }
        entry.vpage = r.u64();
        std::uint64_t pid = r.u64();
        entry.frame = r.u64();
        entry.lastUse = r.u64();
        if (pid > std::numeric_limits<Pid>::max())
            fatal("tlb: checkpoint entry %zu has pid %llu, wider "
                  "than 16 bits",
                  i, static_cast<unsigned long long>(pid));
        entry.pid = static_cast<Pid>(pid);
        const std::uint64_t set = i / config_.assoc;
        if ((entry.vpage & (numSets_ - 1)) != set)
            fatal("tlb: checkpoint entry %zu holds vpage %llx in set "
                  "%llu; it maps to set %llu",
                  i, static_cast<unsigned long long>(entry.vpage),
                  static_cast<unsigned long long>(set),
                  static_cast<unsigned long long>(entry.vpage &
                                                  (numSets_ - 1)));
        if (entry.frame >= config_.physFrames)
            fatal("tlb: checkpoint entry %zu has frame %llu; "
                  "physFrames is %llu",
                  i, static_cast<unsigned long long>(entry.frame),
                  static_cast<unsigned long long>(config_.physFrames));
        keys.emplace_back(entry.vpage, entry.pid);
    }
    std::sort(keys.begin(), keys.end());
    auto dup = std::adjacent_find(keys.begin(), keys.end());
    if (dup != keys.end())
        fatal("tlb: checkpoint holds vpage %llx pid %u in two ways",
              static_cast<unsigned long long>(dup->first),
              static_cast<unsigned>(dup->second));
}

} // namespace cachetime
