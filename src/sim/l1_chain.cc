#include "sim/l1_chain.hh"

#include <bit>

#include "util/logging.hh"

namespace cachetime
{

namespace
{

/**
 * Keys fuse the block address and the pid as (block << kPidBits) |
 * pid, exact while the block is below kFusedLimit; every such key is
 * below 2^63, so neither sentinel can equal one, even with the pid
 * masked out of the compare.
 */
constexpr unsigned kPidBits = 16;
constexpr Addr kFusedLimit = Addr{1} << (63 - kPidBits);
constexpr std::uint64_t kInvalidKey = ~std::uint64_t{0};
constexpr std::uint64_t kWideKey = ~std::uint64_t{0} - 1;

bool
layerEligible(const CacheConfig &cache)
{
    return cache.assoc == 1 && cache.blockWords <= 64 &&
           cache.prefetchPolicy == PrefetchPolicy::None &&
           cache.victimEntries == 0 &&
           cache.effectiveFetchWords() == cache.blockWords;
}

} // namespace

bool
chainEligible(const SystemConfig &config)
{
    if (config.coherent() || config.addressing != AddressMode::Virtual)
        return false;
    if (config.split && !layerEligible(config.icache))
        return false;
    return layerEligible(config.dcache);
}

void
L1Chain::Role::build(const std::vector<const CacheConfig *> &caches)
{
    const CacheConfig &first = *caches.front();
    blockWords = first.blockWords;
    blockShift = static_cast<unsigned>(std::countr_zero(blockWords));
    blockMask = blockWords - 1;
    keyMask = first.virtualTags
                  ? ~std::uint64_t{0}
                  : ~((std::uint64_t{1} << kPidBits) - 1);
    writeBack = first.writePolicy == WritePolicy::WriteBack;
    writeAllocate = first.allocPolicy == AllocPolicy::WriteAllocate;
    layers.resize(caches.size());
    for (std::size_t k = 0; k < caches.size(); ++k) {
        Layer &layer = layers[k];
        const std::uint64_t sets = caches[k]->numSets();
        if (k > 0 && sets < layers[k - 1].setMask + 1)
            panic("L1Chain: layer %zu is smaller than the one below", k);
        layer.setMask = sets - 1;
        layer.lines.assign(sets, Line{kInvalidKey, 0});
    }
}

L1Chain::L1Chain(const std::vector<const SystemConfig *> &layers)
    : layerCount_(static_cast<unsigned>(layers.size()))
{
    if (layers.empty() || layerCount_ > FrontLog::kMaxLayers)
        panic("L1Chain: %zu layers (1..%u allowed)", layers.size(),
              FrontLog::kMaxLayers);
    std::vector<const CacheConfig *> icaches, dcaches;
    for (const SystemConfig *config : layers) {
        if (!chainEligible(*config))
            panic("L1Chain: a layer's L1 is not chain-eligible");
        icaches.push_back(&config->icache);
        dcaches.push_back(&config->dcache);
    }
    if (layers.front()->split)
        iside_.build(icaches);
    dside_.build(dcaches);
}

unsigned
L1Chain::find(const Role &role, Addr block, Pid pid) const
{
    const Layer *layer = role.layers.data();
    unsigned depth = 0;
    if (block < kFusedLimit) [[likely]] {
        const std::uint64_t key = (block << kPidBits) | pid;
        for (; depth < layerCount_; ++depth) {
            const Layer &at = layer[depth];
            const Line &line = at.lines[block & at.setMask];
            if (((line.key ^ key) & role.keyMask) == 0)
                break;
        }
        return depth;
    }
    for (; depth < layerCount_; ++depth) {
        const std::uint64_t set = block & layer[depth].setMask;
        if (layer[depth].lines[set].key != kWideKey)
            continue;
        const WideTag &tag = layer[depth].wide.at(set);
        if (tag.block == block &&
            ((std::uint64_t{tag.pid} ^ pid) & role.keyMask) == 0)
            break;
    }
    return depth;
}

void
L1Chain::allocate(Role &role, unsigned depth, Addr block, Pid pid,
                  unsigned offset, AccessOutcome **records)
{
    const bool wide = block >= kFusedLimit;
    const std::uint64_t key =
        wide ? kWideKey : (block << kPidBits) | pid;
    for (unsigned k = 0; k < depth; ++k) {
        Layer &layer = role.layers[k];
        const std::uint64_t set = block & layer.setMask;
        Line &line = layer.lines[set];
        AccessOutcome &out = *records[k]++;
        out = AccessOutcome();
        out.filled = true;
        out.fetchedWords = role.blockWords;
        out.fetchAddr = block << role.blockShift;
        out.fetchCriticalOffset = offset;
        if (line.key != kInvalidKey) {
            Addr victim;
            Pid victim_pid;
            if (line.key == kWideKey) {
                const WideTag &tag = layer.wide.at(set);
                victim = tag.block;
                victim_pid = tag.pid;
            } else {
                victim = line.key >> kPidBits;
                victim_pid = static_cast<Pid>(line.key);
            }
            const std::uint64_t dirty = line.dirty;
            const unsigned dirty_words =
                static_cast<unsigned>(std::popcount(dirty));
            out.victimValid = true;
            out.victimDirty = dirty != 0;
            out.victimDirtyWords = dirty_words;
            out.victimBlockAddr = victim << role.blockShift;
            out.victimPid = victim_pid;
            ++layer.counters.blocksReplaced;
            if (dirty != 0) {
                ++layer.counters.dirtyBlocksReplaced;
                layer.counters.dirtyWordsReplaced += dirty_words;
                // The victim is still resident one layer up
                // (inclusion): its dirty words move there.
                if (k + 1 < layerCount_) {
                    Layer &up = role.layers[k + 1];
                    up.lines[victim & up.setMask].dirty |= dirty;
                }
            }
        }
        line = {key, 0};
        if (wide)
            layer.wide[set] = {block, pid};
    }
}

template <bool Pair, bool Split>
void
L1Chain::walk(const Ref *refs, std::size_t n, FrontLog &log)
{
    log.reserve(n, false, 1);
    Role &iside = Split ? iside_ : dside_;
    Role &dside = dside_;
    AccessOutcome *records[FrontLog::kMaxLayers];
    for (unsigned k = 0; k < layerCount_; ++k)
        records[k] = log.layers[k].records.data();
    std::uint8_t *kinds = log.kinds.data();
    RunCutter<Pair> cutter(log);

    for (std::size_t i = 0; i < n; ++i) {
        const Ref &ref = refs[i];
        unsigned depth;
        if (ref.kind == RefKind::Store) {
            ++dside.writes;
            const Addr block = ref.addr >> dside.blockShift;
            depth = find(dside, block, ref.pid);
            if (depth != 0) [[unlikely]] {
                for (unsigned k = 0; k < depth; ++k)
                    ++dside.layers[k].counters.writeMisses;
                if (dside.writeAllocate) {
                    allocate(dside, depth, block, ref.pid,
                             static_cast<unsigned>(ref.addr &
                                                   dside.blockMask),
                             records);
                } else {
                    // The word goes down; nothing is allocated.
                    for (unsigned k = 0; k < depth; ++k)
                        *records[k]++ = AccessOutcome();
                }
            }
            // The smallest layer holding the block after the store
            // takes its dirty bit.
            const unsigned holder = dside.writeAllocate ? 0 : depth;
            if (dside.writeBack && holder < layerCount_) {
                Layer &layer = dside.layers[holder];
                layer.lines[block & layer.setMask].dirty |=
                    std::uint64_t{1} << (ref.addr & dside.blockMask);
            }
        } else {
            Role &role = ref.kind == RefKind::IFetch ? iside : dside;
            ++role.reads;
            const Addr block = ref.addr >> role.blockShift;
            depth = find(role, block, ref.pid);
            if (depth != 0) [[unlikely]] {
                for (unsigned k = 0; k < depth; ++k)
                    ++role.layers[k].counters.readMisses;
                allocate(role, depth, block, ref.pid,
                         static_cast<unsigned>(ref.addr & role.blockMask),
                         records);
            }
        }
        kinds[i] = static_cast<std::uint8_t>(depth);
        cutter.add(static_cast<std::uint32_t>(i), ref.kind, depth);
    }
    cutter.finish(static_cast<std::uint32_t>(n));
}

template void L1Chain::walk<false, false>(const Ref *, std::size_t,
                                          FrontLog &);
template void L1Chain::walk<false, true>(const Ref *, std::size_t,
                                         FrontLog &);
template void L1Chain::walk<true, true>(const Ref *, std::size_t,
                                        FrontLog &);

CacheStats
L1Chain::stats(bool iside, unsigned layer) const
{
    const Role &role = iside && !iside_.layers.empty() ? iside_ : dside_;
    const Counters &c = role.layers[layer].counters;
    CacheStats s;
    s.readAccesses = role.reads;
    s.readMisses = c.readMisses;
    s.writeAccesses = role.writes;
    s.writeMisses = c.writeMisses;
    s.fills = c.readMisses + (role.writeAllocate ? c.writeMisses : 0);
    s.wordsFetched = s.fills * role.blockWords;
    s.blocksReplaced = c.blocksReplaced;
    s.dirtyBlocksReplaced = c.dirtyBlocksReplaced;
    s.dirtyWordsReplaced = c.dirtyWordsReplaced;
    // A write-through store always goes down; a write-back one only
    // when it misses without allocating.
    s.wordsWrittenThrough =
        !role.writeBack ? role.writes
                        : role.writeAllocate ? 0 : c.writeMisses;
    return s;
}

void
L1Chain::resetStats()
{
    for (Role *role : {&iside_, &dside_}) {
        role->reads = 0;
        role->writes = 0;
        for (Layer &layer : role->layers)
            layer.counters = Counters{};
    }
}

} // namespace cachetime
