#include "core/stack_sim.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <memory>
#include <tuple>
#include <unordered_map>

#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "core/sweep.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace cachetime
{

namespace
{

unsigned
log2u(std::uint64_t value)
{
    unsigned shift = 0;
    while ((std::uint64_t{1} << shift) < value)
        ++shift;
    return shift;
}

/** One block tracked by a set's master list. */
struct Entry
{
    Addr block = 0;
    Pid pid = 0;
    /** Minimum associativity at which the block is resident. */
    std::uint32_t aStar = 0;
};

/**
 * The organizational identity of one stack layer.  Configs mapping
 * to equal keys share state: the level-A contents depend only on
 * these fields and the reference stream (write policy never enters -
 * it changes traffic, not residence or recency).
 */
struct LayerKey
{
    bool iside = false; ///< fed by ifetches (split machines only)
    unsigned blockShift = 0;
    std::uint64_t sets = 0;
    bool pidInTag = true;
    /** Store-miss behaviour; normalized on the I side (no stores). */
    AllocPolicy alloc = AllocPolicy::NoWriteAllocate;

    bool operator==(const LayerKey &) const = default;
};

/**
 * Direct-mapped probe keys fuse the block address and the pid as
 * (block << kPidBits) | pid, which is exact while the block address
 * is below kFusedLimit.  Every fused key is then below 2^63, so the
 * two sentinels can never equal one: kInvalidKey marks an empty set,
 * kWideKey a set holding a block at or above the limit, whose exact
 * tag sits in the layer's `wide` map (the same layout the production
 * cache uses for its kTagLimit/kWideKey lines).
 */
constexpr unsigned kPidBits = 16;
constexpr Addr kFusedLimit = Addr{1} << (63 - kPidBits);
constexpr std::uint64_t kInvalidKey = ~std::uint64_t{0};
constexpr std::uint64_t kWideKey = ~std::uint64_t{0} - 1;

/** Exact tag of a direct-mapped set holding a too-wide block. */
struct WideTag
{
    Addr block = 0;
    Pid pid = 0;

    bool operator==(const WideTag &) const = default;
};

/**
 * Per-set master lists + reuse histograms for one layer (or, in the
 * sharded pass, for one shard's slice of one layer).
 *
 * A shard owns every set whose index contains its shard id in bits
 * [shardPos, shardPos + shardBits): finalize() then sizes the
 * arrays for the slice (sets >> shardBits of them) and localSet()
 * compacts a full set index to a slice index by deleting the shard
 * bits.  The serial pass is the shardBits = 0 special case, where
 * localSet() is the identity.
 */
struct Layer
{
    LayerKey key;
    unsigned maxA = 0; ///< deepest associativity tracked

    unsigned blockShift = 0;
    std::uint64_t setMask = 0;
    Pid pidMask = 0;
    bool noWriteAllocate = false;
    unsigned shardBits = 0;      ///< set-index bits owned pass-wide
    std::uint64_t lowMask = 0;   ///< set bits below the shard bits

    /** sets x maxA entry slots; set s owns [s*maxA, s*maxA+len[s]). */
    std::vector<Entry> slots;
    std::vector<std::uint32_t> len;

    /**
     * Direct-mapped (maxA == 1) layers - the whole paper-default
     * grid - skip the master lists: one fused probe key per set
     * (kInvalidKey when empty), walked by the chain kernel
     * (DirectChain), with the cold exact tags of wide blocks in
     * `wide`, keyed by slice set index.
     */
    std::vector<std::uint64_t> tags;
    std::unordered_map<std::uint64_t, WideTag> wide;

    /**
     * Reuse-level histograms, indexed by k = a-star at access time
     * (maxA+1 = absent): an access hits exactly the levels >= k, so
     * misses(A) is the histogram mass above A.  Only measured
     * accesses are recorded; state always advances.  Direct-mapped
     * layers get theirs folded from the chain histograms after the
     * pass (foldChains).
     */
    std::vector<std::uint64_t> histRead;
    std::vector<std::uint64_t> histWrite;

    /** @return the slice index of full set index @p set. */
    std::size_t
    localSet(std::uint64_t set) const
    {
        // Delete bits [shardPos, shardPos + shardBits): the high
        // part shifts down over them, the low part stays put.  The
        // shifted-down shard bits land below shardPos and are
        // cleared by ~lowMask.
        return static_cast<std::size_t>(
            ((set >> shardBits) & ~lowMask) | (set & lowMask));
    }

    /**
     * Allocate state for this layer's slice of the set space.
     * @param shard_pos  position of the shard bits within this
     *                   layer's set index
     * @param shard_bits pass-wide shard bit count (0 = serial)
     */
    void
    finalize(unsigned shard_pos = 0, unsigned shard_bits = 0)
    {
        blockShift = key.blockShift;
        setMask = key.sets - 1;
        pidMask = key.pidInTag ? static_cast<Pid>(~Pid{0}) : Pid{0};
        noWriteAllocate = key.alloc == AllocPolicy::NoWriteAllocate;
        shardBits = shard_bits;
        lowMask = (std::uint64_t{1} << shard_pos) - 1;
        const std::uint64_t local_sets = key.sets >> shard_bits;
        if (maxA == 1) {
            tags.assign(local_sets, kInvalidKey);
        } else {
            slots.resize(local_sets * maxA);
            len.assign(local_sets, 0);
        }
        histRead.assign(maxA + 2, 0);
        histWrite.assign(maxA + 2, 0);
    }

    void touch(Addr addr, Pid pid, bool write, bool measuring);
};

void
Layer::touch(Addr addr, Pid pid, bool write, bool measuring)
{
    const Addr block = addr >> blockShift;
    const Pid p = static_cast<Pid>(pid & pidMask);
    const std::size_t set = localSet(block & setMask);
    Entry *list = slots.data() + set * maxA;
    std::uint32_t n = len[set];

    std::uint32_t i = n;
    for (std::uint32_t j = 0; j < n; ++j) {
        if (list[j].block == block && list[j].pid == p) {
            i = j;
            break;
        }
    }
    const bool found = i < n;
    const std::uint32_t k = found ? list[i].aStar : maxA + 1;
    if (measuring)
        (write ? histWrite : histRead)[k] += 1;

    if (write && noWriteAllocate) {
        // Hit for levels >= k: recency updates there, and moving X
        // to the front of M reorders exactly the lists X belongs
        // to.  Levels < k miss without allocating - no state change,
        // a-star untouched.  A full miss changes nothing at all.
        if (found && i > 0) {
            Entry x = list[i];
            std::memmove(list + 1, list, i * sizeof(Entry));
            list[0] = x;
        }
        return;
    }

    // Allocating touch (read, or store under write-allocate): X
    // becomes resident at every level.  Each full level below X's
    // old a-star evicts its LRU member - the last entry in M order
    // with a-star <= A - whose a-star bumps to A+1.  Ascending order
    // matters: a victim pushed to level A+1 is immediately a
    // candidate there.
    const std::uint32_t cascade = std::min(k - 1, maxA);
    for (std::uint32_t A = 1; A <= cascade; ++A) {
        std::uint32_t count = 0;
        std::uint32_t victim = n;
        for (std::uint32_t j = 0; j < n; ++j) {
            if (found && j == i)
                continue;
            if (list[j].aStar <= A) {
                ++count;
                victim = j;
            }
        }
        if (count < A)
            continue;
        if (A == maxA) {
            // Evicted from the deepest tracked level.  Only an
            // absent X cascades this far (found implies k <= maxA,
            // capping the cascade at k-1 < maxA), and every live
            // entry has a-star <= maxA, so the victim is the
            // physically last entry.
            --n;
        } else {
            list[victim].aStar = A + 1;
        }
    }

    if (found) {
        Entry x = list[i];
        x.aStar = 1;
        std::memmove(list + 1, list, i * sizeof(Entry));
        list[0] = x;
    } else {
        std::memmove(list + 1, list, n * sizeof(Entry));
        list[0] = Entry{block, p, 1};
        ++n;
    }
    len[set] = n;
}

bool
l1Eligible(const CacheConfig &config)
{
    return config.prefetchPolicy == PrefetchPolicy::None &&
           config.victimEntries == 0 &&
           (config.fetchWords == 0 ||
            config.fetchWords == config.blockWords) &&
           (config.replPolicy == ReplPolicy::LRU || config.assoc == 1);
}

/** Key for memoized counter-only results, disjoint from simKey's. */
SimKey
missRatioKey(const SystemConfig &config, std::uint64_t trace_hash)
{
    SimKey key = simKey(config, trace_hash);
    key.lo = mix64(key.lo ^ 0x6d697373726b6579ULL); // "missrkey"
    key.hi = mix64(key.hi ^ 0x737461636b73696dULL); // "stacksim"
    return key;
}

/** One config's L1 role mapped onto a shared layer. */
struct RolePlan
{
    std::size_t layer = 0;
    unsigned assoc = 0;
};

/** One direct-mapped layer as the chain walk sees it. */
struct DirectView
{
    std::uint64_t setMask; ///< slice set count - 1
    std::uint64_t *tags;
    Layer *layer;          ///< wide tags and the post-pass fold
};

/**
 * The direct-mapped layers of one role that share block size, tag
 * regime and allocation policy, in ascending set count.  By
 * set-refinement inclusion (stack_sim.hh) a block resident in one
 * of them is resident in every later one, so a reference walks the
 * chain from the smallest layer, allocating where allowed, and stops
 * at its first hit.  hist[h] counts the measured references whose
 * first hit was view begin + h; h = end - begin means no layer hit.
 */
struct DirectChain
{
    unsigned blockShift;
    std::uint64_t pidMask;
    bool noWriteAllocate;
    unsigned shardBits;
    std::uint64_t lowMask; ///< block bits below the shard bits
    std::uint32_t begin;   ///< first view index
    std::uint32_t end;     ///< one past the last view index
    std::vector<std::uint64_t> histRead;
    std::vector<std::uint64_t> histWrite;
};

/** One role's layers: direct-mapped chains and deep master lists. */
struct RoleViews
{
    std::vector<DirectView> direct;
    std::vector<DirectChain> chains;
    std::vector<Layer *> deep;
};

/** The routed layer views of one pass (or of one shard's slice). */
struct LayerViews
{
    RoleViews ifetch, data;
    bool split = false;

    /** A unified L1 serves ifetches from the data-side state. */
    RoleViews &
    role(bool iside)
    {
        return iside && split ? ifetch : data;
    }
};

/** Build the chains and deep views over finalized @p layers. */
LayerViews
buildViews(std::vector<Layer> &layers, bool split)
{
    LayerViews views;
    views.split = split;
    std::array<std::vector<Layer *>, 2> direct; // [iside]
    for (Layer &layer : layers) {
        if (layer.maxA == 1)
            direct[layer.key.iside].push_back(&layer);
        else
            (layer.key.iside ? views.ifetch : views.data)
                .deep.push_back(&layer);
    }
    auto chainOf = [](const Layer *layer) {
        return std::tuple(layer->key.blockShift, layer->key.pidInTag,
                          layer->key.alloc);
    };
    for (bool iside : {false, true}) {
        std::vector<Layer *> &members = direct[iside];
        std::sort(members.begin(), members.end(),
                  [&](const Layer *a, const Layer *b) {
                      return std::tuple(chainOf(a), a->key.sets) <
                             std::tuple(chainOf(b), b->key.sets);
                  });
        RoleViews &role = iside ? views.ifetch : views.data;
        for (std::uint32_t v = 0; v < members.size(); ++v) {
            Layer &layer = *members[v];
            if (v == 0 || chainOf(members[v - 1]) != chainOf(&layer))
                role.chains.push_back({layer.blockShift,
                                       layer.pidMask,
                                       layer.noWriteAllocate,
                                       layer.shardBits,
                                       layer.lowMask,
                                       v,
                                       v,
                                       {},
                                       {}});
            role.direct.push_back(
                {(layer.key.sets >> layer.shardBits) - 1,
                 layer.tags.data(), &layer});
            ++role.chains.back().end;
        }
        for (DirectChain &chain : role.chains) {
            chain.histRead.assign(chain.end - chain.begin + 1, 0);
            chain.histWrite.assign(chain.end - chain.begin + 1, 0);
        }
    }
    return views;
}

/**
 * The chain walk for a block at or above kFusedLimit: the same walk
 * as touchViews' fused loop, with exact (block, pid) compares
 * through each layer's wide map.  @return the first hit's view
 * index, chain.end if none.
 */
std::uint32_t
walkWide(const DirectChain &chain, const std::vector<DirectView> &direct,
         Addr block, std::uint64_t local, Pid pid, bool allocate)
{
    const WideTag tag{block, static_cast<Pid>(pid & chain.pidMask)};
    std::uint32_t v = chain.begin;
    for (; v < chain.end; ++v) {
        const DirectView &view = direct[v];
        const std::uint64_t set = local & view.setMask;
        std::unordered_map<std::uint64_t, WideTag> &wide =
            view.layer->wide;
        if (view.tags[set] == kWideKey && wide.at(set) == tag)
            break;
        if (allocate) {
            view.tags[set] = kWideKey;
            wide[set] = tag;
        }
    }
    return v;
}

/**
 * Apply one reference to every layer of a role.  Sharded
 * instantiations compact set indices to the owning shard's slice;
 * the serial kernel instantiates with Sharded = false and pays no
 * remap arithmetic at all.
 */
template <bool Sharded>
void
touchViews(RoleViews &role, Addr addr, Pid pid, bool write,
           std::uint64_t measured)
{
    for (DirectChain &chain : role.chains) {
        const Addr block = addr >> chain.blockShift;
        // Deleting the shard bits from the block address compacts
        // every set index of the chain at once (Layer::localSet).
        std::uint64_t local = block;
        if constexpr (Sharded)
            local = ((block >> chain.shardBits) & ~chain.lowMask) |
                    (block & chain.lowMask);
        // A no-write-allocate store changes no direct-mapped state:
        // a hit reorders nothing at A = 1, a miss allocates nothing.
        const bool allocate = !(write && chain.noWriteAllocate);
        std::uint32_t v = chain.begin;
        if (block < kFusedLimit) [[likely]] {
            const std::uint64_t key =
                (block << kPidBits) | (pid & chain.pidMask);
            for (; v < chain.end; ++v) {
                std::uint64_t &slot =
                    role.direct[v].tags[local & role.direct[v].setMask];
                if (slot == key)
                    break;
                if (allocate)
                    slot = key;
            }
        } else {
            v = walkWide(chain, role.direct, block, local, pid,
                         allocate);
        }
        (write ? chain.histWrite : chain.histRead)[v - chain.begin] +=
            measured;
    }
    for (Layer *layer : role.deep)
        layer->touch(addr, pid, write, measured != 0);
}

/**
 * Spread @p chain's first-hit histograms onto its layers' reuse
 * histograms: the layer at view v hits exactly the references whose
 * first hit came at or before v.
 */
void
foldChain(const DirectChain &chain, const RoleViews &role)
{
    for (bool write : {false, true}) {
        const std::vector<std::uint64_t> &first =
            write ? chain.histWrite : chain.histRead;
        std::uint64_t total = 0;
        for (std::uint64_t count : first)
            total += count;
        std::uint64_t hits = 0;
        for (std::uint32_t v = chain.begin; v < chain.end; ++v) {
            Layer &layer = *role.direct[v].layer;
            std::vector<std::uint64_t> &hist =
                write ? layer.histWrite : layer.histRead;
            hits += first[v - chain.begin];
            hist[1] = hits;
            hist[2] = total - hits;
        }
    }
}

/** Fold every chain of a pass (or shard) once, after its last ref. */
void
foldChains(const LayerViews &views)
{
    for (const RoleViews *role : {&views.ifetch, &views.data})
        for (const DirectChain &chain : role->chains)
            foldChain(chain, *role);
}

/** Measured access totals of one pass (role-global, by class). */
struct PassCounts
{
    std::uint64_t ifetch = 0;
    std::uint64_t load = 0;
    std::uint64_t store = 0;
    std::uint64_t groups = 0;
};

/**
 * The single pass driver, mirroring the issue-group and
 * measurement-window logic of System's timing pass exactly: the
 * measuring flag is decided at the group's first reference, state
 * always advances, and only measured accesses are counted.  Every
 * reference is handed to @p sink(ref, iside, write, measured) in
 * stream order - the serial kernel touches layers there, the
 * sharded kernel routes into per-shard buffers - so both kernels
 * share one measuring/pairing implementation and cannot drift.
 */
template <typename Sink>
PassCounts
drivePass(RefSource &source, bool pair, Sink &&sink)
{
    const std::vector<WarmSegment> segments = source.warmSegments();
    const std::size_t warm_start = source.warmStart();
    PipelinedFeeder feeder(source);

    PassCounts counts;
    std::size_t consumed = 0;
    std::size_t seg_idx = 0;
    std::size_t boundary = 0;
    bool measuring = false;

    auto stateAt = [&](std::size_t p) -> bool {
        if (p < warm_start) {
            boundary = warm_start;
            return false;
        }
        while (seg_idx < segments.size() && p >= segments[seg_idx].end)
            ++seg_idx;
        if (seg_idx < segments.size() &&
            p >= segments[seg_idx].begin) {
            boundary = segments[seg_idx].end;
            return false;
        }
        boundary = seg_idx < segments.size()
                       ? segments[seg_idx].begin
                       : std::numeric_limits<std::size_t>::max();
        return true;
    };

    while (ChunkFeeder::Span span = feeder.next()) {
        const Ref *buffer = span.data;
        const std::size_t n = span.size;
        std::size_t head = 0;
        while (head < n) {
            if (consumed >= boundary) [[unlikely]]
                measuring = stateAt(consumed);

            const std::uint64_t measured = measuring ? 1 : 0;
            const Ref &first = buffer[head];
            if (first.kind == RefKind::IFetch) {
                sink(first, true, false, measured);
                counts.ifetch += measured;
                ++head;
                ++consumed;
                if (pair && head < n && isData(buffer[head].kind)) {
                    const Ref &data = buffer[head];
                    const bool write = data.kind == RefKind::Store;
                    sink(data, false, write, measured);
                    (write ? counts.store : counts.load) += measured;
                    ++head;
                    ++consumed;
                }
            } else {
                const bool write = first.kind == RefKind::Store;
                sink(first, false, write, measured);
                (write ? counts.store : counts.load) += measured;
                ++head;
                ++consumed;
            }
            counts.groups += measured;
        }
    }
    return counts;
}

/** @return the histogram mass above @p assoc: misses at that A. */
std::uint64_t
missesAbove(const std::vector<std::uint64_t> &hist, unsigned assoc)
{
    std::uint64_t sum = 0;
    for (std::size_t k = assoc + 1; k < hist.size(); ++k)
        sum += hist[k];
    return sum;
}

/**
 * Fill the descriptive fields and role-global measured access
 * counts of every partial result.  Miss counters are accumulated
 * separately (per layer set - once serially, once per shard).
 */
void
fillCommon(std::vector<SimResult> &out,
           const std::vector<SystemConfig> &configs,
           const std::string &trace_name, bool split,
           const PassCounts &counts)
{
    for (std::size_t c = 0; c < out.size(); ++c) {
        SimResult &result = out[c];
        result.traceName = trace_name;
        result.configSummary = configs[c].describe();
        result.cycleNs = configs[c].cycleNs;
        result.refs = counts.ifetch + counts.load + counts.store;
        result.readRefs = counts.ifetch + counts.load;
        result.writeRefs = counts.store;
        result.groups = counts.groups;
        if (split) {
            result.icache.readAccesses = counts.ifetch;
            result.dcache.readAccesses = counts.load;
        } else {
            result.dcache.readAccesses = counts.ifetch + counts.load;
        }
        result.dcache.writeAccesses = counts.store;
    }
}

/**
 * Accumulate the miss counters extracted from @p layers into
 * @p out.  The sharded kernel calls this once per shard in shard
 * order; per-shard extraction then summation is identical to
 * extraction from merged histograms because missesAbove() is linear
 * in the histogram and integer addition is associative - the heart
 * of the bit-identity argument (DESIGN.md section 14).
 */
void
addMissCounters(std::vector<SimResult> &out, bool split,
                const std::vector<RolePlan> &iPlan,
                const std::vector<RolePlan> &dPlan,
                const std::vector<Layer> &layers)
{
    for (std::size_t c = 0; c < out.size(); ++c) {
        SimResult part;
        const Layer &dl = layers[dPlan[c].layer];
        if (split)
            part.icache.readMisses = missesAbove(
                layers[iPlan[c].layer].histRead, iPlan[c].assoc);
        part.dcache.readMisses =
            missesAbove(dl.histRead, dPlan[c].assoc);
        part.dcache.writeMisses =
            missesAbove(dl.histWrite, dPlan[c].assoc);
        out[c].mergeCounters(part);
    }
}

/** Where the pass may split the address space across shards. */
struct ShardPlan
{
    unsigned shift = 0; ///< lowest shared set-index address bit
    unsigned bits = 0;  ///< number of shared set-index bits
};

/**
 * The set-index address bits every layer has in common: bits above
 * the largest block offset and below the smallest set-index top.
 * Any key derived from them partitions every layer's set space
 * consistently, so a shard owns complete sets of all layers at
 * once.
 */
ShardPlan
shardPlanOf(const std::vector<Layer> &layers)
{
    unsigned low = 0;
    unsigned high = ~0u;
    for (const Layer &layer : layers) {
        low = std::max(low, layer.key.blockShift);
        high = std::min(high,
                        layer.key.blockShift + log2u(layer.key.sets));
    }
    ShardPlan plan;
    if (!layers.empty() && high > low) {
        plan.shift = low;
        plan.bits = high - low;
    }
    return plan;
}

/**
 * Every config's L1 roles mapped onto shared layers: what
 * runStackSweep() simulates and stackShardBits() reports on.
 */
struct LatticePlan
{
    std::vector<Layer> layers; ///< keyed, not yet finalized
    std::vector<RolePlan> iPlan, dPlan;
};

LatticePlan
planLattice(const std::vector<SystemConfig> &configs)
{
    LatticePlan plan;
    std::vector<Layer> &layers = plan.layers;
    auto layerFor = [&](const LayerKey &key, unsigned assoc) {
        for (std::size_t l = 0; l < layers.size(); ++l) {
            if (layers[l].key == key) {
                layers[l].maxA = std::max(layers[l].maxA, assoc);
                return l;
            }
        }
        layers.emplace_back();
        layers.back().key = key;
        layers.back().maxA = assoc;
        return layers.size() - 1;
    };

    plan.iPlan.resize(configs.size());
    plan.dPlan.resize(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const SystemConfig &config = configs[c];
        if (config.split) {
            const CacheConfig &ic = config.icache;
            plan.iPlan[c] = {layerFor({true, log2u(ic.blockWords),
                                       ic.numSets(), ic.virtualTags,
                                       AllocPolicy::NoWriteAllocate},
                                      ic.assoc),
                             ic.assoc};
        }
        const CacheConfig &dc = config.dcache;
        plan.dPlan[c] = {layerFor({false, log2u(dc.blockWords),
                                   dc.numSets(), dc.virtualTags,
                                   dc.allocPolicy},
                                  dc.assoc),
                         dc.assoc};
    }
    return plan;
}

// Router meta word: pid in the low 16 bits, then three flags.
constexpr std::uint32_t kRouteWrite = 1u << 16;
constexpr std::uint32_t kRouteIside = 1u << 17;
constexpr unsigned kRouteMeasuredShift = 18;

/** One routed reference: address plus packed pid/flags. */
struct RoutedRef
{
    Addr addr;
    std::uint32_t meta;
};

/** Routed refs buffered between shard dispatches (~4 MB total). */
constexpr std::size_t kRouteBatchRefs = std::size_t{1} << 18;

} // namespace

bool
stackEligible(const SystemConfig &config)
{
    // Coherent runs depend on cross-core invalidation order; no
    // single-pass stack can answer them.
    if (config.coherent())
        return false;
    if (config.addressing != AddressMode::Virtual)
        return false;
    if (config.split && !l1Eligible(config.icache))
        return false;
    return l1Eligible(config.dcache);
}

unsigned
stackShardBits(const std::vector<SystemConfig> &configs)
{
    return shardPlanOf(planLattice(configs).layers).bits;
}

std::vector<SimResult>
runStackSweep(const std::vector<SystemConfig> &configs,
              RefSource &source)
{
    if (configs.empty())
        return {};

    const bool split = configs[0].split;
    const bool pair = split && configs[0].cpu.pairIssue;
    for (const SystemConfig &config : configs) {
        config.validate();
        if (!stackEligible(config))
            fatal("runStackSweep: config is not stack-eligible");
        if (config.split != split ||
            (config.split && config.cpu.pairIssue) != pair)
            fatal("runStackSweep: configs mix issue shapes");
    }

    LatticePlan lattice = planLattice(configs);
    std::vector<Layer> &layers = lattice.layers;

    // Shard only when the pool can host the workers (a sweep already
    // running inside a pool task would serialize anyway) and the
    // grid leaves shared set-index bits to route on.  The shard
    // count overshoots the thread count a little so the
    // self-scheduling pool can balance shards of uneven weight.
    const ShardPlan plan = shardPlanOf(layers);
    unsigned shard_bits = 0;
    if (parallelThreads() > 1 && !parallelInWorker() &&
        plan.bits > 0) {
        shard_bits = std::min(
            {plan.bits, log2u(parallelThreads()) + 2, 6u});
    }

    std::vector<SimResult> out(configs.size());

    if (shard_bits == 0) {
        // Serial kernel: one set of full-width layers, touched
        // directly from the driver.
        for (Layer &layer : layers)
            layer.finalize();
        LayerViews views = buildViews(layers, split);
        PassCounts counts = drivePass(
            source, pair,
            [&](const Ref &ref, bool iside, bool write,
                std::uint64_t measured) {
                touchViews<false>(views.role(iside), ref.addr, ref.pid,
                                  write, measured);
            });
        foldChains(views);
        fillCommon(out, configs, source.name(), split, counts);
        addMissCounters(out, split, lattice.iPlan, lattice.dPlan,
                        layers);
        return out;
    }

    // Sharded kernel: every shard holds its own slice of every
    // layer, the driver routes references by the shared set-index
    // bits into per-shard buffers, and buffered sub-streams are
    // replayed on the pool.  Within a shard the routed order is the
    // stream order and a set's references never split across
    // shards, so each slice's histograms are exactly the serial
    // histograms restricted to its sets; the shard-ordered merge
    // below is then bit-identical to the serial kernel at any
    // thread count.
    const unsigned K = 1u << shard_bits;
    struct Shard
    {
        std::vector<Layer> layers;
        LayerViews views;
        std::vector<RoutedRef> buf;
    };
    std::vector<Shard> shards(K);
    for (Shard &shard : shards) {
        shard.layers.reserve(layers.size());
        for (const Layer &master : layers) {
            shard.layers.emplace_back();
            shard.layers.back().key = master.key;
            shard.layers.back().maxA = master.maxA;
            shard.layers.back().finalize(
                plan.shift - master.key.blockShift, shard_bits);
        }
        shard.views = buildViews(shard.layers, split);
        shard.buf.reserve(2 * kRouteBatchRefs / K + 16);
    }

    auto processShard = [&](Shard &shard) {
        for (const RoutedRef &rr : shard.buf) {
            const Pid pid = static_cast<Pid>(rr.meta & 0xFFFFu);
            const bool write = rr.meta & kRouteWrite;
            const std::uint64_t measured =
                rr.meta >> kRouteMeasuredShift;
            touchViews<true>(shard.views.role(rr.meta & kRouteIside),
                             rr.addr, pid, write, measured);
        }
        shard.buf.clear();
    };

    std::size_t buffered = 0;
    auto flush = [&] {
        parallelFor(K,
                    [&](std::size_t s) { processShard(shards[s]); });
        buffered = 0;
    };

    const std::uint64_t shard_mask = K - 1;
    PassCounts counts = drivePass(
        source, pair,
        [&](const Ref &ref, bool iside, bool write,
            std::uint64_t measured) {
            Shard &shard =
                shards[(ref.addr >> plan.shift) & shard_mask];
            shard.buf.push_back(
                {ref.addr,
                 static_cast<std::uint32_t>(ref.pid) |
                     (write ? kRouteWrite : 0u) |
                     (iside ? kRouteIside : 0u) |
                     (measured
                          ? (1u << kRouteMeasuredShift)
                          : 0u)});
            if (++buffered >= kRouteBatchRefs)
                flush();
        });
    flush();

    fillCommon(out, configs, source.name(), split, counts);
    for (Shard &shard : shards) {
        foldChains(shard.views);
        addMissCounters(out, split, lattice.iPlan, lattice.dPlan,
                        shard.layers);
    }
    return out;
}

std::vector<MissRatioMetrics>
runMissRatioMany(const std::vector<SystemConfig> &configs,
                 const std::vector<Trace> &traces)
{
    using SimResultPtr = std::shared_ptr<const SimResult>;
    if (configs.empty())
        return {};
    if (traces.empty())
        fatal("runMissRatioMany: no traces supplied");

    const std::size_t C = configs.size();
    const std::size_t T = traces.size();

    // Mode selection: stack-eligible configs are grouped by issue
    // shape (the knobs that define measurement windows); the rest
    // fall back to the fused cycle-accurate lattice.
    auto shapeOf = [](const SystemConfig &config) {
        return !config.split ? 0
               : (config.cpu.pairIssue ? 2 : 1);
    };
    std::array<std::vector<std::size_t>, 3> shapes;
    std::vector<std::size_t> fused;
    for (std::size_t c = 0; c < C; ++c) {
        if (stackEligible(configs[c]))
            shapes[static_cast<std::size_t>(shapeOf(configs[c]))]
                .push_back(c);
        else
            fused.push_back(c);
    }

    // One task per (trace, stack group) plus fused sub-batches; the
    // flattening parallelizes sweeps across traces.  With a single
    // stack task the outer parallelFor degrades to a plain call on
    // this thread *without* marking it pool work, so the sharded
    // kernel inside still gets the whole pool - one big pass uses
    // intra-pass parallelism, many passes parallelize across tasks.
    struct SweepTask
    {
        std::size_t trace = 0;
        bool stack = false;
        std::vector<std::size_t> members;
    };
    BatchOptions options;
    std::vector<SweepTask> tasks;
    for (std::size_t t = 0; t < T; ++t) {
        for (const std::vector<std::size_t> &group : shapes) {
            if (!group.empty())
                tasks.push_back({t, true, group});
        }
        for (std::size_t at = 0; at < fused.size();
             at += options.maxBatch) {
            std::size_t end =
                std::min(fused.size(), at + options.maxBatch);
            tasks.push_back(
                {t, false,
                 std::vector<std::size_t>(fused.begin() +
                                              static_cast<std::ptrdiff_t>(at),
                                          fused.begin() +
                                              static_cast<std::ptrdiff_t>(end))});
        }
    }

    if (SimCache::global().enabled()) {
        for (const Trace &trace : traces)
            traceIdentityHash(trace); // memoize before the fan-out
    }

    auto outputs = parallelMap<std::vector<SimResultPtr>>(
        tasks.size(), [&](std::size_t index) {
            const SweepTask &task = tasks[index];
            const Trace &trace = traces[task.trace];
            TraceRefSource source(trace);

            std::vector<SystemConfig> part;
            part.reserve(task.members.size());
            for (std::size_t idx : task.members)
                part.push_back(configs[idx]);

            if (!task.stack)
                return simulateSourceCachedMany(part, source, options);

            // Stack path with memoization: full timing results
            // satisfy a counters-only query, partial results live
            // under their own key; only genuinely missing points
            // join the single-pass sweep.
            SimCache &cache = SimCache::global();
            std::vector<SimResultPtr> out(part.size());
            std::vector<std::size_t> missing;
            std::uint64_t hash = 0;
            if (cache.enabled()) {
                hash = traceIdentityHash(trace);
                for (std::size_t j = 0; j < part.size(); ++j) {
                    if (SimResultPtr hit =
                            cache.find(simKey(part[j], hash)))
                        out[j] = hit;
                    else if (SimResultPtr partial = cache.find(
                                 missRatioKey(part[j], hash)))
                        out[j] = partial;
                    else
                        missing.push_back(j);
                }
            } else {
                missing.resize(part.size());
                for (std::size_t j = 0; j < part.size(); ++j)
                    missing[j] = j;
            }
            if (!missing.empty()) {
                std::vector<SystemConfig> todo;
                todo.reserve(missing.size());
                for (std::size_t j : missing)
                    todo.push_back(part[j]);
                std::vector<SimResult> swept =
                    runStackSweep(todo, source);
                for (std::size_t k = 0; k < swept.size(); ++k) {
                    auto result = std::make_shared<const SimResult>(
                        std::move(swept[k]));
                    if (cache.enabled())
                        cache.insert(missRatioKey(todo[k], hash),
                                     result);
                    out[missing[k]] = std::move(result);
                }
            }
            return out;
        });

    std::vector<SimResultPtr> results(C * T);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        for (std::size_t j = 0; j < tasks[i].members.size(); ++j)
            results[tasks[i].members[j] * T + tasks[i].trace] =
                std::move(outputs[i][j]);
    }

    // Aggregate with exactly runGeoMeanMany's math (same accessors,
    // same trace order, same flooring), so the doubles match the
    // cycle-accurate path bit for bit.
    std::vector<MissRatioMetrics> out(C);
    for (std::size_t c = 0; c < C; ++c) {
        std::vector<double> rmiss, imiss, lmiss, wmiss;
        rmiss.reserve(T);
        for (std::size_t t = 0; t < T; ++t) {
            const SimResultPtr &r = results[c * T + t];
            rmiss.push_back(r->readMissRatio());
            imiss.push_back(r->ifetchMissRatio());
            lmiss.push_back(r->loadMissRatio());
            wmiss.push_back(r->dcache.writeMissRatio());
        }
        out[c].readMissRatio = geoMeanFloored(std::move(rmiss));
        out[c].ifetchMissRatio = geoMeanFloored(std::move(imiss));
        out[c].loadMissRatio = geoMeanFloored(std::move(lmiss));
        out[c].writeMissRatio = geoMeanFloored(std::move(wmiss));
    }
    return out;
}

} // namespace cachetime
