#include "core/sweep.hh"

#include <algorithm>
#include <map>
#include <string>

#include "core/sim_cache.hh"
#include "sim/coherent.hh"
#include "stats/progress.hh"
#include "stats/trace_event.hh"
#include "trace/ref_source.hh" // mix64

namespace cachetime
{

namespace
{

/** Per-line cost of the SoA cache arrays (keys + flags + cold Line). */
constexpr std::size_t bytesPerLine = 80;
/** Per-line cost of a chain layer (fused key + dirty mask). */
constexpr std::size_t chainBytesPerLine = 16;

std::size_t
cacheFootprintBytes(const CacheConfig &config, std::size_t per_line)
{
    std::size_t lines =
        config.blockWords ? config.sizeWords / config.blockWords : 0;
    return lines * per_line + config.victimEntries * per_line +
           4096; // allocator slack and the object itself
}

/**
 * @return @p indices (into @p configs) grouped by chainKey(): groups
 * in order of first appearance, members by ascending L1D then L1I
 * size, and in their given order at equal sizes.
 */
std::vector<std::vector<std::size_t>>
chainGroups(const std::vector<SystemConfig> &configs,
            const std::vector<std::size_t> &indices)
{
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t>
        group_of;
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i : indices) {
        SimKey key = chainKey(configs[i]);
        auto [it, fresh] =
            group_of.try_emplace({key.lo, key.hi}, groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    for (std::vector<std::size_t> &group : groups) {
        std::stable_sort(group.begin(), group.end(),
                         [&](std::size_t a, std::size_t b) {
                             const SystemConfig &x = configs[a];
                             const SystemConfig &y = configs[b];
                             return std::pair(x.dcache.sizeWords,
                                              x.icache.sizeWords) <
                                    std::pair(y.dcache.sizeWords,
                                              y.icache.sizeWords);
                         });
    }
    return groups;
}

/** The machines of a batch that share one L1 front, lead first. */
struct FrontGroup
{
    bool chain; ///< an inclusion-chain front, else a Cache-backed one
    std::vector<std::size_t> members;
};

/**
 * @return @p indices (into @p configs) cut into front groups: a
 * chainKey() group of chainEligible() configs becomes chains, cut
 * where the L1I size would decrease or a chain would exceed
 * FrontLog::kMaxLayers sizes; any other chainKey() group is one
 * lockstep group.
 */
std::vector<FrontGroup>
frontGroups(const std::vector<SystemConfig> &configs,
            const std::vector<std::size_t> &indices)
{
    std::vector<FrontGroup> fronts;
    for (const std::vector<std::size_t> &group :
         chainGroups(configs, indices)) {
        const bool chain = chainEligible(configs[group.front()]);
        unsigned layers = 0;
        for (std::size_t k = 0; k < group.size(); ++k) {
            const SystemConfig &config = configs[group[k]];
            bool fresh = k == 0;
            if (chain && k != 0) {
                const SystemConfig &prev = configs[group[k - 1]];
                const bool same =
                    prev.dcache.sizeWords == config.dcache.sizeWords &&
                    (!config.split ||
                     prev.icache.sizeWords == config.icache.sizeWords);
                layers += !same;
                fresh = (config.split &&
                         config.icache.sizeWords < prev.icache.sizeWords) ||
                        layers == FrontLog::kMaxLayers;
            }
            if (fresh) {
                fronts.push_back({chain, {}});
                layers = 0;
            }
            fronts.back().members.push_back(group[k]);
        }
    }
    return fronts;
}

} // namespace

std::size_t
frontFootprintBytes(const SystemConfig &config)
{
    const std::size_t per_line =
        chainEligible(config) ? chainBytesPerLine : bytesPerLine;
    std::size_t bytes = cacheFootprintBytes(config.dcache, per_line);
    if (config.split)
        bytes += cacheFootprintBytes(config.icache, per_line);
    return bytes;
}

std::size_t
configFootprintBytes(const SystemConfig &config)
{
    std::size_t bytes = 64 * 1024; // CPU, buffers, TLB, result
    bytes += frontFootprintBytes(config);
    for (const SystemConfig::MidLevelConfig &mid :
         config.resolvedMidLevels())
        bytes += cacheFootprintBytes(mid.cache, bytesPerLine);
    return bytes;
}

SimKey
lockstepKey(const SystemConfig &config)
{
    if (config.coherent())
        return simKey(config, 0);
    SimKey key = warmStateKey(config);
    if (config.split && config.cpu.pairIssue)
        key.lo = mix64(key.lo ^ 0x70616972ULL); // "pair"
    return key;
}

SimKey
chainKey(const SystemConfig &config)
{
    if (!chainEligible(config))
        return lockstepKey(config);
    SystemConfig unsized = config;
    unsized.icache.sizeWords = 0;
    unsized.dcache.sizeWords = 0;
    SimKey key = lockstepKey(unsized);
    key.lo = mix64(key.lo ^ 0x636861696eULL); // "chain"
    return key;
}

std::vector<std::size_t>
lockstepOrder(const std::vector<SystemConfig> &configs,
              const std::vector<std::size_t> &indices)
{
    std::vector<std::size_t> order;
    order.reserve(indices.size());
    for (const std::vector<std::size_t> &group :
         chainGroups(configs, indices))
        order.insert(order.end(), group.begin(), group.end());
    return order;
}

std::vector<SimResult>
simulateBatch(const std::vector<SystemConfig> &configs,
              RefSource &source)
{
    std::vector<SimResult> out;
    if (configs.empty())
        return out;

    trace_event::Span batchSpan(
        trace_event::Cat::Sweep,
        "batch n=" + std::to_string(configs.size()) +
            " trace=" + source.name());

    // The per-config machine state is a contiguous arena: one
    // vector<System>, each machine's cache arrays allocated
    // back-to-back at construction.  Coherent configs ride the same
    // feeder through their own engine (their resumable interface is
    // span-split-invariant like System's), kept in a side vector so
    // the classic machines stay contiguous.
    std::vector<System> systems;
    std::vector<std::unique_ptr<CoherentSystem>> coherents;
    struct Slot
    {
        bool coherent;
        std::size_t index;
    };
    std::vector<Slot> slots;
    slots.reserve(configs.size());
    std::vector<std::size_t> classic;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const SystemConfig &config = configs[i];
        if (config.coherent()) {
            slots.push_back({true, coherents.size()});
            coherents.push_back(
                std::make_unique<CoherentSystem>(config));
        } else {
            slots.push_back({false, systems.size()});
            systems.emplace_back(config);
            classic.push_back(i);
        }
    }

    // Machines that differ only in timing share one L1 front, and
    // chain-eligible ones that also differ in L1 size share a chain
    // front: the first of each group builds it and probes every span
    // once; the others allocate no L1 state and replay its log.
    const std::vector<FrontGroup> fronts = frontGroups(configs, classic);
    std::vector<std::vector<System *>> groups;
    for (const FrontGroup &front : fronts) {
        groups.emplace_back();
        for (std::size_t i : front.members)
            groups.back().push_back(&systems[slots[i].index]);
    }

    // One decode, many replays: every span the feeder produces is
    // fed to each machine before the next span is pulled, so stream
    // I/O and synthetic generation are paid once per span however
    // wide the batch is.  The pipelined feeder moves that decode
    // off-thread when threads are available (file-backed sources
    // only; resident streams are consumed zero-copy), producing the
    // same span sequence byte for byte.
    PipelinedFeeder feeder(source);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const std::vector<System *> &group = groups[g];
        if (fronts[g].chain) {
            System::beginChain(group.data(), group.size(), source);
            continue;
        }
        for (System *system : group)
            system->beginRun(source, system == group[0] ? nullptr
                                                        : group[0]);
    }
    for (auto &coherent : coherents)
        coherent->beginRun(source);
    ProgressMeter *meter = progress::global();
    while (ChunkFeeder::Span span = feeder.next()) {
        for (const std::vector<System *> &group : groups)
            System::feedGroup(group.data(), group.size(), span.data,
                              span.size);
        for (auto &coherent : coherents)
            coherent->feedChunk(span.data, span.size);
        if (meter)
            meter->bump(span.size * configs.size());
    }

    out.reserve(configs.size());
    for (const Slot &slot : slots) {
        out.push_back(slot.coherent
                          ? coherents[slot.index]->endRun()
                          : systems[slot.index].endRun());
    }
    return out;
}

std::vector<std::shared_ptr<const SimResult>>
simulateSourceCachedMany(const std::vector<SystemConfig> &configs,
                         RefSource &source,
                         const BatchOptions &options)
{
    using SimResultPtr = std::shared_ptr<const SimResult>;
    std::vector<SimResultPtr> out(configs.size());

    SimCache &cache = SimCache::global();
    std::uint64_t hash = 0;
    std::vector<std::size_t> missing;
    missing.reserve(configs.size());
    if (cache.enabled()) {
        hash = source.contentHash();
        for (std::size_t i = 0; i < configs.size(); ++i) {
            if (SimResultPtr hit = cache.find(simKey(configs[i], hash)))
                out[i] = hit;
            else
                missing.push_back(i);
        }
    } else {
        for (std::size_t i = 0; i < configs.size(); ++i)
            missing.push_back(i);
    }

    missing = lockstepOrder(configs, missing);
    const std::size_t max_batch = options.maxBatch ? options.maxBatch : 1;
    std::size_t at = 0;
    while (at < missing.size()) {
        std::vector<SystemConfig> batch;
        std::vector<SimKey> keys;
        std::size_t bytes = 0;
        std::size_t end = at;
        while (end < missing.size() && batch.size() < max_batch) {
            const SystemConfig &config = configs[missing[end]];
            SimKey key = lockstepKey(config);
            std::size_t foot = configFootprintBytes(config);
            // A lockstep follower shares its group's L1 arrays.
            if (!config.coherent() &&
                std::find(keys.begin(), keys.end(), key) != keys.end())
                foot -= frontFootprintBytes(config);
            if (!batch.empty() && bytes + foot > options.memoryBudgetBytes)
                break;
            bytes += foot;
            batch.push_back(config);
            keys.push_back(key);
            ++end;
        }

        std::vector<SimResult> results;
        {
            trace_event::Span span(
                trace_event::Cat::Sweep,
                "sub-batch [" + std::to_string(at) + "," +
                    std::to_string(end) + ") of " +
                    std::to_string(missing.size()) + " missing");
            results = simulateBatch(batch, source);
        }
        for (std::size_t k = 0; k < results.size(); ++k) {
            std::size_t i = missing[at + k];
            auto result = std::make_shared<const SimResult>(
                std::move(results[k]));
            if (cache.enabled())
                cache.insert(simKey(configs[i], hash), result);
            out[i] = std::move(result);
        }
        at = end;
    }
    return out;
}

} // namespace cachetime
