#include "sim/system_config.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>

#include "util/logging.hh"
#include "util/table.hh"

namespace cachetime
{

const char *
addressModeName(AddressMode mode)
{
    switch (mode) {
      case AddressMode::Virtual:
        return "virtual";
      case AddressMode::Physical:
        return "physical";
    }
    return "?";
}

std::vector<SystemConfig::MidLevelConfig>
SystemConfig::resolvedMidLevels() const
{
    if (!midLevels.empty())
        return midLevels;
    if (hasL2)
        return {MidLevelConfig{l2cache, l2Timing, l2Buffer}};
    return {};
}

void
SystemConfig::validate() const
{
    if (cycleNs <= 0.0)
        fatal("system: cycleNs must be positive, got %f", cycleNs);
    if (addressing == AddressMode::Physical)
        tlb.validate();
    if (cpu.readHitCycles == 0 || cpu.writeHitCycles == 0)
        fatal("system: hit cycle counts must be nonzero");
    if (split)
        icache.validate("icache");
    dcache.validate(split ? "dcache" : "unified cache");
    if (l1Buffer.enabled && l1Buffer.depth == 0)
        fatal("system: l1 write buffer depth must be nonzero");
    unsigned prev_block =
        std::max(dcache.blockWords, split ? icache.blockWords : 0u);
    unsigned level = 2;
    for (const MidLevelConfig &mid : resolvedMidLevels()) {
        std::string what = "L";
        what.append(std::to_string(level)).append(" cache");
        mid.cache.validate(what.c_str());
        if (mid.cache.blockWords < prev_block) {
            fatal("system: %s block size must be >= the level above",
                  what.c_str());
        }
        prev_block = mid.cache.blockWords;
        ++level;
    }
    if (memory.rate.words == 0 || memory.rate.cycles == 0)
        fatal("system: memory transfer rate must be nonzero");

    if (!coherent()) {
        if (cores != 1)
            fatal("system: cores > 1 requires a coherence protocol");
        return;
    }

    // Coherent mode: the snooping engine models write-back
    // write-allocate whole-block caches over one shared L2 and a
    // single shared (physical) address space.
    constexpr unsigned kMaxCores = 64;
    if (cores == 0 || cores > kMaxCores)
        fatal("system: cores must be in [1, %u], got %u", kMaxCores,
              cores);
    if (addressing != AddressMode::Virtual)
        fatal("system: coherent mode models no TLB; use virtual "
              "addressing");
    if (resolvedMidLevels().size() != 1)
        fatal("system: coherent mode requires exactly one shared L2");
    auto checkCoherentCache = [](const CacheConfig &cache,
                                 const char *what) {
        if (cache.writePolicy != WritePolicy::WriteBack ||
            cache.allocPolicy != AllocPolicy::WriteAllocate)
            fatal("system: coherent %s must be write-back "
                  "write-allocate", what);
        if (cache.fetchWords != 0 &&
            cache.fetchWords != cache.blockWords)
            fatal("system: coherent %s must fetch whole blocks",
                  what);
        if (cache.victimEntries != 0)
            fatal("system: coherent %s cannot have a victim cache",
                  what);
        if (cache.prefetchPolicy != PrefetchPolicy::None)
            fatal("system: coherent %s cannot prefetch", what);
        if (cache.virtualTags)
            fatal("system: coherent %s must be physically tagged "
                  "(the cores share one address space)", what);
    };
    if (split)
        checkCoherentCache(icache, "icache");
    checkCoherentCache(dcache, split ? "dcache" : "unified cache");
    checkCoherentCache(resolvedMidLevels().front().cache, "L2");
    // Flushes and fills move whole L1 blocks through the L2, so an
    // L1 block must fit inside one L2 block (both are powers of two,
    // so fitting implies alignment).
    unsigned l2Block = resolvedMidLevels().front().cache.blockWords;
    if (dcache.blockWords > l2Block ||
        (split && icache.blockWords > l2Block))
        fatal("system: coherent L1 blocks (%u/%u words) cannot "
              "exceed the L2 block (%u words)",
              split ? icache.blockWords : dcache.blockWords,
              dcache.blockWords, l2Block);
    if (l1Buffer.enabled || resolvedMidLevels().front().buffer.enabled)
        fatal("system: coherent mode models no write buffers");
    if (cpu.pairIssue || cpu.earlyContinuation)
        fatal("system: coherent mode is single-issue without early "
              "continuation");
    if (memory.addressCycles == 0)
        fatal("system: the coherent bus needs memory.address_cycles "
              ">= 1 (the snoop/arbitration cost)");
}

void
SystemConfig::applyCoherenceDefaults()
{
    addressing = AddressMode::Virtual;
    cpu.pairIssue = false;
    cpu.earlyContinuation = false;
    l1Buffer.enabled = false;
    auto coerce = [](CacheConfig &cache) {
        cache.writePolicy = WritePolicy::WriteBack;
        cache.allocPolicy = AllocPolicy::WriteAllocate;
        cache.fetchWords = 0;
        cache.victimEntries = 0;
        cache.prefetchPolicy = PrefetchPolicy::None;
        cache.virtualTags = false;
    };
    coerce(icache);
    coerce(dcache);
    unsigned l1Block = std::max(dcache.blockWords,
                                split ? icache.blockWords : 0u);
    if (midLevels.empty() && !hasL2) {
        hasL2 = true;
        l2cache = dcache;
        l2cache.sizeWords = std::bit_ceil(
            std::max<std::uint64_t>(4 * totalL1Words(),
                                    4 * dcache.blockWords));
        l2cache.replSeed = 0x12cace;
    }
    // The shared L2 moves whole L1 blocks: its block must contain
    // them, and its capacity must stay legal once the block grows.
    if (!midLevels.empty()) {
        midLevels.resize(1);
        midLevels.front().buffer.enabled = false;
    } else {
        l2Buffer.enabled = false;
    }
    CacheConfig &shared =
        midLevels.empty() ? l2cache : midLevels.front().cache;
    coerce(shared);
    shared.blockWords = std::max(shared.blockWords, l1Block);
    shared.sizeWords = std::max<std::uint64_t>(
        shared.sizeWords,
        2ULL * shared.blockWords * shared.assoc);
    if (memory.addressCycles == 0)
        memory.addressCycles = 1;
}

std::uint64_t
SystemConfig::totalL1Words() const
{
    return split ? icache.sizeWords + dcache.sizeWords
                 : dcache.sizeWords;
}

void
SystemConfig::setL1SizeWordsEach(std::uint64_t words)
{
    icache.sizeWords = words;
    dcache.sizeWords = words;
}

void
SystemConfig::setL1BlockWords(unsigned words)
{
    icache.blockWords = words;
    icache.fetchWords = 0;
    dcache.blockWords = words;
    dcache.fetchWords = 0;
    l1Buffer.matchGranularityWords = words;
}

void
SystemConfig::setL1Assoc(unsigned assoc)
{
    icache.assoc = assoc;
    dcache.assoc = assoc;
}

std::string
SystemConfig::describe() const
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s L1 %s+%s, %uW blocks, %u-way, %.0fns cycle%s",
                  split ? "split" : "unified",
                  TablePrinter::fmtSizeWords(split ? icache.sizeWords
                                                   : dcache.sizeWords)
                      .c_str(),
                  TablePrinter::fmtSizeWords(dcache.sizeWords).c_str(),
                  dcache.blockWords, dcache.assoc, cycleNs,
                  hasL2 ? ", +L2" : "");
    std::string text = buf;
    if (coherent()) {
        std::snprintf(buf, sizeof(buf), ", %ux %s",
                      cores, coherenceProtocolName(protocol));
        text += buf;
    }
    return text;
}

SystemConfig
SystemConfig::paperDefault()
{
    SystemConfig config;
    config.cycleNs = 40.0;
    config.split = true;

    // 64KB each, 4K blocks of four words, direct mapped, fetch the
    // entire block on a miss.
    config.icache.sizeWords = 16 * 1024;
    config.icache.blockWords = 4;
    config.icache.assoc = 1;
    config.icache.fetchWords = 0;
    config.icache.writePolicy = WritePolicy::WriteBack;
    config.icache.allocPolicy = AllocPolicy::NoWriteAllocate;
    config.icache.replPolicy = ReplPolicy::Random;
    config.icache.virtualTags = true;

    config.dcache = config.icache;
    config.dcache.replSeed = 0xdcace;

    config.l1Buffer.depth = 4;
    config.l1Buffer.matchGranularityWords = 4;

    config.memory = MainMemoryConfig{};
    return config;
}

namespace
{

bool
parseBool(const std::string &value, const std::string &key)
{
    if (value == "1" || value == "true" || value == "yes")
        return true;
    if (value == "0" || value == "false" || value == "no")
        return false;
    fatal("config: bad boolean '%s' for key '%s'", value.c_str(),
          key.c_str());
}

WritePolicy
parseWritePolicy(const std::string &value, const std::string &key)
{
    if (value == "write-back" || value == "wb")
        return WritePolicy::WriteBack;
    if (value == "write-through" || value == "wt")
        return WritePolicy::WriteThrough;
    fatal("config: bad write policy '%s' for key '%s'", value.c_str(),
          key.c_str());
}

AllocPolicy
parseAllocPolicy(const std::string &value, const std::string &key)
{
    if (value == "no-write-allocate" || value == "nwa")
        return AllocPolicy::NoWriteAllocate;
    if (value == "write-allocate" || value == "wa")
        return AllocPolicy::WriteAllocate;
    fatal("config: bad alloc policy '%s' for key '%s'", value.c_str(),
          key.c_str());
}

PrefetchPolicy
parsePrefetchPolicy(const std::string &value, const std::string &key)
{
    if (value == "none")
        return PrefetchPolicy::None;
    if (value == "on-miss")
        return PrefetchPolicy::OnMiss;
    if (value == "tagged")
        return PrefetchPolicy::Tagged;
    fatal("config: bad prefetch policy '%s' for key '%s'",
          value.c_str(), key.c_str());
}

ReplPolicy
parseReplPolicy(const std::string &value, const std::string &key)
{
    if (value == "random")
        return ReplPolicy::Random;
    if (value == "lru")
        return ReplPolicy::LRU;
    if (value == "fifo")
        return ReplPolicy::FIFO;
    fatal("config: bad replacement policy '%s' for key '%s'",
          value.c_str(), key.c_str());
}

void
applyCacheKey(CacheConfig &cache, const std::string &field,
              const std::string &value, const std::string &key)
{
    if (field == "size_words")
        cache.sizeWords = std::stoull(value);
    else if (field == "size_kb")
        cache.sizeWords = std::stoull(value) * 1024 / wordBytes;
    else if (field == "block_words")
        cache.blockWords = static_cast<unsigned>(std::stoul(value));
    else if (field == "assoc")
        cache.assoc = static_cast<unsigned>(std::stoul(value));
    else if (field == "fetch_words")
        cache.fetchWords = static_cast<unsigned>(std::stoul(value));
    else if (field == "write_policy")
        cache.writePolicy = parseWritePolicy(value, key);
    else if (field == "alloc_policy")
        cache.allocPolicy = parseAllocPolicy(value, key);
    else if (field == "repl_policy")
        cache.replPolicy = parseReplPolicy(value, key);
    else if (field == "prefetch")
        cache.prefetchPolicy = parsePrefetchPolicy(value, key);
    else if (field == "victim_entries")
        cache.victimEntries =
            static_cast<unsigned>(std::stoul(value));
    else if (field == "virtual_tags")
        cache.virtualTags = parseBool(value, key);
    else if (field == "repl_seed")
        cache.replSeed = std::stoull(value);
    else
        fatal("config: unknown cache field '%s'", key.c_str());
}

void
applyBufferKey(WriteBufferConfig &buffer, const std::string &field,
               const std::string &value, const std::string &key)
{
    if (field == "enabled")
        buffer.enabled = parseBool(value, key);
    else if (field == "depth")
        buffer.depth = static_cast<unsigned>(std::stoul(value));
    else if (field == "read_priority")
        buffer.readPriority = parseBool(value, key);
    else if (field == "check_read_match")
        buffer.checkReadMatch = parseBool(value, key);
    else if (field == "match_granularity_words")
        buffer.matchGranularityWords =
            static_cast<unsigned>(std::stoul(value));
    else if (field == "coalesce")
        buffer.coalesce = parseBool(value, key);
    else if (field == "drain_on_idle")
        buffer.drainOnIdle = parseBool(value, key);
    else if (field == "high_water")
        buffer.highWater = static_cast<unsigned>(std::stoul(value));
    else
        fatal("config: unknown write-buffer field '%s'", key.c_str());
}

} // namespace

void
applyKeyValues(SystemConfig &config, const std::string &text)
{
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) {
        // Strip comments and whitespace-only lines.
        if (auto hash = line.find('#'); hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream probe(line);
        std::string token;
        if (!(probe >> token))
            continue;
        auto eq = token.find('=');
        if (eq == std::string::npos)
            fatal("config: expected key=value, got '%s'", line.c_str());
        std::string key = token.substr(0, eq);
        std::string value = token.substr(eq + 1);

        if (key == "cycle_ns") {
            config.cycleNs = std::stod(value);
        } else if (key == "addressing") {
            if (value == "virtual")
                config.addressing = AddressMode::Virtual;
            else if (value == "physical")
                config.addressing = AddressMode::Physical;
            else
                fatal("config: bad addressing '%s'", value.c_str());
        } else if (key == "tlb.entries") {
            config.tlb.entries =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "tlb.assoc") {
            config.tlb.assoc =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "tlb.page_words") {
            config.tlb.pageWords = std::stoull(value);
        } else if (key == "tlb.miss_penalty_cycles") {
            config.tlb.missPenaltyCycles =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "tlb.phys_frames") {
            config.tlb.physFrames = std::stoull(value);
        } else if (key == "split") {
            config.split = parseBool(value, key);
        } else if (key == "cores") {
            config.cores = static_cast<unsigned>(std::stoul(value));
        } else if (key == "protocol") {
            config.protocol = parseCoherenceProtocol(value);
        } else if (key == "core_map") {
            config.coreMap = parseCoreMapPolicy(value);
        } else if (key == "has_l2") {
            config.hasL2 = parseBool(value, key);
        } else if (key == "cpu.read_hit_cycles") {
            config.cpu.readHitCycles =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "cpu.write_hit_cycles") {
            config.cpu.writeHitCycles =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "cpu.pair_issue") {
            config.cpu.pairIssue = parseBool(value, key);
        } else if (key == "cpu.early_continuation") {
            config.cpu.earlyContinuation = parseBool(value, key);
        } else if (key == "memory.read_latency_ns") {
            config.memory.readLatencyNs = std::stod(value);
        } else if (key == "memory.write_ns") {
            config.memory.writeNs = std::stod(value);
        } else if (key == "memory.recovery_ns") {
            config.memory.recoveryNs = std::stod(value);
        } else if (key == "memory.address_cycles") {
            config.memory.addressCycles =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "memory.rate_words") {
            config.memory.rate.words =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "memory.rate_cycles") {
            config.memory.rate.cycles =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "memory.banks") {
            config.memory.banks =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "memory.load_forwarding") {
            config.memory.loadForwarding = parseBool(value, key);
        } else if (key == "memory.streaming") {
            config.memory.streaming = parseBool(value, key);
        } else if (key == "l2.hit_cycles") {
            config.l2Timing.hitCycles =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "l2.upstream_rate_words") {
            config.l2Timing.upstreamRate.words =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "l2.upstream_rate_cycles") {
            config.l2Timing.upstreamRate.cycles =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "l2.victim_rate_words") {
            config.l2Timing.victimRate.words =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "l2.victim_rate_cycles") {
            config.l2Timing.victimRate.cycles =
                static_cast<unsigned>(std::stoul(value));
        } else if (key.rfind("icache.", 0) == 0) {
            applyCacheKey(config.icache, key.substr(7), value, key);
        } else if (key.rfind("dcache.", 0) == 0) {
            applyCacheKey(config.dcache, key.substr(7), value, key);
        } else if (key.rfind("l2cache.", 0) == 0) {
            applyCacheKey(config.l2cache, key.substr(8), value, key);
        } else if (key.rfind("l1buffer.", 0) == 0) {
            applyBufferKey(config.l1Buffer, key.substr(9), value, key);
        } else if (key.rfind("l2buffer.", 0) == 0) {
            applyBufferKey(config.l2Buffer, key.substr(9), value, key);
        } else {
            fatal("config: unknown key '%s'", key.c_str());
        }
    }
}

} // namespace cachetime
