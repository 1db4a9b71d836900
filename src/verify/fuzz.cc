#include "verify/fuzz.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "core/stack_sim.hh"
#include "core/sweep.hh"
#include "sim/coherent.hh"
#include "sim/system.hh"
#include "stats/progress.hh"
#include "trace/trace_io.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "verify/oracle.hh"

namespace cachetime
{
namespace verify
{
namespace
{

/** @return a power of two in [2^lo, 2^hi]. */
std::uint64_t
pow2Between(Rng &rng, unsigned lo, unsigned hi)
{
    return std::uint64_t{1} << (lo + rng.below(hi - lo + 1));
}

/** @return floor(log2(value)) for a nonzero power of two. */
unsigned
log2Of(std::uint64_t value)
{
    unsigned bits = 0;
    while (value > 1) {
        value >>= 1;
        ++bits;
    }
    return bits;
}

WritePolicy
randomWritePolicy(Rng &rng)
{
    return rng.chance(0.5) ? WritePolicy::WriteBack
                           : WritePolicy::WriteThrough;
}

AllocPolicy
randomAllocPolicy(Rng &rng)
{
    return rng.chance(0.5) ? AllocPolicy::NoWriteAllocate
                           : AllocPolicy::WriteAllocate;
}

ReplPolicy
randomReplPolicy(Rng &rng)
{
    switch (rng.below(3)) {
      case 0:
        return ReplPolicy::Random;
      case 1:
        return ReplPolicy::LRU;
      default:
        return ReplPolicy::FIFO;
    }
}

/**
 * A small cache so that a few-hundred-reference trace produces
 * hits, capacity misses, conflict misses and dirty evictions.
 */
CacheConfig
randomCache(Rng &rng, unsigned min_block_log2)
{
    CacheConfig cache;
    cache.blockWords = static_cast<unsigned>(
        pow2Between(rng, min_block_log2, 4)); // 1..16 words
    cache.assoc = static_cast<unsigned>(pow2Between(rng, 0, 2));
    // Keep at least two sets.
    unsigned floor_log2 = 1;
    std::uint64_t min_words = 2ULL * cache.blockWords * cache.assoc;
    while ((std::uint64_t{1} << floor_log2) < min_words)
        ++floor_log2;
    cache.sizeWords = pow2Between(rng, floor_log2, floor_log2 + 3);
    // Whole-block or sub-block fetches.
    cache.fetchWords =
        rng.chance(0.3)
            ? static_cast<unsigned>(
                  pow2Between(rng, 0, log2Of(cache.blockWords)))
            : 0;
    cache.writePolicy = randomWritePolicy(rng);
    cache.allocPolicy = randomAllocPolicy(rng);
    cache.replPolicy = randomReplPolicy(rng);
    cache.prefetchPolicy = PrefetchPolicy::None;
    cache.victimEntries = 0;
    cache.virtualTags = rng.chance(0.7);
    cache.replSeed = rng.next();
    return cache;
}

WriteBufferConfig
randomBuffer(Rng &rng, unsigned block_words)
{
    WriteBufferConfig buffer;
    buffer.enabled = rng.chance(0.85);
    buffer.depth = 1 + static_cast<unsigned>(rng.below(6));
    buffer.readPriority = rng.chance(0.7);
    buffer.checkReadMatch = rng.chance(0.8);
    buffer.matchGranularityWords = static_cast<unsigned>(
        rng.chance(0.5) ? block_words : pow2Between(rng, 0, 3));
    buffer.coalesce = rng.chance(0.5);
    buffer.drainOnIdle = rng.chance(0.8);
    buffer.highWater =
        1 + static_cast<unsigned>(rng.below(buffer.depth));
    return buffer;
}

SystemConfig
randomConfig(Rng &rng)
{
    SystemConfig config;

    static const double kCycles[] = {10.0, 20.0, 25.0, 40.0, 56.0};
    config.cycleNs = kCycles[rng.below(5)];

    config.cpu.readHitCycles =
        1 + static_cast<unsigned>(rng.below(2));
    // Bounded by the shortest possible write-allocate fill (see the
    // stallWrite accounting); >= 5 could make `done - start` come
    // out below the hit time and is not a configuration the paper
    // explores.
    config.cpu.writeHitCycles =
        1 + static_cast<unsigned>(rng.below(4));
    config.cpu.pairIssue = rng.chance(0.7);
    config.cpu.earlyContinuation = rng.chance(0.4);

    config.split = rng.chance(0.7);
    config.icache = randomCache(rng, 0);
    config.dcache = randomCache(rng, 0);
    config.l1Buffer = randomBuffer(rng, config.dcache.blockWords);

    if (rng.chance(0.25)) {
        config.addressing = AddressMode::Physical;
        config.tlb.entries =
            static_cast<unsigned>(pow2Between(rng, 1, 6));
        config.tlb.assoc = static_cast<unsigned>(
            pow2Between(rng, 0, log2Of(config.tlb.entries)));
        config.tlb.pageWords = pow2Between(rng, 3, 6);
        config.tlb.missPenaltyCycles =
            1 + static_cast<unsigned>(rng.below(30));
        config.tlb.physFrames = pow2Between(rng, 8, 12);
    }

    if (rng.chance(0.4)) {
        config.hasL2 = true;
        unsigned l1_block =
            std::max(config.dcache.blockWords,
                     config.split ? config.icache.blockWords : 0u);
        unsigned lo = log2Of(l1_block);
        config.l2cache = randomCache(rng, lo);
        // Bigger than the L1s so it filters rather than mirrors.
        config.l2cache.sizeWords =
            std::max<std::uint64_t>(config.l2cache.sizeWords,
                                    4 * config.l2cache.blockWords *
                                        config.l2cache.assoc);
        config.l2Timing.hitCycles =
            1 + static_cast<unsigned>(rng.below(6));
        config.l2Timing.upstreamRate = {
            1 + static_cast<unsigned>(rng.below(4)),
            1 + static_cast<unsigned>(rng.below(4))};
        config.l2Timing.victimRate = {
            1 + static_cast<unsigned>(rng.below(4)),
            1 + static_cast<unsigned>(rng.below(4))};
        config.l2Buffer =
            randomBuffer(rng, config.l2cache.blockWords);
    }

    config.memory.readLatencyNs =
        20.0 + static_cast<double>(rng.below(281));
    config.memory.writeNs = static_cast<double>(rng.below(201));
    config.memory.recoveryNs = static_cast<double>(rng.below(201));
    config.memory.addressCycles =
        1 + static_cast<unsigned>(rng.below(2));
    config.memory.rate = {1 + static_cast<unsigned>(rng.below(4)),
                          1 + static_cast<unsigned>(rng.below(4))};
    config.memory.banks =
        static_cast<unsigned>(pow2Between(rng, 0, 2));
    config.memory.loadForwarding = rng.chance(0.4);
    config.memory.streaming = rng.chance(0.3);

    return config;
}

/**
 * Coerce a random classic config into a valid coherent one: pick
 * the core count and protocol, then let applyCoherenceDefaults()
 * rewrite whatever the coherent validation rejects.
 */
void
coherentize(SystemConfig &config, Rng &rng)
{
    config.cores = 1u << rng.below(3); // 1, 2 or 4
    switch (rng.below(3)) {
      case 0:
        config.protocol = CoherenceProtocol::VI;
        break;
      case 1:
        config.protocol = CoherenceProtocol::MSI;
        break;
      default:
        config.protocol = CoherenceProtocol::MESI;
        break;
    }
    config.coreMap = CoreMapPolicy::Modulo;
    config.applyCoherenceDefaults();
}

Trace
randomTrace(Rng &rng, std::uint64_t seed, bool sharing)
{
    std::size_t length = 1 + rng.below(400);
    // Sharing streams want several pids contending for the same
    // small span, so peer copies exist to invalidate.
    unsigned pids = sharing ? 2 + static_cast<unsigned>(rng.below(3))
                    : rng.chance(0.7)
                        ? 1
                        : 2 + static_cast<unsigned>(rng.below(2));
    // Address span: small enough that a tiny cache sees reuse,
    // large enough to evict.
    Addr data_span = pow2Between(rng, 5, 12);
    double store_p = 0.15 + 0.3 * rng.uniform();
    double branch_p = 0.1 + 0.2 * rng.uniform();

    std::vector<Addr> pc(pids, 0);
    std::vector<Ref> refs;
    refs.reserve(length);
    while (refs.size() < length) {
        Pid pid = static_cast<Pid>(rng.below(pids));
        if (rng.chance(0.55)) {
            // Instruction stream: sequential with taken branches.
            if (rng.chance(branch_p))
                pc[pid] = rng.below(data_span);
            refs.push_back({pc[pid], RefKind::IFetch, pid});
            ++pc[pid];
        } else {
            Addr addr = rng.chance(0.8)
                            ? rng.below(data_span)
                            : data_span + rng.below(data_span * 4);
            RefKind kind = rng.chance(store_p) ? RefKind::Store
                                               : RefKind::Load;
            refs.push_back({addr, kind, pid});
        }
    }

    std::size_t warm =
        rng.chance(0.6) ? 0 : rng.below(refs.size());

    // A fifth of the streams move a quarter of each pid's references
    // to a per-pid base at or above 2^60, so every tag compare sees
    // addresses that differ only in their top bits.
    if (rng.chance(0.2)) {
        std::vector<Addr> high(pids);
        for (Addr &base : high)
            base = (1 + rng.below(15)) << 60;
        for (Ref &ref : refs) {
            if (rng.chance(0.25))
                ref.addr += high[ref.pid];
        }
    }
    return Trace("fuzz-" + std::to_string(seed), std::move(refs),
                 warm);
}

/**
 * The stack kernel's lattice for @p config: the config itself plus
 * its half- and double-size siblings (both L1s scaled together), so
 * the config's own layers sit inside chains and deep stacks of more
 * than one set count.
 */
std::vector<SystemConfig>
stackLattice(const SystemConfig &config)
{
    std::vector<SystemConfig> lattice{config};
    auto scaled = [&](bool grow) {
        SystemConfig sibling = config;
        for (CacheConfig *cache : {&sibling.icache, &sibling.dcache}) {
            if (grow)
                cache->sizeWords *= 2;
            else
                cache->sizeWords /= 2;
        }
        return sibling;
    };
    const SystemConfig half = scaled(false);
    auto fits = [](const CacheConfig &cache) {
        return cache.sizeWords >=
               std::uint64_t{cache.blockWords} * cache.assoc;
    };
    if (fits(half.dcache) && (!half.split || fits(half.icache)))
        lattice.push_back(half);
    lattice.push_back(scaled(true));
    return lattice;
}

/**
 * Append a diff, prefixed "stack.", for every counter runStackSweep
 * claims exact on which @p stack and @p oracle disagree.
 */
void
diffStackCounters(const SimResult &stack, const SimResult &oracle,
                  std::vector<FieldDiff> &diffs)
{
    auto check = [&](const char *field, std::uint64_t got,
                     std::uint64_t want) {
        if (got != want)
            diffs.push_back({std::string("stack.") + field,
                             std::to_string(got),
                             std::to_string(want)});
    };
    check("refs", stack.refs, oracle.refs);
    check("readRefs", stack.readRefs, oracle.readRefs);
    check("writeRefs", stack.writeRefs, oracle.writeRefs);
    check("groups", stack.groups, oracle.groups);
    check("icache.readAccesses", stack.icache.readAccesses,
          oracle.icache.readAccesses);
    check("icache.readMisses", stack.icache.readMisses,
          oracle.icache.readMisses);
    check("dcache.readAccesses", stack.dcache.readAccesses,
          oracle.dcache.readAccesses);
    check("dcache.readMisses", stack.dcache.readMisses,
          oracle.dcache.readMisses);
    check("dcache.writeAccesses", stack.dcache.writeAccesses,
          oracle.dcache.writeAccesses);
    check("dcache.writeMisses", stack.dcache.writeMisses,
          oracle.dcache.writeMisses);
}

} // namespace

std::vector<SystemConfig>
lockstepSiblings(const SystemConfig &config)
{
    std::vector<SystemConfig> group{config};
    auto add = [&](auto edit) {
        SystemConfig sibling = config;
        edit(sibling);
        group.push_back(sibling);
    };
    add([](SystemConfig &c) { c.cycleNs *= 2; });
    add([](SystemConfig &c) { c.memory.readLatencyNs += 150.0; });
    add([](SystemConfig &c) { c.l1Buffer.depth += 2; });
    add([](SystemConfig &c) {
        c.cpu.earlyContinuation = !c.cpu.earlyContinuation;
    });
    if (config.addressing == AddressMode::Physical)
        add([](SystemConfig &c) { c.tlb.missPenaltyCycles += 13; });
    return group;
}

namespace
{

/**
 * Run @p group as one fused batch over @p fuzz_case's trace and
 * append a diff, prefixed @p prefix + "<k>.", for every field on
 * which member k disagrees with @p reference(k).
 */
template <typename Reference>
void
diffBatch(const std::string &prefix, const FuzzCase &fuzz_case,
          const std::vector<SystemConfig> &group, Reference &&reference,
          std::vector<FieldDiff> &diffs)
{
    TraceRefSource source(fuzz_case.trace);
    const std::vector<SimResult> batch = simulateBatch(group, source);
    for (std::size_t k = 0; k < group.size(); ++k) {
        for (FieldDiff diff : diffResults(batch[k], reference(k))) {
            diff.field = prefix + std::to_string(k) + "." + diff.field;
            diffs.push_back(std::move(diff));
        }
    }
}

/**
 * Run @p fuzz_case's config and its lockstepSiblings() as one fused
 * batch - one lockstep group sharing an L1 front - and diff each
 * member against its own oracle run ("batch.<k>."; @p oracle is
 * member 0's).  The oracle models neither hardware prefetch nor
 * victim caches, so the same group with both turned on is held to
 * each member's single-machine run instead ("batch.prefetch.<k>.";
 * the diff's "oracle" column then holds that run): that way every
 * kind of log record crosses the shared front.
 */
void
diffLockstepBatch(const FuzzCase &fuzz_case, const SimResult &oracle,
                  std::vector<FieldDiff> &diffs)
{
    const Trace &trace = fuzz_case.trace;
    const std::vector<SystemConfig> group =
        lockstepSiblings(fuzz_case.config);
    diffBatch("batch.", fuzz_case, group,
              [&](std::size_t k) {
                  return k == 0 ? oracle : oracleRun(group[k], trace);
              },
              diffs);

    SystemConfig extended = fuzz_case.config;
    extended.icache.prefetchPolicy = PrefetchPolicy::OnMiss;
    extended.dcache.prefetchPolicy = PrefetchPolicy::Tagged;
    extended.dcache.victimEntries = 2;
    const std::vector<SystemConfig> extended_group =
        lockstepSiblings(extended);
    diffBatch("batch.prefetch.", fuzz_case, extended_group,
              [&](std::size_t k) {
                  return System(extended_group[k]).run(trace);
              },
              diffs);
}

/**
 * Run a chainEligible() case's lockstepSiblings() at each of its
 * stackLattice() sizes as one fused batch - every member on one
 * inclusion-chain L1 front, timing its own size - and diff each
 * member against its own oracle run ("batch.chain.<k>."; member 0
 * is the case's config, whose oracle run is @p oracle).
 */
void
diffChainBatch(const FuzzCase &fuzz_case, const SimResult &oracle,
               std::vector<FieldDiff> &diffs)
{
    std::vector<SystemConfig> group;
    for (const SystemConfig &sized : stackLattice(fuzz_case.config))
        for (const SystemConfig &sibling : lockstepSiblings(sized))
            group.push_back(sibling);
    diffBatch("batch.chain.", fuzz_case, group,
              [&](std::size_t k) {
                  return k == 0 ? oracle
                                : oracleRun(group[k], fuzz_case.trace);
              },
              diffs);
}

// ---------------------------------------------------------------
// Repro serialization.
// ---------------------------------------------------------------

void
emitCache(std::ostream &os, const std::string &prefix,
          const CacheConfig &cache)
{
    os << prefix << ".size_words=" << cache.sizeWords << "\n"
       << prefix << ".block_words=" << cache.blockWords << "\n"
       << prefix << ".assoc=" << cache.assoc << "\n"
       << prefix << ".fetch_words=" << cache.fetchWords << "\n"
       << prefix
       << ".write_policy=" << writePolicyName(cache.writePolicy)
       << "\n"
       << prefix
       << ".alloc_policy=" << allocPolicyName(cache.allocPolicy)
       << "\n"
       << prefix
       << ".repl_policy=" << replPolicyName(cache.replPolicy)
       << "\n"
       << prefix
       << ".prefetch=" << prefetchPolicyName(cache.prefetchPolicy)
       << "\n"
       << prefix << ".victim_entries=" << cache.victimEntries
       << "\n"
       << prefix << ".virtual_tags=" << (cache.virtualTags ? 1 : 0)
       << "\n"
       << prefix << ".repl_seed=" << cache.replSeed << "\n";
}

void
emitBuffer(std::ostream &os, const std::string &prefix,
           const WriteBufferConfig &buffer)
{
    os << prefix << ".enabled=" << (buffer.enabled ? 1 : 0) << "\n"
       << prefix << ".depth=" << buffer.depth << "\n"
       << prefix << ".read_priority=" << (buffer.readPriority ? 1 : 0)
       << "\n"
       << prefix
       << ".check_read_match=" << (buffer.checkReadMatch ? 1 : 0)
       << "\n"
       << prefix << ".match_granularity_words="
       << buffer.matchGranularityWords << "\n"
       << prefix << ".coalesce=" << (buffer.coalesce ? 1 : 0) << "\n"
       << prefix << ".drain_on_idle=" << (buffer.drainOnIdle ? 1 : 0)
       << "\n"
       << prefix << ".high_water=" << buffer.highWater << "\n";
}

std::string
formatDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
configKeyValues(const SystemConfig &config)
{
    std::ostringstream os;
    os << "cycle_ns=" << formatDouble(config.cycleNs) << "\n"
       << "addressing=" << addressModeName(config.addressing)
       << "\n"
       << "tlb.entries=" << config.tlb.entries << "\n"
       << "tlb.assoc=" << config.tlb.assoc << "\n"
       << "tlb.page_words=" << config.tlb.pageWords << "\n"
       << "tlb.miss_penalty_cycles="
       << config.tlb.missPenaltyCycles << "\n"
       << "tlb.phys_frames=" << config.tlb.physFrames << "\n"
       << "split=" << (config.split ? 1 : 0) << "\n"
       << "cores=" << config.cores << "\n"
       << "protocol=" << coherenceProtocolName(config.protocol)
       << "\n"
       << "core_map=" << coreMapPolicyName(config.coreMap) << "\n"
       << "cpu.read_hit_cycles=" << config.cpu.readHitCycles << "\n"
       << "cpu.write_hit_cycles=" << config.cpu.writeHitCycles
       << "\n"
       << "cpu.pair_issue=" << (config.cpu.pairIssue ? 1 : 0) << "\n"
       << "cpu.early_continuation="
       << (config.cpu.earlyContinuation ? 1 : 0) << "\n";
    emitCache(os, "icache", config.icache);
    emitCache(os, "dcache", config.dcache);
    emitBuffer(os, "l1buffer", config.l1Buffer);
    os << "has_l2=" << (config.hasL2 ? 1 : 0) << "\n";
    emitCache(os, "l2cache", config.l2cache);
    os << "l2.hit_cycles=" << config.l2Timing.hitCycles << "\n"
       << "l2.upstream_rate_words="
       << config.l2Timing.upstreamRate.words << "\n"
       << "l2.upstream_rate_cycles="
       << config.l2Timing.upstreamRate.cycles << "\n"
       << "l2.victim_rate_words="
       << config.l2Timing.victimRate.words << "\n"
       << "l2.victim_rate_cycles="
       << config.l2Timing.victimRate.cycles << "\n";
    emitBuffer(os, "l2buffer", config.l2Buffer);
    os << "memory.read_latency_ns="
       << formatDouble(config.memory.readLatencyNs) << "\n"
       << "memory.write_ns=" << formatDouble(config.memory.writeNs)
       << "\n"
       << "memory.recovery_ns="
       << formatDouble(config.memory.recoveryNs) << "\n"
       << "memory.address_cycles=" << config.memory.addressCycles
       << "\n"
       << "memory.rate_words=" << config.memory.rate.words << "\n"
       << "memory.rate_cycles=" << config.memory.rate.cycles << "\n"
       << "memory.banks=" << config.memory.banks << "\n"
       << "memory.load_forwarding="
       << (config.memory.loadForwarding ? 1 : 0) << "\n"
       << "memory.streaming=" << (config.memory.streaming ? 1 : 0)
       << "\n";
    return os.str();
}

// ---------------------------------------------------------------
// Minimization.
// ---------------------------------------------------------------

bool
stillFails(const FuzzCase &candidate)
{
    return checkCase(candidate).mismatch;
}

/**
 * ddmin-style chunk removal: repeatedly try to delete contiguous
 * chunks, halving the chunk size until single references remain.
 */
Trace
minimizeTrace(const SystemConfig &config, const Trace &trace,
              std::uint64_t seed)
{
    std::vector<Ref> refs = trace.refs();
    std::size_t warm = trace.warmStart();

    auto fails = [&](const std::vector<Ref> &candidate,
                     std::size_t candidate_warm) {
        if (candidate.empty())
            return false;
        FuzzCase probe;
        probe.config = config;
        probe.trace = Trace(trace.name(), candidate,
                            std::min(candidate_warm,
                                     candidate.size()));
        probe.seed = seed;
        return stillFails(probe);
    };

    if (warm != 0 && fails(refs, 0))
        warm = 0;

    for (std::size_t chunk = refs.size() / 2; chunk >= 1;
         chunk /= 2) {
        bool removed_any = true;
        while (removed_any) {
            removed_any = false;
            for (std::size_t at = 0; at + chunk <= refs.size();) {
                std::vector<Ref> candidate;
                candidate.reserve(refs.size() - chunk);
                candidate.insert(candidate.end(), refs.begin(),
                                 refs.begin() + at);
                candidate.insert(candidate.end(),
                                 refs.begin() + at + chunk,
                                 refs.end());
                std::size_t candidate_warm =
                    at + chunk <= warm
                        ? warm - chunk
                        : std::min(warm, at);
                if (fails(candidate, candidate_warm)) {
                    refs = std::move(candidate);
                    warm = candidate_warm;
                    removed_any = true;
                } else {
                    at += chunk;
                }
            }
        }
        if (chunk == 1)
            break;
    }
    return Trace(trace.name(), std::move(refs), warm);
}

/** One config simplification to try; returns false if inapplicable. */
using ConfigPass = std::function<bool(SystemConfig &)>;

SystemConfig
minimizeConfig(const SystemConfig &config, const Trace &trace,
               std::uint64_t seed)
{
    SystemConfig best = config;
    const std::vector<ConfigPass> passes = {
        [](SystemConfig &c) {
            // Dropping coherence falls back to the classic engine
            // (a coherent config is also a valid classic one).
            if (!c.coherent())
                return false;
            c.protocol = CoherenceProtocol::None;
            c.cores = 1;
            return true;
        },
        [](SystemConfig &c) {
            if (!c.coherent() || c.cores == 1)
                return false;
            c.cores /= 2;
            return true;
        },
        [](SystemConfig &c) {
            if (c.protocol != CoherenceProtocol::MESI)
                return false;
            c.protocol = CoherenceProtocol::MSI;
            return true;
        },
        [](SystemConfig &c) {
            // Coherent mode requires the shared L2; keep it.
            if (c.coherent() || (!c.hasL2 && c.midLevels.empty()))
                return false;
            c.hasL2 = false;
            c.midLevels.clear();
            return true;
        },
        [](SystemConfig &c) {
            if (c.addressing == AddressMode::Virtual)
                return false;
            c.addressing = AddressMode::Virtual;
            return true;
        },
        [](SystemConfig &c) {
            if (!c.cpu.earlyContinuation)
                return false;
            c.cpu.earlyContinuation = false;
            return true;
        },
        [](SystemConfig &c) {
            if (!c.split)
                return false;
            c.split = false;
            return true;
        },
        [](SystemConfig &c) {
            if (!c.cpu.pairIssue)
                return false;
            c.cpu.pairIssue = false;
            return true;
        },
        [](SystemConfig &c) {
            if (!c.l1Buffer.enabled)
                return false;
            c.l1Buffer.enabled = false;
            return true;
        },
        [](SystemConfig &c) {
            if (!c.l1Buffer.coalesce)
                return false;
            c.l1Buffer.coalesce = false;
            return true;
        },
        [](SystemConfig &c) {
            if (c.l1Buffer.depth == 1)
                return false;
            c.l1Buffer.depth = 1;
            c.l1Buffer.highWater = 1;
            return true;
        },
        [](SystemConfig &c) {
            if (c.memory.banks == 1)
                return false;
            c.memory.banks = 1;
            return true;
        },
        [](SystemConfig &c) {
            if (!c.memory.loadForwarding && !c.memory.streaming)
                return false;
            c.memory.loadForwarding = false;
            c.memory.streaming = false;
            return true;
        },
        [](SystemConfig &c) {
            bool changed = false;
            for (CacheConfig *cache :
                 {&c.icache, &c.dcache, &c.l2cache}) {
                if (cache->replPolicy != ReplPolicy::LRU) {
                    cache->replPolicy = ReplPolicy::LRU;
                    changed = true;
                }
            }
            return changed;
        },
        [](SystemConfig &c) {
            bool changed = false;
            for (CacheConfig *cache :
                 {&c.icache, &c.dcache, &c.l2cache}) {
                if (cache->fetchWords != 0) {
                    cache->fetchWords = 0;
                    changed = true;
                }
                if (cache->assoc != 1) {
                    cache->assoc = 1;
                    changed = true;
                }
            }
            return changed;
        },
    };

    bool improved = true;
    while (improved) {
        improved = false;
        for (const ConfigPass &pass : passes) {
            SystemConfig candidate = best;
            if (!pass(candidate))
                continue;
            FuzzCase probe{candidate, trace, seed};
            if (stillFails(probe)) {
                best = candidate;
                improved = true;
            }
        }
    }
    return best;
}

} // namespace

FuzzCase
generateCase(std::uint64_t seed)
{
    Rng rng(seed);
    FuzzCase fuzz_case;
    // A quarter of the space runs the coherent multi-core engine.
    bool coherent = rng.chance(0.25);
    fuzz_case.config = randomConfig(rng);
    if (coherent)
        coherentize(fuzz_case.config, rng);
    fuzz_case.trace = randomTrace(rng, seed, coherent);
    fuzz_case.seed = seed;
    return fuzz_case;
}

FuzzCase
generateCoherentCase(std::uint64_t seed)
{
    Rng rng(seed);
    FuzzCase fuzz_case;
    rng.chance(0.25); // keep the draw order aligned with generateCase
    fuzz_case.config = randomConfig(rng);
    coherentize(fuzz_case.config, rng);
    fuzz_case.trace = randomTrace(rng, seed, true);
    fuzz_case.seed = seed;
    return fuzz_case;
}

CaseOutcome
checkCase(const FuzzCase &fuzz_case)
{
    CaseOutcome outcome;
    if (fuzz_case.config.coherent()) {
        CoherentSystem fast(fuzz_case.config);
        outcome.fast = fast.run(fuzz_case.trace);
    } else {
        System fast(fuzz_case.config);
        outcome.fast = fast.run(fuzz_case.trace);
    }
    outcome.oracle = oracleRun(fuzz_case.config, fuzz_case.trace);
    outcome.diffs = diffResults(outcome.fast, outcome.oracle);
    if (stackEligible(fuzz_case.config)) {
        TraceRefSource source(fuzz_case.trace);
        diffStackCounters(
            runStackSweep(stackLattice(fuzz_case.config), source)[0],
            outcome.oracle, outcome.diffs);
    }
    if (!fuzz_case.config.coherent())
        diffLockstepBatch(fuzz_case, outcome.oracle, outcome.diffs);
    if (chainEligible(fuzz_case.config))
        diffChainBatch(fuzz_case, outcome.oracle, outcome.diffs);
    outcome.mismatch = !outcome.diffs.empty();
    return outcome;
}

FuzzCase
minimizeCase(const FuzzCase &fuzz_case)
{
    if (!stillFails(fuzz_case))
        return fuzz_case;
    FuzzCase shrunk = fuzz_case;
    shrunk.trace = minimizeTrace(shrunk.config, shrunk.trace,
                                 shrunk.seed);
    shrunk.config = minimizeConfig(shrunk.config, shrunk.trace,
                                   shrunk.seed);
    // Config passes may have opened up further trace removals.
    shrunk.trace = minimizeTrace(shrunk.config, shrunk.trace,
                                 shrunk.seed);
    return shrunk;
}

void
writeRepro(const std::string &path, const FuzzCase &fuzz_case,
           const std::string &note)
{
    if (!fuzz_case.config.midLevels.empty())
        fatal("writeRepro: explicit midLevels are not serializable; "
              "use the hasL2 sugar");
    std::ofstream os(path);
    if (!os)
        fatal("writeRepro: cannot open '%s'", path.c_str());
    os << "# cachetime differential repro\n";
    os << "# replay: cachetime_verify --repro " << path << "\n";
    os << "# seed " << fuzz_case.seed << "\n";
    std::istringstream note_lines(note);
    std::string line;
    while (std::getline(note_lines, line))
        os << "# " << line << "\n";
    os << "%config\n" << configKeyValues(fuzz_case.config);
    os << "%trace\n";
    writeText(fuzz_case.trace, os);
    if (!os)
        fatal("writeRepro: write to '%s' failed", path.c_str());
}

FuzzCase
loadRepro(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("loadRepro: cannot open '%s'", path.c_str());

    FuzzCase fuzz_case;
    std::string config_text;
    std::string trace_text;
    std::string line;
    enum { Preamble, Config, TraceBody } section = Preamble;
    while (std::getline(is, line)) {
        if (line == "%config") {
            section = Config;
            continue;
        }
        if (line == "%trace") {
            section = TraceBody;
            continue;
        }
        if (section == Preamble) {
            // "# seed N" carries the generating seed.
            std::istringstream probe(line);
            std::string hash, word;
            std::uint64_t value;
            if (probe >> hash >> word >> value && hash == "#" &&
                word == "seed") {
                fuzz_case.seed = value;
            }
            continue;
        }
        (section == Config ? config_text : trace_text) += line;
        (section == Config ? config_text : trace_text) += "\n";
    }
    if (config_text.empty() || trace_text.empty())
        fatal("loadRepro: '%s' lacks %%config/%%trace sections",
              path.c_str());

    applyKeyValues(fuzz_case.config, config_text);
    std::istringstream trace_stream(trace_text);
    fuzz_case.trace = readText(trace_stream, "repro");
    return fuzz_case;
}

FuzzReport
runFuzz(const FuzzOptions &options)
{
    FuzzReport report;
    if (options.progress)
        options.progress->setTotal(options.cases, "cases");
    for (std::uint64_t i = 0; i < options.cases; ++i) {
        std::uint64_t seed = options.seed + i;
        FuzzCase fuzz_case = generateCase(seed);
        CaseOutcome outcome = checkCase(fuzz_case);
        ++report.casesRun;
        if (options.progress)
            options.progress->update(report.casesRun);
        if (options.progressEvery != 0 &&
            report.casesRun % options.progressEvery == 0) {
            std::fprintf(stderr, "fuzz: %llu/%llu cases ok\n",
                         static_cast<unsigned long long>(
                             report.casesRun),
                         static_cast<unsigned long long>(
                             options.cases));
        }
        if (!outcome.mismatch)
            continue;

        ++report.mismatches;
        report.firstBadSeed = seed;
        report.firstDiff = formatDiffs(outcome.diffs);
        FuzzCase shrunk = options.minimize
                              ? minimizeCase(fuzz_case)
                              : fuzz_case;
        report.reproPath = options.reproDir + "/cachetime_repro_" +
                           std::to_string(seed) + ".txt";
        CaseOutcome shrunk_outcome = checkCase(shrunk);
        writeRepro(report.reproPath, shrunk,
                   "first differing fields:\n" +
                       formatDiffs(shrunk_outcome.diffs));
        break; // one shrunk failure beats a count of raw ones
    }
    if (options.progress)
        options.progress->finish();
    return report;
}

} // namespace verify
} // namespace cachetime
