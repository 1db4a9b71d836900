/**
 * @file
 * The single-pass stack kernel against brute force: every L1 miss
 * counter it produces must be bit-identical to a full per-config
 * simulation, across associativities, block sizes, write-allocation
 * policies, PID-fused tags, warm starts and warm segments - and
 * runMissRatioMany's aggregated doubles must equal runGeoMeanMany's
 * exactly, whichever engine each grid point rode.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "core/stack_sim.hh"
#include "stack_lattice.hh"
#include "verify/fuzz.hh"

namespace cachetime
{
namespace
{

using namespace stack_test;

void
sweepAndCompare(const std::vector<SystemConfig> &configs,
                const Trace &trace, std::uint64_t seed)
{
    TraceRefSource source(trace);
    std::vector<SimResult> swept = runStackSweep(configs, source);
    ASSERT_EQ(swept.size(), configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        SimResult full = simulateOne(configs[c], trace);
        expectCountersEqual(swept[c], full,
                            "seed " + std::to_string(seed) +
                                " config " +
                                configs[c].describe());
    }
}

TEST(StackSim, EligibilityGate)
{
    SystemConfig config = SystemConfig::paperDefault();
    EXPECT_TRUE(stackEligible(config)); // direct-mapped baseline

    SystemConfig physical = config;
    physical.addressing = AddressMode::Physical;
    EXPECT_FALSE(stackEligible(physical));

    SystemConfig prefetch = config;
    prefetch.icache.prefetchPolicy = PrefetchPolicy::OnMiss;
    EXPECT_FALSE(stackEligible(prefetch));

    SystemConfig victim = config;
    victim.dcache.victimEntries = 4;
    EXPECT_FALSE(stackEligible(victim));

    SystemConfig subblock = config;
    subblock.setL1BlockWords(8);
    subblock.dcache.fetchWords = 4;
    EXPECT_FALSE(stackEligible(subblock));

    SystemConfig lru = config;
    lru.setL1Assoc(4);
    lru.icache.replPolicy = ReplPolicy::LRU;
    lru.dcache.replPolicy = ReplPolicy::LRU;
    EXPECT_TRUE(stackEligible(lru));

    SystemConfig random = config;
    random.setL1Assoc(2);
    random.icache.replPolicy = ReplPolicy::Random;
    random.dcache.replPolicy = ReplPolicy::Random;
    EXPECT_FALSE(stackEligible(random));

    // Direct-mapped: every replacement policy is the same machine.
    SystemConfig fifo = config;
    fifo.dcache.replPolicy = ReplPolicy::FIFO;
    EXPECT_TRUE(stackEligible(fifo));
}

/**
 * Unified machines: one pass over each fuzz trace must reproduce
 * brute force for a grid crossing size, associativity, block size
 * and both write-allocation policies - the no-write-allocate points
 * are the ones a classic single-stack simulator gets wrong.
 */
TEST(StackSim, UnifiedMatchesBruteForce)
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t words : {64u, 256u, 1024u}) {
        for (unsigned assoc : {1u, 2u, 4u}) {
            configs.push_back(
                unifiedConfig(words, 4, assoc,
                              AllocPolicy::NoWriteAllocate, true));
            configs.push_back(unifiedConfig(
                words, 4, assoc, AllocPolicy::WriteAllocate, true));
        }
        configs.push_back(unifiedConfig(
            words, 8, 2, AllocPolicy::NoWriteAllocate, true));
    }
    // Shared-tag (no PID in the tag) points, exercising pidMask = 0.
    configs.push_back(
        unifiedConfig(256, 4, 1, AllocPolicy::NoWriteAllocate,
                      false));
    configs.push_back(
        unifiedConfig(256, 4, 2, AllocPolicy::WriteAllocate, false));

    for (std::uint64_t seed = 90001; seed < 90021; ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        sweepAndCompare(configs, trace, seed);
    }
}

/** Split machines, with and without paired issue. */
TEST(StackSim, SplitMatchesBruteForce)
{
    for (bool pair : {false, true}) {
        std::vector<SystemConfig> configs;
        for (std::uint64_t words : {128u, 512u}) {
            for (unsigned assoc : {1u, 2u}) {
                configs.push_back(splitConfig(
                    words, 4, assoc, AllocPolicy::NoWriteAllocate,
                    pair));
                configs.push_back(splitConfig(
                    words, 8, assoc, AllocPolicy::WriteAllocate,
                    pair));
            }
        }
        for (std::uint64_t seed = 91001; seed < 91011; ++seed) {
            Trace trace = verify::generateCase(seed).trace;
            sweepAndCompare(configs, trace, seed);
        }
    }
}

/**
 * Fully-associative deep stacks: associativity equal to the block
 * count exercises the cascade all the way to the deletion case.
 */
TEST(StackSim, FullyAssociativeMatchesBruteForce)
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t words : {64u, 128u}) {
        configs.push_back(unifiedConfig(
            words, 4, static_cast<unsigned>(words / 4),
            AllocPolicy::WriteAllocate, true));
        configs.push_back(unifiedConfig(
            words, 4, static_cast<unsigned>(words / 4),
            AllocPolicy::NoWriteAllocate, true));
    }
    for (std::uint64_t seed = 92001; seed < 92011; ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        sweepAndCompare(configs, trace, seed);
    }
}

/**
 * Warm-start boundaries and mid-trace warm segments gate the
 * histograms exactly as they gate System's stats: state always
 * advances, only measured accesses are counted.
 */
TEST(StackSim, WarmSegmentsMatchBruteForce)
{
    std::vector<SystemConfig> configs{
        unifiedConfig(128, 4, 1, AllocPolicy::NoWriteAllocate, true),
        unifiedConfig(256, 4, 2, AllocPolicy::WriteAllocate, true),
        unifiedConfig(512, 8, 4, AllocPolicy::NoWriteAllocate,
                      true)};
    for (std::uint64_t seed = 93001; seed < 93021; ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        if (trace.size() < 40)
            continue;
        std::size_t warm = trace.size() / 8;
        Trace warmed(trace.name(), trace.refs(), warm);
        std::size_t third = trace.size() / 3;
        warmed.setWarmSegments(
            {{third, third + trace.size() / 10 + 1},
             {2 * third, 2 * third + trace.size() / 12 + 1}});
        sweepAndCompare(configs, warmed, seed);
    }
}

/**
 * Direct-mapped inclusion chains: sizes with gaps at two block
 * sizes, both allocation policies and tag regimes, a single-layer
 * chain and 2-way points beside (and inside) the chains, on unified
 * and split machines with and without pair issue, over warm-gated
 * fuzz traces.
 */
TEST(StackSim, InclusionChainsMatchBruteForce)
{
    const std::vector<Trace> traces = chainTraces(97001);
    for (auto [split, pair] :
         {std::pair{false, false}, {true, false}, {true, true}}) {
        const std::vector<SystemConfig> configs =
            chainLattice(split, pair);
        for (std::size_t t = 0; t < traces.size(); ++t)
            sweepAndCompare(configs, traces[t], 97001 + t);
    }
}

/**
 * Block addresses that differ only at or above bit 48 must not
 * alias in the direct-mapped probe: pid 1 alternating loads between
 * 0x1000 and 0x1000 + 2^60 misses on every one of them.  The chain
 * lattice then replays the fuzz traces with k * 2^60 added to every
 * odd-position address, so wide and narrow blocks share sets.
 */
TEST(StackSim, WideAddressesMatchBruteForce)
{
    SystemConfig config = SystemConfig::paperDefault();
    config.split = false;
    config.dcache.fetchWords = 0;
    std::vector<Ref> refs;
    for (int i = 0; i < 6; ++i) {
        refs.push_back({0x1000, RefKind::Load, 1});
        refs.push_back({0x1000 + (Addr{1} << 60), RefKind::Load, 1});
    }
    const Trace alternating("wide", refs, 0);
    EXPECT_EQ(simulateOne(config, alternating).dcache.readMisses, 12u);
    sweepAndCompare({config}, alternating, 0);

    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);
    EXPECT_EQ(runMissRatioMany({config}, {alternating})[0].readMissRatio,
              runGeoMeanMany({config}, {alternating})[0].readMissRatio);
    SimCache::global().setEnabled(cache_was_enabled);

    const std::vector<SystemConfig> lattice = chainLattice(false, false);
    const std::vector<Trace> traces = chainTraces(98001);
    for (std::size_t t = 0; t < traces.size(); ++t) {
        std::vector<Ref> wide = traces[t].refs();
        for (std::size_t i = 1; i < wide.size(); i += 2)
            wide[i].addr += Addr{1 + i % 15} << 60;
        Trace widened(traces[t].name(), std::move(wide),
                      traces[t].warmStart());
        widened.setWarmSegments(traces[t].warmSegments());
        sweepAndCompare(lattice, widened, 98001 + t);
    }
}

/**
 * The mode-selecting front end: a grid mixing stack-eligible points
 * with fused-lattice fallbacks (random-replacement set-associative)
 * must aggregate to exactly runGeoMeanMany's doubles.
 */
TEST(StackSim, MissRatioManyMatchesGeoMeanMany)
{
    std::vector<SystemConfig> configs;
    SystemConfig base = SystemConfig::paperDefault();
    for (std::uint64_t words : {1024u, 4096u}) {
        SystemConfig direct = base;
        direct.setL1SizeWordsEach(words);
        configs.push_back(direct); // eligible, split

        SystemConfig random = direct;
        random.setL1Assoc(2); // random replacement: fused fallback
        configs.push_back(random);

        SystemConfig unified = direct;
        unified.split = false;
        configs.push_back(unified); // eligible, second shape
    }

    std::vector<Trace> traces;
    for (std::uint64_t seed = 94001; seed < 94005; ++seed)
        traces.push_back(verify::generateCase(seed).trace);

    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);
    std::vector<MissRatioMetrics> fast =
        runMissRatioMany(configs, traces);
    std::vector<AggregateMetrics> reference =
        runGeoMeanMany(configs, traces);
    SimCache::global().setEnabled(cache_was_enabled);

    ASSERT_EQ(fast.size(), reference.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        EXPECT_EQ(fast[c].readMissRatio, reference[c].readMissRatio)
            << configs[c].describe();
        EXPECT_EQ(fast[c].ifetchMissRatio,
                  reference[c].ifetchMissRatio)
            << configs[c].describe();
        EXPECT_EQ(fast[c].loadMissRatio, reference[c].loadMissRatio)
            << configs[c].describe();
        EXPECT_EQ(fast[c].writeMissRatio,
                  reference[c].writeMissRatio)
            << configs[c].describe();
    }
}

/**
 * Memoization keys: a stack sweep's partial result must never
 * satisfy a full cycle-accurate lookup, while a full result does
 * satisfy a later miss-ratio query.
 */
TEST(StackSim, PartialResultsStayPartial)
{
    SystemConfig config = SystemConfig::paperDefault();
    config.setL1SizeWordsEach(512);
    Trace trace = verify::generateCase(95001).trace;
    std::vector<Trace> traces{trace};
    std::vector<SystemConfig> configs{config};

    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(true);
    SimCache::global().clear();

    // Stack first: the full key must stay vacant...
    runMissRatioMany(configs, traces);
    SimKey full_key = simKey(config, traceIdentityHash(trace));
    EXPECT_EQ(SimCache::global().find(full_key), nullptr);

    // ...so the timing run still simulates, and its (cached) cycles
    // are real rather than a partial result's zeros.
    AggregateMetrics timed = runGeoMean(config, traces);
    if (trace.warmStart() < trace.size()) {
        EXPECT_GT(timed.cyclesPerRef, 0.0);
    }
    EXPECT_NE(SimCache::global().find(full_key), nullptr);

    SimCache::global().clear();
    SimCache::global().setEnabled(cache_was_enabled);
}

} // namespace
} // namespace cachetime
