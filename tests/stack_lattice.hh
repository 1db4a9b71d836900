/**
 * @file
 * Shared fixtures of the stack-kernel suites (StackSim against brute
 * force, ShardedSweep across thread counts): eligible machine
 * builders, the exact-counter comparison, and the inclusion-chain
 * lattice with its warm-gated fuzz traces.
 */

#ifndef CACHETIME_TESTS_STACK_LATTICE_HH
#define CACHETIME_TESTS_STACK_LATTICE_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_result.hh"
#include "sim/system_config.hh"
#include "trace/trace.hh"
#include "verify/fuzz.hh"

namespace cachetime
{
namespace stack_test
{

/** An eligible unified machine with everything else at baseline. */
inline SystemConfig
unifiedConfig(std::uint64_t size_words, unsigned block_words,
              unsigned assoc, AllocPolicy alloc, bool virtual_tags)
{
    SystemConfig config = SystemConfig::paperDefault();
    config.split = false;
    config.dcache.sizeWords = size_words;
    config.dcache.blockWords = block_words;
    config.dcache.fetchWords = 0;
    config.dcache.assoc = assoc;
    config.dcache.replPolicy =
        assoc == 1 ? ReplPolicy::Random : ReplPolicy::LRU;
    config.dcache.allocPolicy = alloc;
    config.dcache.virtualTags = virtual_tags;
    return config;
}

/** Split variant; both L1s get the shape, D side the alloc policy. */
inline SystemConfig
splitConfig(std::uint64_t size_words, unsigned block_words,
            unsigned assoc, AllocPolicy alloc, bool pair_issue,
            bool virtual_tags = true)
{
    SystemConfig config = unifiedConfig(size_words, block_words,
                                        assoc, alloc, virtual_tags);
    config.split = true;
    config.icache = config.dcache;
    config.icache.allocPolicy = AllocPolicy::NoWriteAllocate;
    config.cpu.pairIssue = pair_issue;
    return config;
}

/** Every counter the stack kernel claims exact, compared exactly. */
inline void
expectCountersEqual(const SimResult &got, const SimResult &want,
                    const std::string &context)
{
    EXPECT_EQ(got.refs, want.refs) << context;
    EXPECT_EQ(got.readRefs, want.readRefs) << context;
    EXPECT_EQ(got.writeRefs, want.writeRefs) << context;
    EXPECT_EQ(got.groups, want.groups) << context;
    EXPECT_EQ(got.icache.readAccesses, want.icache.readAccesses)
        << context;
    EXPECT_EQ(got.icache.readMisses, want.icache.readMisses)
        << context;
    EXPECT_EQ(got.dcache.readAccesses, want.dcache.readAccesses)
        << context;
    EXPECT_EQ(got.dcache.readMisses, want.dcache.readMisses)
        << context;
    EXPECT_EQ(got.dcache.writeAccesses, want.dcache.writeAccesses)
        << context;
    EXPECT_EQ(got.dcache.writeMisses, want.dcache.writeMisses)
        << context;
}

/**
 * A lattice built to stress the direct-mapped inclusion chains:
 * sizes with gaps ({16, 64, 128, 1024} words) at block sizes 1 and
 * 4, crossed with both allocation policies and both tag regimes (8
 * chains of 4 layers per role); a lone 8-word-block point (a
 * single-layer chain); and two 2-way LRU points at block size 4 -
 * one with a set count of its own, one sharing the 16-set layer of
 * the 64-word write-allocate virtually tagged point, which turns
 * that layer deep and leaves a gap in its chain.
 */
inline std::vector<SystemConfig>
chainLattice(bool split, bool pair)
{
    auto make = [&](std::uint64_t words, unsigned block,
                    unsigned assoc, AllocPolicy alloc,
                    bool virtual_tags) {
        return split ? splitConfig(words, block, assoc, alloc, pair,
                                   virtual_tags)
                     : unifiedConfig(words, block, assoc, alloc,
                                     virtual_tags);
    };
    std::vector<SystemConfig> configs;
    for (unsigned block : {1u, 4u}) {
        for (std::uint64_t words : {16u, 64u, 128u, 1024u}) {
            for (AllocPolicy alloc : {AllocPolicy::NoWriteAllocate,
                                      AllocPolicy::WriteAllocate}) {
                for (bool virtual_tags : {true, false})
                    configs.push_back(make(words, block, 1, alloc,
                                           virtual_tags));
            }
        }
    }
    configs.push_back(
        make(256, 8, 1, AllocPolicy::WriteAllocate, true));
    configs.push_back(
        make(512, 4, 2, AllocPolicy::NoWriteAllocate, true));
    configs.push_back(
        make(128, 4, 2, AllocPolicy::WriteAllocate, true));
    return configs;
}

/**
 * Twenty fuzz traces from @p first_seed on; every other one gets a
 * warm start and two mid-trace warm segments.
 */
inline std::vector<Trace>
chainTraces(std::uint64_t first_seed)
{
    std::vector<Trace> traces;
    for (std::uint64_t seed = first_seed; seed < first_seed + 20;
         ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        if (seed % 2 == 0 || trace.size() < 40) {
            traces.push_back(std::move(trace));
            continue;
        }
        Trace warmed(trace.name(), trace.refs(), trace.size() / 8);
        const std::size_t third = trace.size() / 3;
        warmed.setWarmSegments(
            {{third, third + trace.size() / 10 + 1},
             {2 * third, 2 * third + trace.size() / 12 + 1}});
        traces.push_back(std::move(warmed));
    }
    return traces;
}

} // namespace stack_test
} // namespace cachetime

#endif // CACHETIME_TESTS_STACK_LATTICE_HH
