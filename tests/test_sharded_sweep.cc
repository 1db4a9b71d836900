/**
 * @file
 * The set-sharded stack kernel and the pipelined feeder against
 * their serial counterparts: runStackSweep must be bit-identical at
 * every thread count (the shard routing, local-set remap and
 * fixed-order merge are pure bookkeeping), the shard-key derivation
 * must match its specification, grids with no shared set-index bits
 * must fall back to the serial kernel unchanged, runMissRatioMany
 * must aggregate to the same doubles as one full simulation per
 * (config, trace) whichever engine and thread count each point rode
 * (including coherent configs, which the stack kernel rejects onto
 * the fused lattice), and PipelinedFeeder
 * must produce ChunkFeeder's span sequence byte for byte.
 *
 * Every test here saves and restores the process-wide pool size, so
 * the suite is safe to interleave with the other parallel suites
 * under TSAN (ctest -L 'parallel|coherence|sweep').
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "core/stack_sim.hh"
#include "trace/ref_source.hh"
#include "trace/workloads.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "stack_lattice.hh"
#include "verify/fuzz.hh"

namespace cachetime
{
namespace
{

using namespace stack_test;

/** RAII pool-size override: restores the original size on exit. */
class ThreadGuard
{
  public:
    ThreadGuard() : original_(parallelThreads()) {}
    ~ThreadGuard() { setParallelThreads(original_); }
    ThreadGuard(const ThreadGuard &) = delete;
    ThreadGuard &operator=(const ThreadGuard &) = delete;

  private:
    unsigned original_;
};

/** One stack sweep at an explicit pool size. */
std::vector<SimResult>
sweepAt(unsigned threads, const std::vector<SystemConfig> &configs,
        const Trace &trace)
{
    setParallelThreads(threads);
    TraceRefSource source(trace);
    return runStackSweep(configs, source);
}

/**
 * The core property: the one-thread sweep (always the serial
 * kernel) is the reference, and every wider pool must reproduce it
 * counter for counter.
 */
void
compareAcrossThreads(const std::vector<SystemConfig> &configs,
                     const Trace &trace, std::uint64_t seed)
{
    ThreadGuard guard;
    std::vector<SimResult> serial = sweepAt(1, configs, trace);
    ASSERT_EQ(serial.size(), configs.size());
    for (unsigned threads : {2u, 8u}) {
        std::vector<SimResult> sharded =
            sweepAt(threads, configs, trace);
        ASSERT_EQ(sharded.size(), configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            expectCountersEqual(
                sharded[c], serial[c],
                "seed " + std::to_string(seed) + " threads " +
                    std::to_string(threads) + " config " +
                    configs[c].describe());
        }
    }
}

/**
 * A fill()-only view of a Trace: hides borrow() so the feeders take
 * the chunked decode path, which is what the pipeline overlaps.
 */
class FillOnlySource : public RefSource
{
  public:
    explicit FillOnlySource(const Trace &trace) : trace_(&trace) {}

    const std::string &name() const override { return trace_->name(); }
    std::uint64_t size() const override { return trace_->size(); }
    std::size_t warmStart() const override
    {
        return trace_->warmStart();
    }
    void reset() override { pos_ = 0; }

    std::size_t
    fill(Ref *out, std::size_t max) override
    {
        const std::vector<Ref> &refs = trace_->refs();
        std::size_t n = std::min(max, refs.size() - pos_);
        std::copy_n(refs.data() + pos_, n, out);
        pos_ += n;
        return n;
    }

  private:
    const Trace *trace_;
    std::size_t pos_ = 0;
};

/**
 * Unified grids crossing size, associativity, block size and both
 * write-allocation policies - the no-write-allocate points exercise
 * the a-star augmentation inside every shard - plus shared-tag
 * points where the router's pid bits are dead weight.
 */
TEST(ShardedSweep, UnifiedGridBitIdenticalAcrossThreads)
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
    configs.push_back(
        unifiedConfig(256, 4, 1, AllocPolicy::NoWriteAllocate,
                      false));
    configs.push_back(
        unifiedConfig(256, 4, 2, AllocPolicy::WriteAllocate, false));

    for (std::uint64_t seed = 96001; seed < 96009; ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        compareAcrossThreads(configs, trace, seed);
    }
}

/** Split machines, with and without paired issue. */
TEST(ShardedSweep, SplitGridBitIdenticalAcrossThreads)
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
        for (std::uint64_t seed = 96101; seed < 96106; ++seed) {
            Trace trace = verify::generateCase(seed).trace;
            compareAcrossThreads(configs, trace, seed);
        }
    }
}

/**
 * Warm-start boundaries and mid-trace warm segments: the measured
 * flag is computed once in the router and carried to every shard,
 * so gating must be position-exact however references interleave.
 */
TEST(ShardedSweep, WarmSegmentsBitIdenticalAcrossThreads)
{
    std::vector<SystemConfig> configs{
        unifiedConfig(128, 4, 1, AllocPolicy::NoWriteAllocate, true),
        unifiedConfig(256, 4, 2, AllocPolicy::WriteAllocate, true),
        unifiedConfig(512, 8, 4, AllocPolicy::NoWriteAllocate,
                      true)};
    for (std::uint64_t seed = 96201; seed < 96211; ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        if (trace.size() < 40)
            continue;
        std::size_t warm = trace.size() / 8;
        Trace warmed(trace.name(), trace.refs(), warm);
        std::size_t third = trace.size() / 3;
        warmed.setWarmSegments(
            {{third, third + trace.size() / 10 + 1},
             {2 * third, 2 * third + trace.size() / 12 + 1}});
        compareAcrossThreads(configs, warmed, seed);
    }
}

/**
 * The direct-mapped inclusion chains (gapped sizes, both policies
 * and tag regimes, a single-layer chain, 2-way points beside the
 * chains) on unified and split machines: each shard walks its own
 * slices of the chains and folds its own histograms.
 */
TEST(ShardedSweep, InclusionChainsBitIdenticalAcrossThreads)
{
    const std::vector<Trace> traces = chainTraces(96401);
    for (auto [split, pair] :
         {std::pair{false, false}, {true, false}, {true, true}}) {
        const std::vector<SystemConfig> configs =
            chainLattice(split, pair);
        for (std::size_t t = 0; t < traces.size(); ++t)
            compareAcrossThreads(configs, traces[t], 96401 + t);
    }
}

/**
 * The shard key is the set-index bit range common to every layer:
 * bits above the largest block offset, below the smallest
 * set-index top, zero when the range is empty (fully-associative
 * points have no set-index bits at all).
 */
TEST(ShardedSweep, ShardBitsDerivation)
{
    // One direct-mapped layer: 1024/(4*1) = 256 sets over 4-word
    // blocks, so set-index bits [2, 10) - 8 routable bits.
    std::vector<SystemConfig> grid{unifiedConfig(
        1024, 4, 1, AllocPolicy::WriteAllocate, true)};
    EXPECT_EQ(stackShardBits(grid), 8u);

    // Add 512/(8*2) = 32 sets over 8-word blocks: bits [3, 8).
    // The shared range shrinks to [3, 8) - 5 bits.
    grid.push_back(unifiedConfig(512, 8, 2,
                                 AllocPolicy::WriteAllocate, true));
    EXPECT_EQ(stackShardBits(grid), 5u);

    // A fully-associative point has a single set: no shared bits
    // remain and the kernel must run serially.
    grid.push_back(unifiedConfig(64, 4, 16,
                                 AllocPolicy::WriteAllocate, true));
    EXPECT_EQ(stackShardBits(grid), 0u);

    // Split configs contribute both L1 layers to the fold.
    std::vector<SystemConfig> split_grid{splitConfig(
        1024, 4, 1, AllocPolicy::WriteAllocate, false)};
    EXPECT_EQ(stackShardBits(split_grid), 8u);

    EXPECT_EQ(stackShardBits({}), 0u);
}

/**
 * A grid containing a fully-associative point forces the serial
 * fallback even on a wide pool; the results must still match the
 * one-thread run (trivially - same kernel - but this pins the
 * fallback gate itself).
 */
TEST(ShardedSweep, SerialFallbackWhenNoSharedBits)
{
    std::vector<SystemConfig> configs{
        unifiedConfig(256, 4, 2, AllocPolicy::WriteAllocate, true),
        unifiedConfig(64, 4, 16, AllocPolicy::NoWriteAllocate,
                      true)};
    ASSERT_EQ(stackShardBits(configs), 0u);
    for (std::uint64_t seed = 96301; seed < 96304; ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        compareAcrossThreads(configs, trace, seed);
    }
}

/** One full simulateOne() per (config, trace), aggregated. */
std::vector<AggregateMetrics>
perConfigAggregates(const std::vector<SystemConfig> &configs,
                    const std::vector<Trace> &traces)
{
    std::vector<AggregateMetrics> aggregates;
    for (const SystemConfig &config : configs) {
        std::vector<std::shared_ptr<const SimResult>> results;
        for (const Trace &trace : traces)
            results.push_back(std::make_shared<const SimResult>(
                simulateOne(config, trace)));
        aggregates.push_back(aggregateResults(config, results));
    }
    return aggregates;
}

/**
 * The mode-selecting front end across pool sizes: stack-eligible
 * points ride the (sharded) stack kernel, random-replacement and
 * coherent points fall back to the fused lattice, and the
 * aggregated doubles must be equal - not close - to one full
 * simulation per (config, trace) at every thread count.  Two grids:
 * mixed engines over small fuzz cases, and the full Figure 3-1 size
 * axis over the Table 1 traces at a realistic scale.
 */
TEST(ShardedSweep, MissRatioManyBitIdenticalAcrossThreads)
{
    std::vector<SystemConfig> mixed;
    SystemConfig base = SystemConfig::paperDefault();
    for (std::uint64_t words : {1024u, 4096u}) {
        SystemConfig direct = base;
        direct.setL1SizeWordsEach(words);
        mixed.push_back(direct); // eligible, split

        SystemConfig random = direct;
        random.setL1Assoc(2); // random replacement: fused fallback
        mixed.push_back(random);
    }
    // A coherent config: rejected by stackEligible(), must ride the
    // fused lattice and still aggregate identically.
    SystemConfig coherent = base;
    coherent.cores = 2;
    coherent.protocol = CoherenceProtocol::MESI;
    coherent.applyCoherenceDefaults();
    mixed.push_back(coherent);
    std::vector<Trace> cases;
    for (std::uint64_t seed = 96401; seed < 96404; ++seed)
        cases.push_back(verify::generateCase(seed).trace);

    // 2KB .. 2MB per cache.
    std::vector<SystemConfig> fig3;
    for (unsigned log2_kb = 1; log2_kb <= 11; ++log2_kb) {
        SystemConfig config = base;
        config.setL1SizeWordsEach((std::uint64_t{1} << log2_kb) *
                                  1024 / 4);
        fig3.push_back(config);
    }

    struct Grid
    {
        const char *name;
        std::vector<SystemConfig> configs;
        std::vector<Trace> traces;
    };
    const Grid grids[] = {{"mixed", mixed, cases},
                          {"fig3", fig3, generateTable1(0.02)}};

    ThreadGuard guard;
    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);

    for (const Grid &grid : grids) {
        const std::vector<AggregateMetrics> reference =
            perConfigAggregates(grid.configs, grid.traces);
        for (unsigned threads : {1u, 2u, 8u}) {
            setParallelThreads(threads);
            std::vector<MissRatioMetrics> swept =
                runMissRatioMany(grid.configs, grid.traces);
            ASSERT_EQ(swept.size(), reference.size());
            for (std::size_t c = 0; c < grid.configs.size(); ++c) {
                std::string context =
                    std::string(grid.name) + " threads " +
                    std::to_string(threads) + " config " +
                    grid.configs[c].describe();
                EXPECT_EQ(swept[c].readMissRatio,
                          reference[c].readMissRatio)
                    << context;
                EXPECT_EQ(swept[c].ifetchMissRatio,
                          reference[c].ifetchMissRatio)
                    << context;
                EXPECT_EQ(swept[c].loadMissRatio,
                          reference[c].loadMissRatio)
                    << context;
                EXPECT_EQ(swept[c].writeMissRatio,
                          reference[c].writeMissRatio)
                    << context;
            }
        }
    }

    SimCache::global().setEnabled(cache_was_enabled);
}

/**
 * The pipelined feeder's span sequence, concatenated, must be the
 * reference stream ChunkFeeder produces - across multiple chunks
 * and through the held-back-IFetch carry rule - and the pipeline
 * must engage exactly when it can pay off: multi-thread pools over
 * fill()-only sources, never over zero-copy traces or one-thread
 * pools.
 */
TEST(ShardedSweep, PipelinedFeederMatchesChunkFeeder)
{
    // A synthetic stream long enough for several 16K-ref chunks,
    // with ifetches scattered so chunk boundaries hit the carry
    // rule, and a trailing ifetch to cover end-of-stream carry.
    std::vector<Ref> refs;
    Rng rng(96501);
    for (std::size_t i = 0; i < 50'000; ++i) {
        RefKind kind = RefKind::IFetch;
        std::uint64_t pick = rng.below(10);
        if (pick >= 6)
            kind = pick >= 8 ? RefKind::Store : RefKind::Load;
        refs.push_back(Ref{rng.below(1 << 20),
                           kind,
                           static_cast<Pid>(rng.below(3))});
    }
    refs.push_back(Ref{12345, RefKind::IFetch, 0});
    Trace trace("pipeline-check", refs, 0);

    ThreadGuard guard;
    setParallelThreads(8);

    auto drain = [](auto &feeder) {
        std::vector<Ref> out;
        while (ChunkFeeder::Span span = feeder.next())
            out.insert(out.end(), span.data,
                       span.data + span.size);
        return out;
    };

    FillOnlySource chunked_source(trace);
    ChunkFeeder chunked(chunked_source);
    std::vector<Ref> reference = drain(chunked);
    EXPECT_EQ(reference.size(), refs.size());
    EXPECT_TRUE(reference == refs);

    FillOnlySource piped_source(trace);
    PipelinedFeeder piped(piped_source);
    EXPECT_TRUE(piped.pipelined());
    std::vector<Ref> overlapped = drain(piped);
    EXPECT_TRUE(overlapped == reference);

    // Zero-copy sources bypass the thread entirely...
    TraceRefSource resident(trace);
    PipelinedFeeder borrowed(resident);
    EXPECT_FALSE(borrowed.pipelined());
    EXPECT_TRUE(drain(borrowed) == reference);

    // ...as does a one-thread pool over a fill()-only source.
    setParallelThreads(1);
    FillOnlySource serial_source(trace);
    PipelinedFeeder serial(serial_source);
    EXPECT_FALSE(serial.pipelined());
    EXPECT_TRUE(drain(serial) == reference);
}

} // namespace
} // namespace cachetime
