/**
 * @file
 * Property-based differential tests: fast path vs. oracle over the
 * randomized machine space, thread-count bit-identity, structural
 * invariants, and the repro/minimizer machinery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>

#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "core/sweep.hh"
#include "stack_lattice.hh"
#include "sim/coherent.hh"
#include "sim/system.hh"
#include "stats/interval.hh"
#include "stats/progress.hh"
#include "stats/trace_event.hh"
#include "trace/trace_v2.hh"
#include "util/parallel.hh"
#include "verify/fuzz.hh"
#include "verify/oracle.hh"

namespace cachetime
{
namespace
{

TEST(Differential, FuzzBatchAgrees)
{
    verify::FuzzOptions options;
    options.seed = 20001; // disjoint from the smoke target's range
    options.cases = 2500;
    options.reproDir = ::testing::TempDir();
    verify::FuzzReport report = verify::runFuzz(options);
    EXPECT_EQ(report.mismatches, 0u)
        << "seed " << report.firstBadSeed << "\n"
        << report.firstDiff << "repro: " << report.reproPath;
    EXPECT_EQ(report.casesRun, options.cases);
}

/** Expect every aggregate of @p got to equal @p want's, bit for bit. */
void
expectSameMetrics(const AggregateMetrics &got, const AggregateMetrics &want,
                  const std::string &where)
{
    EXPECT_EQ(got.cyclesPerRef, want.cyclesPerRef) << where;
    EXPECT_EQ(got.execNsPerRef, want.execNsPerRef) << where;
    EXPECT_EQ(got.readMissRatio, want.readMissRatio) << where;
    EXPECT_EQ(got.ifetchMissRatio, want.ifetchMissRatio) << where;
    EXPECT_EQ(got.loadMissRatio, want.loadMissRatio) << where;
    EXPECT_EQ(got.writeMissRatio, want.writeMissRatio) << where;
    EXPECT_EQ(got.readTrafficRatio, want.readTrafficRatio) << where;
    EXPECT_EQ(got.writeTrafficBlockRatio, want.writeTrafficBlockRatio)
        << where;
    EXPECT_EQ(got.writeTrafficWordRatio, want.writeTrafficWordRatio)
        << where;
}

/** Serialize the fields diffResults() compares, for batch equality. */
std::string
fingerprint(const SimResult &result)
{
    SimResult zero;
    std::string print;
    for (const verify::FieldDiff &diff :
         verify::diffResults(result, zero)) {
        print += diff.field + "=" + diff.lhs + ";";
    }
    return print;
}

TEST(Differential, BitIdenticalAcrossThreadCounts)
{
    const std::size_t cases = 64;
    const std::uint64_t base_seed = 40001;
    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);

    auto run_batch = [&](unsigned threads) {
        setParallelThreads(threads);
        return parallelMap<std::string>(cases, [&](std::size_t i) {
            verify::FuzzCase fuzz_case =
                verify::generateCase(base_seed + i);
            System fast(fuzz_case.config);
            return fingerprint(fast.run(fuzz_case.trace));
        });
    };

    std::vector<std::string> one = run_batch(1);
    std::vector<std::string> eight = run_batch(8);

    setParallelThreads(0); // back to the environment default
    SimCache::global().setEnabled(cache_was_enabled);

    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        EXPECT_EQ(one[i], eight[i]) << "seed " << base_seed + i;
}

/**
 * The observability hard invariant: running with every time-resolved
 * instrument live — an interval collector slicing the stream, an
 * open trace-event session, and a global progress meter fed by the
 * pool — must not change a single simulated counter, at any thread
 * count.  The window width is co-prime with the chunk size so
 * interval cuts land at arbitrary stream offsets.
 */
TEST(Differential, InstrumentedRunsBitIdenticalAcrossThreadCounts)
{
    const std::size_t cases = 32;
    const std::uint64_t base_seed = 90001;
    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);

    std::vector<verify::FuzzCase> corpus;
    std::vector<std::string> plain;
    for (std::size_t i = 0; i < cases; ++i) {
        corpus.push_back(verify::generateCase(base_seed + i));
        System system(corpus[i].config);
        plain.push_back(fingerprint(system.run(corpus[i].trace)));
    }

    std::string trace_path =
        ::testing::TempDir() + "/instrumented_diff_trace.json";
    ProgressMeter meter;
    ASSERT_TRUE(meter.openSpec("/dev/null"));
    meter.setTotal(cases * 2, "cases");

    auto run_instrumented = [&](unsigned threads) {
        setParallelThreads(threads);
        return parallelMap<std::string>(cases, [&](std::size_t i) {
            IntervalCollector collector(97);
            System system(corpus[i].config);
            system.setIntervalCollector(&collector);
            SimResult result = system.run(corpus[i].trace);
            // The windows must still sum to the aggregate run.
            IntervalCounters sum;
            for (const IntervalRecord &record : collector.records())
                sum.add(record.c);
            EXPECT_EQ(sum.refs, result.refs);
            EXPECT_EQ(sum.cycles,
                      static_cast<std::uint64_t>(result.cycles));
            meter.bump(1);
            return fingerprint(result);
        });
    };

    ASSERT_TRUE(trace_event::beginSession(trace_path));
    progress::setGlobal(&meter);
    std::vector<std::string> one = run_instrumented(1);
    std::vector<std::string> eight = run_instrumented(8);
    progress::setGlobal(nullptr);
    ASSERT_TRUE(trace_event::endSession());
    meter.finish();
    std::remove(trace_path.c_str());

    setParallelThreads(0);
    SimCache::global().setEnabled(cache_was_enabled);

    for (std::size_t i = 0; i < cases; ++i) {
        EXPECT_EQ(one[i], plain[i]) << "seed " << base_seed + i;
        EXPECT_EQ(eight[i], plain[i]) << "seed " << base_seed + i;
    }
}

/**
 * The streaming pipeline must reproduce the materialized path bit
 * for bit, at any thread count.  Each fuzz trace is written to a
 * format-v2 file and replayed through a per-task V2FileSource (the
 * sources are single-consumer, so every worker opens its own), then
 * compared against the in-memory run of the same case.
 */
TEST(Differential, StreamedBitIdenticalAcrossThreadCounts)
{
    const std::size_t cases = 24;
    const std::uint64_t base_seed = 80001;
    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);

    std::vector<verify::FuzzCase> corpus;
    std::vector<std::string> paths;
    std::vector<std::string> eager;
    for (std::size_t i = 0; i < cases; ++i) {
        corpus.push_back(verify::generateCase(base_seed + i));
        paths.push_back(::testing::TempDir() + "/stream_case_" +
                        std::to_string(i) + ".trace");
        writeV2(corpus[i].trace, paths[i]);
        System system(corpus[i].config);
        eager.push_back(fingerprint(system.run(corpus[i].trace)));
    }

    auto run_streamed = [&](unsigned threads) {
        setParallelThreads(threads);
        return parallelMap<std::string>(cases, [&](std::size_t i) {
            V2FileSource source(paths[i]);
            System system(corpus[i].config);
            return fingerprint(system.run(source));
        });
    };

    std::vector<std::string> one = run_streamed(1);
    std::vector<std::string> eight = run_streamed(8);

    setParallelThreads(0);
    SimCache::global().setEnabled(cache_was_enabled);

    for (std::size_t i = 0; i < cases; ++i) {
        EXPECT_EQ(one[i], eager[i]) << "seed " << base_seed + i;
        EXPECT_EQ(eight[i], eager[i]) << "seed " << base_seed + i;
        std::remove(paths[i].c_str());
    }
}

/**
 * The fused batch replays one trace decode across many machines;
 * every machine's result must be bit-identical to its own serial
 * run, whatever configs share the batch.
 */
TEST(Differential, FusedBatchMatchesSerialRuns)
{
    const std::size_t cases = 8;
    const std::uint64_t base_seed = 45001;
    std::vector<verify::FuzzCase> corpus;
    std::vector<SystemConfig> configs;
    for (std::size_t i = 0; i < cases; ++i) {
        corpus.push_back(verify::generateCase(base_seed + i));
        configs.push_back(corpus.back().config);
    }

    // Every trace against the full config batch: machines in a
    // batch need not have anything in common with the trace's
    // generating config.
    for (std::size_t t = 0; t < cases; ++t) {
        TraceRefSource source(corpus[t].trace);
        std::vector<SimResult> batch = simulateBatch(configs, source);
        ASSERT_EQ(batch.size(), configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            // The fuzzer draws coherent machines too; the serial
            // reference must dispatch the way the batch engine does.
            SimResult expected;
            if (configs[c].coherent()) {
                CoherentSystem serial(configs[c]);
                expected = serial.run(corpus[t].trace);
            } else {
                System serial(configs[c]);
                expected = serial.run(corpus[t].trace);
            }
            EXPECT_EQ(fingerprint(batch[c]), fingerprint(expected))
                << "trace seed " << base_seed + t << " config seed "
                << base_seed + c;
        }
    }
}

/**
 * The batched sweep entry point must aggregate to the same doubles
 * at any thread count (the batch width depends on the pool size, so
 * this pins width-independence too).
 */
TEST(Differential, BatchedSweepBitIdenticalAcrossThreadCounts)
{
    const std::uint64_t base_seed = 46001;
    std::vector<SystemConfig> configs;
    std::vector<Trace> traces;
    for (std::size_t i = 0; i < 12; ++i)
        configs.push_back(
            verify::generateCase(base_seed + i).config);
    for (std::size_t t = 0; t < 3; ++t)
        traces.push_back(
            verify::generateCase(base_seed + 100 + t).trace);

    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);

    auto run_at = [&](unsigned threads) {
        setParallelThreads(threads);
        return runGeoMeanMany(configs, traces);
    };
    std::vector<AggregateMetrics> one = run_at(1);
    std::vector<AggregateMetrics> eight = run_at(8);

    setParallelThreads(0);
    SimCache::global().setEnabled(cache_was_enabled);

    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t c = 0; c < one.size(); ++c)
        expectSameMetrics(one[c], eight[c], "config " + std::to_string(c));
}

/**
 * Sharing an L1 front must not depend on how the caller lists the
 * grid: a size-major and a cycle-major listing of one lattice (every
 * organization x timing-only siblings) aggregate to the same doubles
 * per config, at 1 and 8 threads.  The cycle-major listing interleaves
 * organizations, so only lockstepOrder() lets it share.
 */
TEST(Differential, BatchedSweepIndependentOfGridOrder)
{
    const std::uint64_t base_seed = 46501;
    std::vector<std::vector<SystemConfig>> orgs;
    for (std::uint64_t seed = base_seed; orgs.size() < 3; ++seed) {
        SystemConfig config = verify::generateCase(seed).config;
        if (config.coherent())
            continue;
        std::vector<SystemConfig> group =
            verify::lockstepSiblings(config);
        group.resize(4);
        orgs.push_back(std::move(group));
    }
    std::vector<Trace> traces;
    for (std::size_t t = 0; t < 3; ++t)
        traces.push_back(
            verify::generateCase(base_seed + 100 + t).trace);

    // size-major: org-outer; cycle-major: timing-outer.
    std::vector<SystemConfig> size_major, cycle_major;
    for (const auto &group : orgs)
        for (const SystemConfig &config : group)
            size_major.push_back(config);
    for (std::size_t k = 0; k < 4; ++k)
        for (const auto &group : orgs)
            cycle_major.push_back(group[k]);

    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);
    std::vector<std::vector<AggregateMetrics>> by_size, by_cycle;
    for (unsigned threads : {1u, 8u}) {
        setParallelThreads(threads);
        by_size.push_back(runGeoMeanMany(size_major, traces));
        by_cycle.push_back(runGeoMeanMany(cycle_major, traces));
    }
    setParallelThreads(0);
    SimCache::global().setEnabled(cache_was_enabled);

    for (std::size_t g = 0; g < orgs.size(); ++g) {
        for (std::size_t k = 0; k < 4; ++k) {
            const AggregateMetrics &want = by_size[0][g * 4 + k];
            const std::string where = "org " + std::to_string(g) +
                                      " sibling " + std::to_string(k);
            expectSameMetrics(by_size[1][g * 4 + k], want, where);
            for (const auto &run : by_cycle)
                expectSameMetrics(run[k * orgs.size() + g], want,
                                  where);
        }
    }
}

/**
 * A lockstep group - a config and its timing-only siblings sharing
 * one L1 front - must give every member its serial result, whichever
 * member leads, over traces with a warm start and mid-trace warm
 * segments (where the shared L1 statistics are split).  A sibling
 * with couplet pairing flipped rides along: it shares the L1
 * organization but crosses warm boundaries elsewhere, so it must not
 * join the group.
 */
TEST(Differential, FusedBatchLockstepMatchesSerialRuns)
{
    const std::vector<Trace> traces = stack_test::chainTraces(45501);
    std::size_t checked = 0;
    for (std::uint64_t seed = 45601; checked < 12; ++seed) {
        const SystemConfig config = verify::generateCase(seed).config;
        if (config.coherent())
            continue;
        ++checked;
        std::vector<SystemConfig> group =
            verify::lockstepSiblings(config);
        group.push_back(config);
        group.back().cpu.pairIssue = !config.cpu.pairIssue;
        std::vector<SystemConfig> reversed(group.rbegin(), group.rend());
        const Trace &trace = traces[checked % traces.size()];
        for (const auto *batch : {&group, &reversed}) {
            TraceRefSource source(trace);
            std::vector<SimResult> out = simulateBatch(*batch, source);
            ASSERT_EQ(out.size(), batch->size());
            for (std::size_t k = 0; k < batch->size(); ++k) {
                System serial((*batch)[k]);
                EXPECT_EQ(fingerprint(out[k]),
                          fingerprint(serial.run(trace)))
                    << "config seed " << seed << " member " << k
                    << " trace " << trace.name();
            }
        }
    }
}

/**
 * Components are built per run: a machine that runs twice must give
 * what two fresh machines give, including after a run whose warm
 * start and segments differ from the next one's.
 */
TEST(Differential, ConsecutiveRunsMatchFreshMachines)
{
    const std::vector<Trace> traces = stack_test::chainTraces(47001);
    for (std::uint64_t seed = 47101; seed < 47131; ++seed) {
        const SystemConfig config = verify::generateCase(seed).config;
        if (config.coherent())
            continue;
        const Trace &a = traces[seed % traces.size()];
        const Trace &b = traces[(seed + 1) % traces.size()];
        System reused(config);
        SimResult first = reused.run(a);
        SimResult second = reused.run(b);
        EXPECT_EQ(fingerprint(first), fingerprint(System(config).run(a)))
            << "seed " << seed;
        EXPECT_EQ(fingerprint(second),
                  fingerprint(System(config).run(b)))
            << "seed " << seed;
    }
}

TEST(Differential, CycleConservation)
{
    for (std::uint64_t seed = 50001; seed < 50101; ++seed) {
        verify::FuzzCase fuzz_case = verify::generateCase(seed);
        if (fuzz_case.trace.warmStart() != 0)
            continue;
        SimResult result =
            verify::oracleRun(fuzz_case.config, fuzz_case.trace);
        // Every reference is measured and every group advances the
        // clock by at least one cycle.
        EXPECT_EQ(result.refs, fuzz_case.trace.size())
            << "seed " << seed;
        EXPECT_GE(result.cycles,
                  static_cast<Tick>(result.groups))
            << "seed " << seed;
        EXPECT_GE(result.stallReadCycles, 0) << "seed " << seed;
        EXPECT_GE(result.stallWriteCycles, 0) << "seed " << seed;
        EXPECT_GE(result.stallTlbCycles, 0) << "seed " << seed;
        // I and D service can overlap inside a couplet, so each
        // stall class alone is bounded by the wall clock it could
        // have occupied.
        EXPECT_LE(result.stallTlbCycles, 2 * result.cycles)
            << "seed " << seed;
    }
}

TEST(Differential, MissClassInclusion)
{
    for (std::uint64_t seed = 60001; seed < 60101; ++seed) {
        verify::FuzzCase fuzz_case = verify::generateCase(seed);
        SimResult result =
            verify::oracleRun(fuzz_case.config, fuzz_case.trace);
        std::vector<CacheStats> caches{result.icache, result.dcache};
        for (const CacheStats &stats : result.midLevels)
            caches.push_back(stats);
        for (const CacheStats &stats : caches) {
            EXPECT_LE(stats.readMisses, stats.readAccesses);
            EXPECT_LE(stats.writeMisses, stats.writeAccesses);
            EXPECT_LE(stats.subBlockMisses, stats.readMisses);
            EXPECT_LE(stats.dirtyBlocksReplaced,
                      stats.blocksReplaced);
        }
        std::vector<WriteBufferStats> buffers{result.l1Buffer};
        for (const WriteBufferStats &stats : result.midBuffers)
            buffers.push_back(stats);
        for (const WriteBufferStats &stats : buffers) {
            EXPECT_LE(stats.coalesced, stats.enqueued);
            // Entries still queued at the end of the run account
            // for retired falling short of enqueued; entries that
            // straddle the warm-start stats reset can push it the
            // other way, so only cold runs pin the inequality.
            if (fuzz_case.trace.warmStart() == 0) {
                EXPECT_LE(stats.retired,
                          stats.enqueued - stats.coalesced);
            }
        }
    }
}

/**
 * The LRU stack property: with full associativity and whole-block
 * fetches, a larger cache's contents always include a smaller
 * one's, so misses are monotone in capacity.
 */
TEST(Differential, MonotoneMissesUnderGrowingSize)
{
    for (std::uint64_t seed = 70001; seed < 70021; ++seed) {
        Trace trace = verify::generateCase(seed).trace;
        std::uint64_t prev_misses = ~0ull;
        for (std::uint64_t words : {64u, 128u, 256u, 512u, 1024u}) {
            SystemConfig config = SystemConfig::paperDefault();
            config.split = false;
            config.dcache.sizeWords = words;
            config.dcache.blockWords = 4;
            config.dcache.fetchWords = 0;
            config.dcache.assoc =
                static_cast<unsigned>(words / 4); // fully assoc
            config.dcache.replPolicy = ReplPolicy::LRU;
            config.dcache.allocPolicy = AllocPolicy::WriteAllocate;
            SimResult result =
                verify::oracleRun(config, trace);
            std::uint64_t misses = result.dcache.readMisses +
                                   result.dcache.writeMisses;
            EXPECT_LE(misses, prev_misses)
                << "seed " << seed << " size " << words;
            prev_misses = misses;
        }
    }
}

/**
 * Coherent mode vs. the reference oracle: 200 fuzzed multi-core
 * machines (random core counts, protocols, mapping policies and
 * sharing traces) must agree field for field.
 */
TEST(Differential, CoherentOracleAgrees)
{
    for (std::uint64_t seed = 55001; seed < 55201; ++seed) {
        verify::FuzzCase fuzz_case =
            verify::generateCoherentCase(seed);
        ASSERT_TRUE(fuzz_case.config.coherent()) << "seed " << seed;
        verify::CaseOutcome outcome = verify::checkCase(fuzz_case);
        EXPECT_FALSE(outcome.mismatch)
            << "seed " << seed << "\n"
            << verify::formatDiffs(outcome.diffs);
    }
}

/**
 * The determinism contract extends to multi-core machines: a
 * coherent run is a pure function of (config, trace), so worker
 * pools of different widths must produce bit-identical results —
 * including every coherence counter diffResults() covers.
 */
TEST(Differential, CoherentBitIdenticalAcrossThreadCounts)
{
    const std::size_t cases = 48;
    const std::uint64_t base_seed = 41001;
    bool cache_was_enabled = SimCache::global().enabled();
    SimCache::global().setEnabled(false);

    auto run_batch = [&](unsigned threads) {
        setParallelThreads(threads);
        return parallelMap<std::string>(cases, [&](std::size_t i) {
            verify::FuzzCase fuzz_case =
                verify::generateCoherentCase(base_seed + i);
            CoherentSystem system(fuzz_case.config);
            return fingerprint(system.run(fuzz_case.trace));
        });
    };

    std::vector<std::string> one = run_batch(1);
    std::vector<std::string> eight = run_batch(8);

    setParallelThreads(0);
    SimCache::global().setEnabled(cache_was_enabled);

    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        EXPECT_EQ(one[i], eight[i]) << "seed " << base_seed + i;
}

/**
 * Structural invariants of the coherent timing model, on cold runs
 * where no counter was reset mid-stream: the bus can never be busy
 * longer than the run, every upgrade is a bus transaction, and the
 * miss taxonomy (now four classes) still decomposes the merged L1
 * misses exactly.  Upgrade and intervention cycles both happen
 * inside bus occupancy, so each is bounded by busBusyCycles alone
 * (they overlap; their sum is not a valid bound).
 */
TEST(Differential, CoherentCycleConservation)
{
    for (std::uint64_t seed = 57001; seed < 57101; ++seed) {
        verify::FuzzCase fuzz_case =
            verify::generateCoherentCase(seed);
        if (fuzz_case.trace.warmStart() != 0)
            continue;
        CoherentSystem system(fuzz_case.config);
        SimResult result = system.run(fuzz_case.trace);

        EXPECT_EQ(result.refs, fuzz_case.trace.size())
            << "seed " << seed;
        EXPECT_GE(result.cycles,
                  static_cast<Tick>(result.groups))
            << "seed " << seed;
        const CoherenceStats &coh = result.coherenceStats;
        EXPECT_LE(coh.busBusyCycles,
                  static_cast<std::uint64_t>(result.cycles))
            << "seed " << seed;
        EXPECT_LE(coh.upgrades, coh.busTransactions)
            << "seed " << seed;
        EXPECT_LE(coh.snoops, coh.busTransactions)
            << "seed " << seed;
        EXPECT_LE(coh.upgradeCycles, coh.busBusyCycles)
            << "seed " << seed;
        EXPECT_LE(coh.interventionCycles, coh.busBusyCycles)
            << "seed " << seed;

        std::uint64_t l1Misses = result.icache.readMisses +
                                 result.dcache.readMisses +
                                 result.dcache.writeMisses;
        EXPECT_EQ(result.missClasses.total(), l1Misses)
            << "seed " << seed;
        EXPECT_GE(result.stallReadCycles, 0) << "seed " << seed;
        EXPECT_GE(result.stallWriteCycles, 0) << "seed " << seed;
    }
}

TEST(Differential, ReproRoundTrip)
{
    verify::FuzzCase original = verify::generateCase(424242);
    std::string path =
        ::testing::TempDir() + "/roundtrip_repro.txt";
    verify::writeRepro(path, original, "round-trip test");
    verify::FuzzCase loaded = verify::loadRepro(path);

    EXPECT_EQ(loaded.seed, original.seed);
    EXPECT_EQ(loaded.trace.refs(), original.trace.refs());
    EXPECT_EQ(loaded.trace.warmStart(), original.trace.warmStart());

    // The loaded config must drive both simulators to the exact
    // run the original produced.
    System fast_original(original.config);
    System fast_loaded(loaded.config);
    SimResult a = fast_original.run(original.trace);
    SimResult b = fast_loaded.run(loaded.trace);
    EXPECT_TRUE(verify::diffResults(a, b).empty())
        << verify::formatDiffs(verify::diffResults(a, b));
    EXPECT_TRUE(
        verify::diffResults(
                   b, verify::oracleRun(loaded.config, loaded.trace))
            .empty());
    std::remove(path.c_str());
}

TEST(Differential, MinimizerKeepsPassingCaseIntact)
{
    verify::FuzzCase agreeing = verify::generateCase(777);
    ASSERT_FALSE(verify::checkCase(agreeing).mismatch);
    verify::FuzzCase shrunk = verify::minimizeCase(agreeing);
    // Nothing to shrink when there is no failure to preserve.
    EXPECT_EQ(shrunk.trace.refs().size(),
              agreeing.trace.refs().size());
}

/** A one-field edit of a config, named for failure messages. */
struct ConfigEdit
{
    std::string name;
    std::function<void(SystemConfig &)> apply;
};

/** Edits of every field appendCache() hashes, on one L1 role. */
std::vector<ConfigEdit>
cacheFieldEdits(const std::string &role,
                CacheConfig SystemConfig::*cache)
{
    auto edit = [&](const std::string &field,
                    std::function<void(CacheConfig &)> fn) {
        return ConfigEdit{role + "." + field,
                          [cache, fn](SystemConfig &c) { fn(c.*cache); }};
    };
    return {
        edit("sizeWords", [](CacheConfig &c) { c.sizeWords *= 2; }),
        edit("blockWords", [](CacheConfig &c) { c.blockWords *= 2; }),
        edit("assoc", [](CacheConfig &c) { c.assoc *= 2; }),
        edit("fetchWords", [](CacheConfig &c) { c.fetchWords = 1; }),
        edit("writePolicy",
             [](CacheConfig &c) {
                 c.writePolicy = WritePolicy::WriteThrough;
             }),
        edit("allocPolicy",
             [](CacheConfig &c) {
                 c.allocPolicy = AllocPolicy::WriteAllocate;
             }),
        edit("replPolicy",
             [](CacheConfig &c) { c.replPolicy = ReplPolicy::LRU; }),
        edit("prefetchPolicy",
             [](CacheConfig &c) {
                 c.prefetchPolicy = PrefetchPolicy::Tagged;
             }),
        edit("victimEntries", [](CacheConfig &c) { c.victimEntries = 4; }),
        edit("virtualTags",
             [](CacheConfig &c) { c.virtualTags = !c.virtualTags; }),
        edit("replSeed", [](CacheConfig &c) { c.replSeed += 1; }),
    };
}

/**
 * warmStateKey() decides which machines share an L1 front, so it
 * must cover everything the organizational pass reads: a change to
 * any CacheConfig field of any L1 role, or to any TLB organization
 * field, must change the key.
 */
TEST(WarmStateKey, OrganizationFieldsSplitKeys)
{
    SystemConfig split = SystemConfig::paperDefault();
    SystemConfig unified = split;
    unified.split = false;
    SystemConfig physical = split;
    physical.addressing = AddressMode::Physical;

    auto expectSplits = [](const SystemConfig &base,
                           const ConfigEdit &edit) {
        SystemConfig changed = base;
        edit.apply(changed);
        EXPECT_FALSE(warmStateKey(changed) == warmStateKey(base))
            << edit.name;
    };
    for (const ConfigEdit &edit :
         cacheFieldEdits("icache", &SystemConfig::icache))
        expectSplits(split, edit);
    for (const ConfigEdit &edit :
         cacheFieldEdits("dcache", &SystemConfig::dcache))
        expectSplits(split, edit);
    for (const ConfigEdit &edit :
         cacheFieldEdits("unified", &SystemConfig::dcache))
        expectSplits(unified, edit);

    const std::vector<ConfigEdit> machine_edits = {
        {"split", [](SystemConfig &c) { c.split = !c.split; }},
        {"addressing",
         [](SystemConfig &c) { c.addressing = AddressMode::Virtual; }},
        {"tlb.entries", [](SystemConfig &c) { c.tlb.entries *= 2; }},
        {"tlb.assoc", [](SystemConfig &c) { c.tlb.assoc /= 2; }},
        {"tlb.pageWords", [](SystemConfig &c) { c.tlb.pageWords *= 2; }},
        {"tlb.physFrames",
         [](SystemConfig &c) { c.tlb.physFrames /= 2; }},
    };
    for (const ConfigEdit &edit : machine_edits)
        expectSplits(physical, edit);
    // Physical caches are physically tagged whatever the config says.
    SystemConfig retagged = physical;
    retagged.dcache.virtualTags = !retagged.dcache.virtualTags;
    EXPECT_TRUE(warmStateKey(retagged) == warmStateKey(physical));
}

/**
 * The converse: a change to a timing-only field - cycle time,
 * memory timing, buffers, CPU hit/miss cycles, the TLB miss penalty,
 * the levels below L1 - keeps the key, and the L1 and TLB counters
 * over a fuzz trace stay equal.
 */
TEST(WarmStateKey, TimingFieldsShareKeyAndL1Counters)
{
    const std::vector<ConfigEdit> edits = {
        {"cycleNs", [](SystemConfig &c) { c.cycleNs *= 3; }},
        {"memory.readLatencyNs",
         [](SystemConfig &c) { c.memory.readLatencyNs += 100.0; }},
        {"memory.writeNs",
         [](SystemConfig &c) { c.memory.writeNs += 50.0; }},
        {"memory.recoveryNs",
         [](SystemConfig &c) { c.memory.recoveryNs += 30.0; }},
        {"memory.addressCycles",
         [](SystemConfig &c) {
             c.memory.addressCycles = 3 - c.memory.addressCycles;
         }},
        {"memory.rate",
         [](SystemConfig &c) { c.memory.rate.cycles += 1; }},
        {"memory.banks", [](SystemConfig &c) { c.memory.banks *= 2; }},
        {"memory.loadForwarding",
         [](SystemConfig &c) {
             c.memory.loadForwarding = !c.memory.loadForwarding;
         }},
        {"memory.streaming",
         [](SystemConfig &c) { c.memory.streaming = !c.memory.streaming; }},
        {"l1Buffer.enabled",
         [](SystemConfig &c) { c.l1Buffer.enabled = !c.l1Buffer.enabled; }},
        {"l1Buffer.depth", [](SystemConfig &c) { c.l1Buffer.depth += 3; }},
        {"l1Buffer.coalesce",
         [](SystemConfig &c) {
             c.l1Buffer.coalesce = !c.l1Buffer.coalesce;
         }},
        {"cpu.readHitCycles",
         [](SystemConfig &c) {
             c.cpu.readHitCycles = 3 - c.cpu.readHitCycles;
         }},
        {"cpu.writeHitCycles",
         [](SystemConfig &c) {
             c.cpu.writeHitCycles = c.cpu.writeHitCycles % 4 + 1;
         }},
        {"cpu.victimSwapCycles",
         [](SystemConfig &c) { c.cpu.victimSwapCycles += 2; }},
        {"cpu.earlyContinuation",
         [](SystemConfig &c) {
             c.cpu.earlyContinuation = !c.cpu.earlyContinuation;
         }},
        {"tlb.missPenaltyCycles",
         [](SystemConfig &c) { c.tlb.missPenaltyCycles += 9; }},
        {"hasL2", [](SystemConfig &c) { c.hasL2 = false; }},
        {"l2Timing.hitCycles",
         [](SystemConfig &c) { c.l2Timing.hitCycles += 2; }},
        {"l2Buffer.depth", [](SystemConfig &c) { c.l2Buffer.depth += 2; }},
    };

    std::size_t checked = 0;
    for (std::uint64_t seed = 48001; checked < 16; ++seed) {
        verify::FuzzCase fuzz_case = verify::generateCase(seed);
        const SystemConfig &base = fuzz_case.config;
        if (base.coherent())
            continue;
        ++checked;
        const SimResult want = System(base).run(fuzz_case.trace);
        for (const ConfigEdit &edit : edits) {
            SystemConfig changed = base;
            edit.apply(changed);
            EXPECT_TRUE(warmStateKey(changed) == warmStateKey(base))
                << edit.name << " seed " << seed;
            const SimResult got = System(changed).run(fuzz_case.trace);
            auto counters = [](const SimResult &r) {
                SimResult zero;
                std::string print;
                for (const char *prefix : {"icache.", "dcache.", "tlb."})
                    for (const verify::FieldDiff &diff :
                         verify::diffResults(r, zero))
                        if (diff.field.rfind(prefix, 0) == 0)
                            print += diff.field + "=" + diff.lhs + ";";
                return print;
            };
            EXPECT_EQ(counters(got), counters(want))
                << edit.name << " seed " << seed;
        }
    }
}

} // namespace
} // namespace cachetime
