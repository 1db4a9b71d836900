/**
 * @file
 * Tests for state serialization and live-points checkpoints: wire
 * round trips, the save/restore/continue bit-identity property over
 * the fuzz corpus (at 1 and 8 threads), and clean fatal rejection
 * of corrupted or truncated checkpoint files.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/coherent.hh"
#include "sim/system.hh"
#include "trace/ref_source.hh"
#include "trace/workloads.hh"
#include "util/parallel.hh"
#include "util/serialize.hh"
#include "verify/fuzz.hh"

namespace cachetime
{
namespace
{

// --- StateWriter / StateReader -------------------------------------

TEST(Serialize, TypedFieldsRoundTrip)
{
    StateWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.f64(-1.5e300);
    w.b(true);
    w.b(false);
    const char raw[] = {4, 8, 15, 16, 23, 42};
    w.bytes(raw, sizeof(raw));

    StateReader r(w.buffer().data(), w.buffer().size(), "test");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.f64(), -1.5e300);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    char out[sizeof(raw)];
    r.bytes(out, sizeof(out));
    EXPECT_EQ(std::string(out, sizeof(out)),
              std::string(raw, sizeof(raw)));
    EXPECT_TRUE(r.atEnd());
}

TEST(Serialize, WireEncodingIsLittleEndian)
{
    StateWriter w;
    w.u32(0x11223344);
    ASSERT_EQ(w.buffer().size(), 4u);
    EXPECT_EQ(static_cast<unsigned char>(w.buffer()[0]), 0x44);
    EXPECT_EQ(static_cast<unsigned char>(w.buffer()[3]), 0x11);
}

TEST(Serialize, SectionsTagSkipAndVerify)
{
    StateWriter w;
    w.beginSection("AAA");
    w.u64(1);
    w.endSection();
    w.beginSection("BBB");
    w.u64(2);
    w.u64(3);
    w.endSection();

    StateReader r(w.buffer().data(), w.buffer().size(), "test");
    EXPECT_EQ(r.beginSection(), std::string("AAA\0", 4));
    r.skipSection(); // reader that does not care about AAA
    EXPECT_EQ(r.beginSection(), std::string("BBB\0", 4));
    EXPECT_EQ(r.sectionRemaining(), 16u);
    EXPECT_EQ(r.u64(), 2u);
    EXPECT_EQ(r.u64(), 3u);
    r.endSection();
    EXPECT_TRUE(r.atEnd());
}

TEST(Serialize, TruncatedBufferDiesCleanly)
{
    StateWriter w;
    w.u64(42);
    EXPECT_EXIT(
        {
            StateReader r(w.buffer().data(), 5, "trunc-test");
            r.u64();
        },
        ::testing::ExitedWithCode(1), "trunc-test");
}

TEST(Serialize, ReadPastSectionEndDiesCleanly)
{
    StateWriter w;
    w.beginSection("SEC");
    w.u32(7);
    w.endSection();
    w.u64(99); // next section's data must be out of reach
    EXPECT_EXIT(
        {
            StateReader r(w.buffer().data(), w.buffer().size(),
                          "section-test");
            r.beginSection();
            r.u32();
            r.u64(); // crosses the section boundary
        },
        ::testing::ExitedWithCode(1), "section-test");
}

// --- checkpoint wire format ----------------------------------------

CheckpointFile
sampleCheckpoint()
{
    CheckpointFile cp;
    cp.traceHash = 0x1122334455667788ULL;
    cp.warmKey = {1, 2};
    cp.exactKey = {3, 4};
    cp.unitRefs = 100;
    cp.warmupRefs = 200;
    cp.periodRefs = 1000;
    cp.streamRefs = 10'000;
    for (int k = 0; k < 3; ++k) {
        CheckpointUnit unit;
        unit.cpPos = 1000 * k;
        unit.beginPos = unit.cpPos + 200;
        unit.endPos = unit.beginPos + 100 + (k == 1 ? 1 : 0);
        unit.state.assign(37 + 11 * k, static_cast<char>('a' + k));
        cp.units.push_back(unit);
    }
    return cp;
}

TEST(Checkpoint, EncodeDecodeRoundTrip)
{
    CheckpointFile cp = sampleCheckpoint();
    std::string wire = encodeCheckpoint(cp);
    ASSERT_TRUE(looksLikeCheckpoint(wire.data(), wire.size()));

    CheckpointFile back =
        decodeCheckpoint(wire.data(), wire.size(), "wire");
    EXPECT_EQ(back.traceHash, cp.traceHash);
    EXPECT_TRUE(back.warmKey == cp.warmKey);
    EXPECT_TRUE(back.exactKey == cp.exactKey);
    EXPECT_EQ(back.unitRefs, cp.unitRefs);
    EXPECT_EQ(back.warmupRefs, cp.warmupRefs);
    EXPECT_EQ(back.periodRefs, cp.periodRefs);
    EXPECT_EQ(back.streamRefs, cp.streamRefs);
    ASSERT_EQ(back.units.size(), cp.units.size());
    for (std::size_t k = 0; k < cp.units.size(); ++k) {
        EXPECT_EQ(back.units[k].cpPos, cp.units[k].cpPos);
        EXPECT_EQ(back.units[k].beginPos, cp.units[k].beginPos);
        EXPECT_EQ(back.units[k].endPos, cp.units[k].endPos);
        EXPECT_EQ(back.units[k].state, cp.units[k].state);
    }
    // Canonical encoding: decode then re-encode is byte-identical.
    EXPECT_EQ(encodeCheckpoint(back), wire);
}

TEST(Checkpoint, FileRoundTrip)
{
    CheckpointFile cp = sampleCheckpoint();
    std::string path = ::testing::TempDir() + "/roundtrip.ckpt";
    writeCheckpoint(cp, path);
    CheckpointFile back = loadCheckpoint(path);
    EXPECT_TRUE(back.exactKey == cp.exactKey);
    ASSERT_EQ(back.units.size(), cp.units.size());
    EXPECT_EQ(back.units[2].state, cp.units[2].state);
    std::remove(path.c_str());
}

TEST(Checkpoint, EveryByteFlipIsRejected)
{
    std::string wire = encodeCheckpoint(sampleCheckpoint());
    // Probe a spread of positions including the magic, the header,
    // a blob byte and the checksum itself.
    for (std::size_t at = 0; at < wire.size();
         at += 1 + wire.size() / 19) {
        std::string bad = wire;
        bad[at] = static_cast<char>(bad[at] ^ 0x20);
        EXPECT_EXIT(decodeCheckpoint(bad.data(), bad.size(), "bad"),
                    ::testing::ExitedWithCode(1), "bad")
            << "flipped byte " << at;
    }
}

TEST(Checkpoint, TruncationIsRejected)
{
    std::string wire = encodeCheckpoint(sampleCheckpoint());
    for (std::size_t keep : {std::size_t{0}, std::size_t{4},
                             std::size_t{12}, wire.size() / 2,
                             wire.size() - 1}) {
        std::string bad = wire.substr(0, keep);
        EXPECT_EXIT(decodeCheckpoint(bad.data(), bad.size(), "cut"),
                    ::testing::ExitedWithCode(1), "cut")
            << "kept " << keep << " bytes";
    }
}

TEST(Checkpoint, TrailingGarbageIsRejected)
{
    std::string wire = encodeCheckpoint(sampleCheckpoint());
    wire += "extra";
    EXPECT_EXIT(decodeCheckpoint(wire.data(), wire.size(), "tail"),
                ::testing::ExitedWithCode(1), "tail");
}

// --- save/restore/continue bit identity ----------------------------

/** The couplet-slide rule, as every cut in the engine applies it. */
std::size_t
slideCut(const std::vector<Ref> &refs, std::size_t cut, bool pair)
{
    if (pair && cut > 0 && cut < refs.size() &&
        refs[cut - 1].kind == RefKind::IFetch &&
        isData(refs[cut].kind))
        return cut + 1;
    return cut;
}

/**
 * Run @p fuzz_case to completion in one go, and again with a
 * capture/restore hand-off at mid-trace into a *fresh* System.
 * Counters deliberately restart at zero on a restore (the sampling
 * engine consumes interval *deltas*), so the bit-identity
 * observable is the full machine state at end of stream: clock,
 * cache arrays, TLB, write buffer, mid levels and memory timing
 * must all capture byte-identically.
 * @return the two end-of-stream state blobs (must be equal).
 */
std::pair<std::string, std::string>
splitRunEndStates(const verify::FuzzCase &fuzz_case)
{
    const Trace &trace = fuzz_case.trace;
    const std::vector<Ref> &refs = trace.refs();
    bool pair = fuzz_case.config.split &&
                fuzz_case.config.cpu.pairIssue;
    std::size_t cut = slideCut(refs, refs.size() / 2, pair);

    TraceRefSource source(trace);

    System whole(fuzz_case.config);
    whole.beginRun(source);
    whole.feedChunk(refs.data(), refs.size());
    StateWriter whole_end;
    whole.captureState(whole_end);
    whole.endRun();

    System first(fuzz_case.config);
    first.beginRun(source);
    if (cut > 0)
        first.feedChunk(refs.data(), cut);
    StateWriter w;
    first.captureState(w);
    first.endRun();

    System second(fuzz_case.config);
    second.beginRun(source);
    StateReader r(w.buffer().data(), w.buffer().size(), "split-run");
    second.restoreState(r);
    if (cut < refs.size())
        second.feedChunk(refs.data() + cut, refs.size() - cut);
    StateWriter second_end;
    second.captureState(second_end);
    second.endRun();
    return {whole_end.take(), second_end.take()};
}

TEST(Checkpoint, SplitRunIsBitIdenticalOverFuzzCorpus)
{
    const std::uint64_t base_seed = 70001;
    const std::size_t cases = 300;
    for (std::size_t i = 0; i < cases; ++i) {
        verify::FuzzCase fuzz_case =
            verify::generateCase(base_seed + i);
        if (fuzz_case.trace.size() < 2)
            continue;
        auto [uninterrupted, continued] =
            splitRunEndStates(fuzz_case);
        ASSERT_TRUE(uninterrupted == continued)
            << "end states diverge at seed " << base_seed + i;
    }
}

/**
 * A hit run whose first group waits on a busy horizon (a fill that
 * outlasts early continuation, or a prefetch fill the CPU does not
 * wait for) is replayed reference by reference; cut inside it, the
 * restored machine sums the rest, because by then both horizons are
 * at or before the clock.  The two runs leave different horizons
 * trailing the clock, which act as the clock alike, so the capture
 * must write them as the clock.  Cut a Table 1 prefix, past its cold
 * start where hit runs grow long, a few references before each of
 * many ends, and compare the end states with an uncut run's.
 */
TEST(Checkpoint, SplitInsideHitRunMatchesWholeRun)
{
    const Trace trace = generate(table1Workloads()[0], 0.01);
    const std::vector<Ref> &refs = trace.refs();
    ASSERT_GT(refs.size(), 76000u);
    for (bool prefetch : {false, true}) {
        SystemConfig config = SystemConfig::paperDefault();
        config.cpu.earlyContinuation = !prefetch;
        if (prefetch) {
            config.icache.prefetchPolicy = PrefetchPolicy::Tagged;
            config.dcache.prefetchPolicy = PrefetchPolicy::Tagged;
        }
        const bool pair = config.split && config.cpu.pairIssue;
        for (std::size_t end = 20000; end <= 76000; end += 997) {
            const std::size_t cut = slideCut(refs, end - 7, pair);
            TraceRefSource source(trace);
            System whole(config);
            whole.beginRun(source);
            whole.feedChunk(refs.data(), end);
            StateWriter whole_end;
            whole.captureState(whole_end);

            System first(config);
            first.beginRun(source);
            first.feedChunk(refs.data(), cut);
            StateWriter w;
            first.captureState(w);
            System second(config);
            second.beginRun(source);
            StateReader r(w.buffer().data(), w.buffer().size(), "cut");
            second.restoreState(r);
            second.feedChunk(refs.data() + cut, end - cut);
            StateWriter second_end;
            second.captureState(second_end);
            EXPECT_TRUE(whole_end.take() == second_end.take())
                << "prefetch " << prefetch << " end " << end << " cut "
                << cut;
        }
    }
}

/**
 * Members of an inclusion-chain front own no caches to capture or
 * restore: every checkpoint entry point ends in a clean fatal().
 */
TEST(Checkpoint, ChainMemberEndsInFatal)
{
    SystemConfig small = SystemConfig::paperDefault();
    small.setL1SizeWordsEach(256);
    SystemConfig large = SystemConfig::paperDefault();
    const verify::FuzzCase fuzz_case = verify::generateCase(70001);
    TraceRefSource source(fuzz_case.trace);
    System first(small);
    System second(large);
    System *members[] = {&first, &second};
    System::beginChain(members, 2, source);
    System alone(large);
    alone.beginRun(source);
    StateWriter w;
    alone.captureState(w);
    EXPECT_EXIT(first.captureState(w), ::testing::ExitedWithCode(1),
                "inclusion-chain");
    StateReader r(w.buffer().data(), w.buffer().size(), "chain");
    EXPECT_EXIT(second.restoreState(r), ::testing::ExitedWithCode(1),
                "inclusion-chain");
    EXPECT_EXIT(second.restoreWarmState(r), ::testing::ExitedWithCode(1),
                "inclusion-chain");
}

TEST(Checkpoint, SplitRunBitIdenticalAcrossThreadCounts)
{
    const std::uint64_t base_seed = 71001;
    const std::size_t cases = 48;

    auto run_batch = [&](unsigned threads) {
        setParallelThreads(threads);
        return parallelMap<std::string>(cases, [&](std::size_t i) {
            verify::FuzzCase fuzz_case =
                verify::generateCase(base_seed + i);
            if (fuzz_case.trace.size() < 2)
                return std::string("short");
            auto [uninterrupted, continued] =
                splitRunEndStates(fuzz_case);
            EXPECT_TRUE(uninterrupted == continued)
                << "end states diverge at seed " << base_seed + i;
            return continued;
        });
    };

    std::vector<std::string> one = run_batch(1);
    std::vector<std::string> eight = run_batch(8);
    setParallelThreads(0);

    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        EXPECT_TRUE(one[i] == eight[i])
            << "end states diverge at seed " << base_seed + i;
}

/**
 * The split-run property over coherent multi-core machines: the
 * capture must cover every piece of coherence state — per-core
 * clocks, CohState tag bits in each private L1, the bus horizon and
 * all coherence counters — or the continued run diverges.  Coherent
 * mode has no couplet pairing, so the cut needs no slide.
 */
std::pair<std::string, std::string>
coherentSplitRunEndStates(const verify::FuzzCase &fuzz_case)
{
    const Trace &trace = fuzz_case.trace;
    const std::vector<Ref> &refs = trace.refs();
    std::size_t cut = refs.size() / 2;

    TraceRefSource source(trace);

    CoherentSystem whole(fuzz_case.config);
    whole.beginRun(source);
    whole.feedChunk(refs.data(), refs.size());
    StateWriter whole_end;
    whole.captureState(whole_end);
    whole.endRun();

    CoherentSystem first(fuzz_case.config);
    first.beginRun(source);
    if (cut > 0)
        first.feedChunk(refs.data(), cut);
    StateWriter w;
    first.captureState(w);
    first.endRun();

    CoherentSystem second(fuzz_case.config);
    second.beginRun(source);
    StateReader r(w.buffer().data(), w.buffer().size(),
                  "coherent-split-run");
    second.restoreState(r);
    if (cut < refs.size())
        second.feedChunk(refs.data() + cut, refs.size() - cut);
    StateWriter second_end;
    second.captureState(second_end);
    second.endRun();
    return {whole_end.take(), second_end.take()};
}

TEST(Checkpoint, CoherentSplitRunIsBitIdenticalOverFuzzCorpus)
{
    const std::uint64_t base_seed = 72001;
    const std::size_t cases = 100;
    for (std::size_t i = 0; i < cases; ++i) {
        verify::FuzzCase fuzz_case =
            verify::generateCoherentCase(base_seed + i);
        ASSERT_TRUE(fuzz_case.config.coherent());
        if (fuzz_case.trace.size() < 2)
            continue;
        auto [uninterrupted, continued] =
            coherentSplitRunEndStates(fuzz_case);
        ASSERT_TRUE(uninterrupted == continued)
            << "end states diverge at seed " << base_seed + i;
    }
}

/**
 * Warm restore must be exact for the L1/TLB *contents* even across
 * timing changes: run config A to the cut, warm-restore into config
 * B (same organization, different cycle time), and the caches must
 * behave as if B itself had issued the prefix - checked by
 * comparing against B running the whole stream, miss counts in the
 * measured suffix only.
 */
TEST(Checkpoint, WarmRestoreReproducesCacheContents)
{
    verify::FuzzCase fuzz_case = verify::generateCase(90017);
    // Force a config pair differing only in timing.
    SystemConfig config_a = fuzz_case.config;
    SystemConfig config_b = config_a;
    config_b.cycleNs *= 2;

    const Trace &trace = fuzz_case.trace;
    const std::vector<Ref> &refs = trace.refs();
    if (refs.size() < 4)
        GTEST_SKIP() << "trace too short";
    bool pair = config_a.split && config_a.cpu.pairIssue;
    std::size_t cut = slideCut(refs, refs.size() / 2, pair);

    // A runs the prefix and hands its warm state to B.
    TraceRefSource source(trace);
    System machine_a(config_a);
    machine_a.beginRun(source);
    if (cut > 0)
        machine_a.feedChunk(refs.data(), cut);
    StateWriter w;
    machine_a.captureState(w);

    // B continues from the warm state, measuring the suffix.
    Trace suffix(trace.name() + ".suffix",
                 {refs.begin() + cut, refs.end()}, 0);
    TraceRefSource suffix_source(suffix);
    System machine_b(config_b);
    machine_b.beginRun(suffix_source);
    StateReader r(w.buffer().data(), w.buffer().size(), "warm");
    machine_b.restoreWarmState(r);
    if (!suffix.empty())
        machine_b.feedChunk(suffix.refs().data(), suffix.size());
    SimResult warm_result = machine_b.endRun();

    // Reference: B itself runs the whole stream with the prefix as
    // warm-up.  L1 read miss counts in the measured suffix depend
    // only on cache contents at the cut, which the warm restore
    // must have reproduced exactly.  (Timing-dependent counters -
    // cycles, write-buffer behaviour - may differ; B's own run had
    // a warm write buffer at the cut, the restored one starts
    // drained.)
    Trace full_b(trace.name() + ".full", refs, cut);
    System reference(config_b);
    SimResult full_result = reference.run(full_b);
    EXPECT_EQ(warm_result.icache.readMisses,
              full_result.icache.readMisses);
    EXPECT_EQ(warm_result.dcache.readMisses,
              full_result.dcache.readMisses);
}

} // namespace
} // namespace cachetime
