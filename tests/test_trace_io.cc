/**
 * @file
 * Round-trip tests for trace serialization, rejection tests for
 * malformed input (every loader must fatal() cleanly, never crash),
 * and the format-v2 file round trip.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "trace/ref_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_v2.hh"

namespace cachetime
{
namespace
{

Trace
sampleTrace()
{
    return Trace("sample",
                 {
                     {0x1000, RefKind::IFetch, 1},
                     {0x2000, RefKind::Load, 1},
                     {0x2001, RefKind::Store, 2},
                     {0xdeadbeef, RefKind::Load, 3},
                 },
                 2);
}

TEST(TraceIo, TextRoundTrip)
{
    Trace original = sampleTrace();
    std::stringstream buffer;
    writeText(original, buffer);
    Trace copy = readText(buffer, "sample");
    ASSERT_EQ(copy.size(), original.size());
    EXPECT_EQ(copy.warmStart(), original.warmStart());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(copy.refs()[i], original.refs()[i]);
}

TEST(TraceIo, TextSkipsCommentsAndBlanks)
{
    std::stringstream buffer;
    buffer << "# a comment\n\nL 10 1\n# another\nS ff 2\n";
    Trace trace = readText(buffer);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.refs()[0].addr, 0x10u);
    EXPECT_EQ(trace.refs()[0].kind, RefKind::Load);
    EXPECT_EQ(trace.refs()[1].addr, 0xffu);
    EXPECT_EQ(trace.refs()[1].pid, 2u);
}

TEST(TraceIo, TextWarmStartDirective)
{
    std::stringstream buffer;
    buffer << "#warmstart 1\nL 1 0\nL 2 0\n";
    Trace trace = readText(buffer);
    EXPECT_EQ(trace.warmStart(), 1u);
}

TEST(TraceIo, FileRoundTripBothFormats)
{
    // .txt saves text; any suffix but .txt and .din saves CTTRACE2.
    Trace original = sampleTrace();
    for (bool v2 : {false, true}) {
        std::string path = std::string("/tmp/cachetime_io_test.") +
                           (v2 ? "trace" : "txt");
        saveFile(original, path);
        EXPECT_EQ(isV2File(path), v2) << path;
        Trace copy = loadFile(path);
        ASSERT_EQ(copy.size(), original.size());
        EXPECT_EQ(copy.warmStart(), original.warmStart()) << path;
        for (std::size_t i = 0; i < original.size(); ++i)
            EXPECT_EQ(copy.refs()[i], original.refs()[i]);
        std::remove(path.c_str());
    }
}

TEST(TraceIo, DineroRoundTrip)
{
    // Pids are dropped by the format, so compare against pid 0.
    Trace original("d",
                   {
                       {0x400, RefKind::IFetch, 0},
                       {0x800, RefKind::Load, 0},
                       {0x801, RefKind::Store, 0},
                   });
    std::stringstream buffer;
    writeDinero(original, buffer);
    Trace copy = readDinero(buffer, "d");
    ASSERT_EQ(copy.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(copy.refs()[i], original.refs()[i]);
}

TEST(TraceIo, DineroMultiPidWarnsAndDropsPids)
{
    // The din format is uniprocess: writing a multi-pid trace warns
    // (once) and drops the pid column, so the round trip folds
    // everything onto pid 0 but keeps every address and kind.
    Trace original = sampleTrace();
    std::stringstream buffer;
    writeDinero(original, buffer);
    Trace copy = readDinero(buffer, "sample");
    ASSERT_EQ(copy.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(copy.refs()[i].addr, original.refs()[i].addr);
        EXPECT_EQ(copy.refs()[i].kind, original.refs()[i].kind);
        EXPECT_EQ(copy.refs()[i].pid, 0u);
    }
}

TEST(TraceIoDeath, DineroStrictModeRejectsMultiPidTrace)
{
    EXPECT_EXIT(
        {
            std::stringstream buffer;
            writeDinero(sampleTrace(), buffer, true);
        },
        ::testing::ExitedWithCode(1), "more than one pid");
}

TEST(TraceIo, DineroSinglePidTraceWritesQuietly)
{
    // One distinct pid — even a nonzero one — is representable, so
    // strict mode accepts it.
    Trace original("d",
                   {
                       {0x400, RefKind::IFetch, 7},
                       {0x800, RefKind::Load, 7},
                   });
    std::stringstream buffer;
    writeDinero(original, buffer, true);
    Trace copy = readDinero(buffer, "d");
    ASSERT_EQ(copy.size(), 2u);
    EXPECT_EQ(copy.refs()[1].addr, 0x800u);
}

TEST(TraceIo, TextAcceptsLargestPid)
{
    std::stringstream buffer;
    buffer << "L 10 65535\n";
    Trace trace = readText(buffer);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace.refs()[0].pid, 0xffffu);
}

TEST(TraceIoDeath, TextRejectsPidBeyond16Bits)
{
    EXPECT_EXIT(
        {
            std::stringstream buffer;
            buffer << "L 10 65536\n";
            readText(buffer);
        },
        ::testing::ExitedWithCode(1), "16-bit pid limit");
}

TEST(TraceIo, DineroParsesClassicFormat)
{
    std::stringstream buffer;
    // Byte addresses; label 0 read, 1 write, 2 ifetch; label 3
    // (escape) ignored.
    buffer << "2 1000\n0 2000\n1 2004\n3 0\n";
    Trace trace = readDinero(buffer);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.refs()[0].kind, RefKind::IFetch);
    EXPECT_EQ(trace.refs()[0].addr, 0x1000u / 4);
    EXPECT_EQ(trace.refs()[1].kind, RefKind::Load);
    EXPECT_EQ(trace.refs()[2].kind, RefKind::Store);
    EXPECT_EQ(trace.refs()[2].addr, 0x2004u / 4);
}

TEST(TraceIo, DineroByFileExtension)
{
    Trace original("d", {{0x10, RefKind::Load, 0}});
    saveFile(original, "/tmp/cachetime_t.din");
    Trace copy = loadFile("/tmp/cachetime_t.din");
    ASSERT_EQ(copy.size(), 1u);
    EXPECT_EQ(copy.refs()[0].addr, 0x10u);
    std::remove("/tmp/cachetime_t.din");
}

TEST(TraceIo, LoadFileDerivesName)
{
    Trace original = sampleTrace();
    saveFile(original, "/tmp/myworkload.trace");
    Trace copy = loadFile("/tmp/myworkload.trace");
    EXPECT_EQ(copy.name(), "myworkload");
    std::remove("/tmp/myworkload.trace");
}

TEST(TraceIo, TextPidColumnIsOptional)
{
    std::stringstream buffer;
    buffer << "L 10\nS ff 2\nI 20\n";
    Trace trace = readText(buffer);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.refs()[0].pid, 0u);
    EXPECT_EQ(trace.refs()[1].pid, 2u);
    EXPECT_EQ(trace.refs()[2].pid, 0u);
}

TEST(TraceIoDeath, TextRejectsMalformedPid)
{
    EXPECT_EXIT(
        {
            std::stringstream buffer;
            buffer << "L 10 bogus\n";
            readText(buffer);
        },
        ::testing::ExitedWithCode(1), "malformed pid");
}

TEST(TraceIoDeath, TextRejectsWarmStartBeyondEnd)
{
    EXPECT_EXIT(
        {
            std::stringstream buffer;
            buffer << "#warmstart 5\nL 1 0\nL 2 0\n";
            readText(buffer);
        },
        ::testing::ExitedWithCode(1), "warmstart 5 beyond");
}

TEST(TraceIo, V2RoundTrip)
{
    Trace original = sampleTrace();
    std::string path = "/tmp/cachetime_io_test_v2.trace";
    writeV2(original, path);
    Trace copy = readV2(path);
    ASSERT_EQ(copy.size(), original.size());
    EXPECT_EQ(copy.warmStart(), original.warmStart());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(copy.refs()[i], original.refs()[i]);
    // loadFile() must recognize the magic without being told.
    Trace sniffed = loadFile(path);
    EXPECT_EQ(sniffed.refs(), original.refs());
    EXPECT_EQ(sniffed.warmStart(), original.warmStart());
    std::remove(path.c_str());
}

TEST(TraceIo, V2WriterStreamsIncrementally)
{
    Trace original = sampleTrace();
    std::string path = "/tmp/cachetime_io_test_v2w.trace";
    {
        V2Writer writer(path, original.warmStart());
        for (const Ref &ref : original.refs())
            writer.push(ref);
        EXPECT_EQ(writer.count(), original.size());
    } // destructor closes and patches the header
    Trace copy = readV2(path);
    EXPECT_EQ(copy.refs(), original.refs());
    EXPECT_EQ(copy.warmStart(), original.warmStart());
    std::remove(path.c_str());
}

/** @return the bytes of @p trace written as CTTRACE2. */
std::string
v2Bytes(const Trace &trace)
{
    std::string path = "/tmp/cachetime_io_test_v2b.trace";
    writeV2(trace, path);
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    in.close();
    std::remove(path.c_str());
    return ss.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(TraceIoDeath, V2RejectsTruncation)
{
    // A record section cut short, and a corrupt header count of
    // about 2^62 records: the count check must fire before any
    // allocation sized by the count.
    std::string truncated = v2Bytes(sampleTrace());
    truncated.resize(truncated.size() - 3);
    std::string huge_count = v2Bytes(sampleTrace());
    huge_count[16 + 7] = '\x40'; // count field, most significant byte
    std::string path = "/tmp/cachetime_io_test_v2t.trace";
    for (const std::string &bytes : {truncated, huge_count}) {
        writeBytes(path, bytes);
        EXPECT_EXIT(readV2(path), ::testing::ExitedWithCode(1),
                    "record section does not match");
        EXPECT_EXIT(V2FileSource source(path),
                    ::testing::ExitedWithCode(1),
                    "record section does not match");
    }
    std::remove(path.c_str());
}

TEST(TraceIoDeath, RetiredBinaryMagicIsRejected)
{
    // The retired v1 binary format must end in a clean fatal()
    // naming the supported format, not in the text parser.
    std::string bytes = v2Bytes(sampleTrace());
    bytes[7] = '1';
    std::string path = "/tmp/cachetime_io_test_v1.trace";
    writeBytes(path, bytes);
    EXPECT_EXIT(loadFile(path), ::testing::ExitedWithCode(1),
                "CTTRACE1 trace; only CTTRACE2");
    EXPECT_EXIT(openRefSource(path), ::testing::ExitedWithCode(1),
                "CTTRACE1 trace; only CTTRACE2");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, V2RejectsWarmStartBeyondCount)
{
    std::string path = "/tmp/cachetime_io_test_v2w2.trace";
    writeV2(sampleTrace(), path);
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(24); // warm-start field
        char big[8] = {'\x77', 0, 0, 0, 0, 0, 0, 0};
        f.write(big, sizeof(big));
    }
    EXPECT_EXIT(readV2(path), ::testing::ExitedWithCode(1),
                "warm start");
    std::remove(path.c_str());
}

TEST(TraceIo, OpenRefSourceMatchesLoadFileEverywhere)
{
    Trace original = sampleTrace();
    for (const char *path : {"/tmp/cachetime_ors.txt",
                             "/tmp/cachetime_ors_v2.trace"}) {
        saveFile(original, path);
        Trace eager = loadFile(path);
        auto source = openRefSource(path);
        Trace streamed = materialize(*source);
        EXPECT_EQ(streamed.refs(), eager.refs()) << path;
        EXPECT_EQ(streamed.warmStart(), eager.warmStart()) << path;
        EXPECT_EQ(source->contentHash(), traceIdentityHash(eager))
            << path;
        std::remove(path);
    }
}

} // namespace
} // namespace cachetime
