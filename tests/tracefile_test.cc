/**
 * @file
 * Tests for the out-of-core trace store (src/tracefile): WLCTRC02
 * container round trips, corruption detection, block-index pruning,
 * the TransactionSource replay path, and the acceptance properties —
 * byte-identical wlcrc_sim CSV whether a stream is replayed from
 * memory, a WLCTRC01 dump or a WLCTRC02 container, with streamed
 * (block-bounded) memory use.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "common/crc32.hh"
#include "common/lz.hh"
#include "common/rng.hh"
#include "runner/grid.hh"
#include "runner/report.hh"
#include "runner/runner.hh"
#include "tracefile/format.hh"
#include "tracefile/mapped_trace.hh"
#include "tracefile/source.hh"
#include "tracefile/writer.hh"
#include "trace/trace_io.hh"
#include "trace/workload.hh"

#ifdef WLCRC_TRACE_BIN
#include "subprocess.hh"
#endif

namespace
{

using namespace wlcrc;
using tracefile::MappedTrace;
using tracefile::MappedTraceSource;
using tracefile::ShardFilter;
using tracefile::SynthSource;
using tracefile::TraceFileWriter;
using tracefile::TransactionSource;
using tracefile::V1FileSource;
using tracefile::VectorSource;
using trace::MixedSynthesizer;
using trace::TraceSynthesizer;
using trace::WorkloadProfile;
using trace::WriteTransaction;

std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** RAII deleter for test artifacts. */
struct TmpFile
{
    explicit TmpFile(std::string n) : path(tmpPath(std::move(n))) {}
    ~TmpFile() { std::filesystem::remove(path); }
    const std::string path;
};

std::vector<WriteTransaction>
sampleStream(uint64_t n, const char *workload = "gcc",
             uint64_t seed = 11)
{
    TraceSynthesizer synth(WorkloadProfile::byName(workload), seed);
    std::vector<WriteTransaction> txns;
    txns.reserve(n);
    for (uint64_t i = 0; i < n; ++i)
        txns.push_back(synth.next());
    return txns;
}

/** Writer options of a WLCTRC02 reader fixture. */
tracefile::WriterOptions
v2Options(uint32_t recordsPerBlock)
{
    tracefile::WriterOptions options;
    options.recordsPerBlock = recordsPerBlock;
    options.format = tracefile::TraceFormat::v2;
    return options;
}

void
writeV2(const std::string &path,
        const std::vector<WriteTransaction> &txns,
        uint32_t recordsPerBlock)
{
    TraceFileWriter writer(path, v2Options(recordsPerBlock));
    for (const auto &t : txns)
        writer.write(t);
    writer.close();
}

void
writeV1(const std::string &path,
        const std::vector<WriteTransaction> &txns)
{
    trace::TraceWriter writer(path);
    for (const auto &t : txns)
        writer.write(t);
}

void
writeV3(const std::string &path,
        const std::vector<WriteTransaction> &txns,
        uint32_t recordsPerBlock,
        tracefile::BlockCodec codec = tracefile::BlockCodec::lz)
{
    tracefile::WriterOptions options;
    options.recordsPerBlock = recordsPerBlock;
    options.format = tracefile::TraceFormat::v3;
    options.codec = codec;
    TraceFileWriter writer(path, options);
    for (const auto &t : txns)
        writer.write(t);
    writer.close();
}

/** Incompressible stream: every address and data word random. */
std::vector<WriteTransaction>
noiseStream(uint64_t n, uint64_t seed = 97)
{
    Rng rng(seed);
    std::vector<WriteTransaction> txns(n);
    for (auto &t : txns) {
        t.lineAddr = rng.next();
        for (unsigned w = 0; w < 8; ++w) {
            t.oldData.setWord(w, rng.next());
            t.newData.setWord(w, rng.next());
        }
    }
    return txns;
}

/** Set an environment variable for one scope, restoring on exit. */
struct ScopedEnv
{
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }
    const char *name_;
};

/** Flip one byte of a file in place. */
void
corruptByte(const std::string &path, std::uint64_t offset)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char c;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

// -------------------------------------------------------------- crc32

TEST(Crc32, MatchesKnownVectors)
{
    EXPECT_EQ(crc32("", 0), 0u);
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    // Incremental checksumming continues a message.
    const uint32_t part = crc32("12345", 5);
    EXPECT_EQ(crc32("6789", 4, part), 0xcbf43926u);
}

/** The one-table bytewise loop crc32() must agree with. */
uint32_t
crc32Bytewise(const void *data, std::size_t len, uint32_t seed = 0)
{
    static const auto table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c >> 1) ^ ((c & 1) ? 0xedb88320u : 0u);
            t[i] = c;
        }
        return t;
    }();
    const auto *p = static_cast<const uint8_t *>(data);
    uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    Rng rng(0xc3c32u);
    std::vector<uint8_t> buf(4096 + 8);
    for (auto &b : buf)
        b = static_cast<uint8_t>(rng.next());
    for (std::size_t off = 0; off < 8; ++off)
        for (std::size_t len = 0; len <= 4096; ++len)
            ASSERT_EQ(crc32(buf.data() + off, len),
                      crc32Bytewise(buf.data() + off, len))
                << "len " << len << " offset " << off;
}

TEST(Crc32, ChainedSeedMatchesWholeMessageAtEverySplit)
{
    Rng rng(64);
    uint8_t msg[64];
    for (auto &b : msg)
        b = static_cast<uint8_t>(rng.next());
    const uint32_t whole = crc32Bytewise(msg, sizeof msg);
    EXPECT_EQ(crc32(msg, sizeof msg), whole);
    for (std::size_t split = 0; split <= sizeof msg; ++split) {
        const uint32_t head = crc32(msg, split);
        EXPECT_EQ(head, crc32Bytewise(msg, split));
        EXPECT_EQ(crc32(msg + split, sizeof msg - split, head), whole)
            << "split " << split;
        EXPECT_EQ(crc32Bytewise(msg + split, sizeof msg - split, head),
                  whole);
    }
}

// ------------------------------------------------------------ lz codec

TEST(LzCodec, RoundTripsPatternedAndRecordShapedBuffers)
{
    Rng rng(3);
    LzScratch scratch;
    std::vector<uint8_t> raw, packed, back;
    for (int round = 0; round < 60; ++round) {
        raw.clear();
        const int chunks = 1 + static_cast<int>(rng.nextBelow(6));
        for (int c = 0; c < chunks; ++c) {
            const uint64_t kind = rng.nextBelow(4);
            const std::size_t len = 1 + rng.nextBelow(2000);
            if (kind == 0) {
                raw.insert(raw.end(), len,
                           static_cast<uint8_t>(round));
            } else if (kind == 1) {
                const std::size_t period = 1 + rng.nextBelow(8);
                for (std::size_t i = 0; i < len; ++i)
                    raw.push_back(static_cast<uint8_t>(
                        (i % period) * 31 + round));
            } else if (kind == 2) {
                for (std::size_t i = 0; i < len; ++i)
                    raw.push_back(static_cast<uint8_t>(rng.next()));
            } else {
                // Record-shaped: a 136-byte pattern repeating with
                // small per-copy edits, the trace-block case.
                uint8_t rec[tracefile::recordBytes];
                for (auto &b : rec)
                    b = static_cast<uint8_t>(rng.next());
                for (std::size_t i = 0; i < len; ++i) {
                    if (i % sizeof rec == 0)
                        rec[rng.nextBelow(sizeof rec)] ^= 1;
                    raw.push_back(rec[i % sizeof rec]);
                }
            }
        }
        packed.assign(lzCompressBound(raw.size()), 0);
        const std::size_t n =
            lzCompress(raw.data(), raw.size(), packed.data(),
                       packed.size(), &scratch);
        ASSERT_GT(n, 0u) << "round " << round;
        back.assign(raw.size(), 0xee);
        ASSERT_EQ(lzDecompress(packed.data(), n, back.data(),
                               back.size()),
                  raw.size())
            << "round " << round;
        ASSERT_EQ(back, raw) << "round " << round;
        // An empty stream decodes to zero bytes.
        EXPECT_EQ(lzDecompress(packed.data(), 0, back.data(),
                               back.size()),
                  0u);
    }
}

TEST(LzCodec, DemandsAStrictWinOrReportsNoFit)
{
    // Incompressible bytes cannot beat raw storage: with the
    // writer's dstCap = srcLen - 1 contract the compressor reports
    // no fit instead of expanding.
    Rng rng(7);
    std::vector<uint8_t> raw(4096);
    for (auto &b : raw)
        b = static_cast<uint8_t>(rng.next());
    std::vector<uint8_t> packed(raw.size() - 1);
    EXPECT_EQ(lzCompress(raw.data(), raw.size(), packed.data(),
                         packed.size()),
              0u);

    // A constant run shrinks dramatically under the same cap.
    std::fill(raw.begin(), raw.end(), uint8_t{'a'});
    const std::size_t n = lzCompress(raw.data(), raw.size(),
                                     packed.data(), packed.size());
    ASSERT_GT(n, 0u);
    EXPECT_LT(n, raw.size() / 8);
    std::vector<uint8_t> back(raw.size());
    EXPECT_EQ(lzDecompress(packed.data(), n, back.data(),
                           back.size()),
              raw.size());
    EXPECT_EQ(back, raw);
}

TEST(LzCodec, MalformedStreamsThrowNamedErrors)
{
    const auto expectLzError = [](const std::vector<uint8_t> &src,
                                  std::size_t dstCap) {
        std::vector<uint8_t> dst(dstCap + 1);
        try {
            lzDecompress(src.data(), src.size(), dst.data(), dstCap);
            FAIL() << "malformed stream decoded";
        } catch (const std::runtime_error &err) {
            EXPECT_EQ(std::string(err.what()).find("lz: "), 0u)
                << err.what();
        }
    };

    std::vector<uint8_t> raw(3000, uint8_t{'z'});
    std::vector<uint8_t> packed(lzCompressBound(raw.size()));
    const std::size_t n = lzCompress(raw.data(), raw.size(),
                                     packed.data(), packed.size());
    ASSERT_GT(n, 0u);
    packed.resize(n);

    // Chopping the final byte tears the last sequence.
    expectLzError({packed.begin(), packed.end() - 1}, raw.size());
    // A valid stream into a too-small output overflows by name.
    expectLzError(packed, raw.size() - 1);
    // Hand-built defects: a match whose offset points before the
    // start of the decoded window, and a zero offset.
    expectLzError({0x01, 0xff, 0xff}, 64);
    expectLzError({0x01, 0x00, 0x00}, 64);
    // A token demanding literals the input does not carry.
    expectLzError({0x50, 'a', 'b'}, 64);
}

/** A hand-built LZ stream, the bytes it decodes to, and the prefix
 *  lengths that are themselves whole streams (with their output). */
struct LzStream
{
    std::vector<uint8_t> bytes;
    std::vector<uint8_t> raw;
    std::map<std::size_t, std::size_t> wholePrefixes{{0, 0}};

    /** Append a sequence: @p lits, then a match of @p matchLen bytes
     *  at @p offset (matchLen 0 makes it a literals-only tail). */
    void
    append(const std::vector<uint8_t> &lits, std::size_t offset,
           std::size_t matchLen)
    {
        const auto putExtent = [&](std::size_t v) {
            for (v -= 15; v >= 255; v -= 255)
                bytes.push_back(255);
            bytes.push_back(static_cast<uint8_t>(v));
        };
        const std::size_t litNibble = std::min<std::size_t>(lits.size(), 15);
        const std::size_t code = matchLen ? matchLen - 4 : 0;
        const std::size_t matchNibble = std::min<std::size_t>(code, 15);
        bytes.push_back(
            static_cast<uint8_t>(litNibble << 4 | matchNibble));
        if (litNibble == 15)
            putExtent(lits.size());
        bytes.insert(bytes.end(), lits.begin(), lits.end());
        raw.insert(raw.end(), lits.begin(), lits.end());
        if (matchNibble == 0) // also a valid literals-only tail
            wholePrefixes[bytes.size()] = raw.size();
        if (matchLen == 0)
            return;
        bytes.push_back(static_cast<uint8_t>(offset & 0xff));
        bytes.push_back(static_cast<uint8_t>(offset >> 8));
        if (matchNibble == 15)
            putExtent(code);
        for (std::size_t i = 0; i < matchLen; ++i)
            raw.push_back(raw[raw.size() - offset]);
        wholePrefixes[bytes.size()] = raw.size();
    }
};

TEST(LzCodec, StreamsEndingAtCapacityDecodeAndTruncationsAreNamed)
{
    Rng rng(0x1b0u);
    const auto randomBytes = [&](std::size_t n) {
        std::vector<uint8_t> v(n);
        for (auto &b : v)
            b = static_cast<uint8_t>(rng.next());
        return v;
    };
    for (std::size_t offset = 1; offset <= 20; ++offset) {
        for (std::size_t matchLen = 4; matchLen <= 80; ++matchLen) {
            // Leading literals: just the match's window (a run of
            // 1..20, across the 16-byte copy and the 15-length
            // extension), or a long run. Trailing literals: none,
            // so the stream ends on the match, or a short or
            // exactly 16-byte tail.
            for (const std::size_t extra : {0, 40}) {
                for (const std::size_t tail : {0, 1, 16}) {
                    LzStream s;
                    s.append(randomBytes(offset + extra), offset,
                             matchLen);
                    if (tail)
                        s.append(randomBytes(tail), 0, 0);
                    const std::string what =
                        "offset " + std::to_string(offset) +
                        " match " + std::to_string(matchLen) +
                        " extra " + std::to_string(extra) + " tail " +
                        std::to_string(tail);

                    // Exact-size buffers on both sides, so a read
                    // past srcLen or a write past dstCap is a heap
                    // overflow under ASan. The slack values straddle
                    // the wide copies' margins.
                    for (const std::size_t slack :
                         {0, 1, 7, 8, 15, 16, 31, 32, 33}) {
                        std::vector<uint8_t> out(s.raw.size() + slack);
                        ASSERT_EQ(lzDecompress(s.bytes.data(),
                                               s.bytes.size(),
                                               out.data(), out.size()),
                                  s.raw.size())
                            << what << " slack " << slack;
                        ASSERT_TRUE(std::equal(s.raw.begin(),
                                               s.raw.end(), out.begin()))
                            << what << " slack " << slack;
                    }
                    std::vector<uint8_t> shortOut(s.raw.size() - 1);
                    EXPECT_THROW(lzDecompress(s.bytes.data(),
                                              s.bytes.size(),
                                              shortOut.data(),
                                              shortOut.size()),
                                 std::runtime_error)
                        << what;

                    // Every truncation is either a whole stream
                    // itself, decoding to its prefix of the output,
                    // or throws a named error.
                    for (std::size_t cut = 0; cut < s.bytes.size();
                         ++cut) {
                        const std::vector<uint8_t> in(
                            s.bytes.begin(), s.bytes.begin() + cut);
                        std::vector<uint8_t> out(s.raw.size());
                        const auto whole = s.wholePrefixes.find(cut);
                        if (whole != s.wholePrefixes.end()) {
                            ASSERT_EQ(lzDecompress(in.data(), in.size(),
                                                   out.data(),
                                                   out.size()),
                                      whole->second)
                                << what << " cut " << cut;
                            ASSERT_TRUE(std::equal(
                                s.raw.begin(),
                                s.raw.begin() + whole->second,
                                out.begin()))
                                << what << " cut " << cut;
                            continue;
                        }
                        try {
                            lzDecompress(in.data(), in.size(),
                                         out.data(), out.size());
                            FAIL() << what << " cut " << cut
                                   << " decoded";
                        } catch (const std::runtime_error &err) {
                            ASSERT_EQ(std::string(err.what()).find(
                                          "lz: "),
                                      0u)
                                << what << " cut " << cut << ": "
                                << err.what();
                        }
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------ format basics

TEST(TraceFormat, RecordCodecRoundTrips)
{
    const auto txns = sampleStream(50);
    uint8_t buf[tracefile::recordBytes];
    for (const auto &t : txns) {
        tracefile::encodeRecord(buf, t);
        const auto back = tracefile::decodeRecord(buf);
        EXPECT_EQ(back.lineAddr, t.lineAddr);
        EXPECT_EQ(back.oldData, t.oldData);
        EXPECT_EQ(back.newData, t.newData);
    }
}

TEST(TraceFormat, RangeHasResiduePredicates)
{
    // Unfiltered and wide ranges always intersect.
    EXPECT_TRUE(tracefile::rangeHasResidue(5, 5, 1, 0));
    EXPECT_TRUE(tracefile::rangeHasResidue(0, 63, 64, 17));
    EXPECT_TRUE(tracefile::rangeHasResidue(100, 163, 64, 0));
    // Narrow range [8, 11] mod 64 covers residues 8..11 only.
    for (unsigned r = 0; r < 64; ++r)
        EXPECT_EQ(tracefile::rangeHasResidue(8, 11, 64, r),
                  r >= 8 && r <= 11);
    // Wrapped interval: [62, 65] mod 64 covers {62, 63, 0, 1}.
    for (unsigned r = 0; r < 64; ++r)
        EXPECT_EQ(tracefile::rangeHasResidue(62, 65, 64, r),
                  r >= 62 || r <= 1);
    // Single-address range.
    EXPECT_TRUE(tracefile::rangeHasResidue(130, 130, 64, 2));
    EXPECT_FALSE(tracefile::rangeHasResidue(130, 130, 64, 3));
}

TEST(TraceFormat, DetectFormatSniffsBothMagics)
{
    TmpFile v1("wlcrc_detect_v1.trc"), v2("wlcrc_detect_v2.trc"),
        junk("wlcrc_detect_junk.trc");
    const auto txns = sampleStream(10);
    writeV1(v1.path, txns);
    writeV2(v2.path, txns, 4);
    {
        std::ofstream os(junk.path, std::ios::binary);
        os << "GARBAGEFILE";
    }
    EXPECT_EQ(tracefile::detectFormat(v1.path),
              tracefile::TraceFormat::v1);
    EXPECT_EQ(tracefile::detectFormat(v2.path),
              tracefile::TraceFormat::v2);
    EXPECT_THROW(tracefile::detectFormat(junk.path),
                 std::runtime_error);
    EXPECT_THROW(tracefile::detectFormat(tmpPath("wlcrc_nope.trc")),
                 std::runtime_error);
}

// ------------------------------------------------- container round trip

TEST(TraceFileWriter, RoundTripsThroughMappedTrace)
{
    TmpFile file("wlcrc_v2_roundtrip.trc");
    const auto txns = sampleStream(1000);
    writeV2(file.path, txns, 64);

    MappedTrace trace(file.path);
    EXPECT_EQ(trace.records(), 1000u);
    EXPECT_EQ(trace.recordsPerBlock(), 64u);
    EXPECT_EQ(trace.blockCount(), (1000 + 63) / 64);
    EXPECT_EQ(trace.verifyAll(), 1000u);

    // Random access decodes the exact records, in order.
    for (uint64_t i = 0; i < trace.records(); ++i) {
        const auto t = trace.record(i);
        ASSERT_EQ(t.lineAddr, txns[i].lineAddr) << i;
        ASSERT_EQ(t.oldData, txns[i].oldData) << i;
        ASSERT_EQ(t.newData, txns[i].newData) << i;
    }
    EXPECT_THROW(trace.record(1000), std::runtime_error);

    // The final block holds the remainder; index min/max are exact.
    const auto &last = trace.blockInfo(trace.blockCount() - 1);
    EXPECT_EQ(last.count, 1000 % 64);
    for (uint64_t b = 0; b < trace.blockCount(); ++b) {
        const auto &info = trace.blockInfo(b);
        uint64_t lo = ~uint64_t{0}, hi = 0;
        for (uint32_t i = 0; i < info.count; ++i) {
            const auto addr = trace.recordInBlock(b, i).lineAddr;
            lo = std::min(lo, addr);
            hi = std::max(hi, addr);
        }
        EXPECT_EQ(info.minAddr, lo) << b;
        EXPECT_EQ(info.maxAddr, hi) << b;
    }
}

TEST(TraceFileWriter, EmptyTraceIsValid)
{
    TmpFile file("wlcrc_v2_empty.trc");
    writeV2(file.path, {}, 16);
    MappedTrace trace(file.path);
    EXPECT_EQ(trace.records(), 0u);
    EXPECT_EQ(trace.blockCount(), 0u);
    EXPECT_EQ(trace.verifyAll(), 0u);
    auto cursor = MappedTraceSource(file.path).open({});
    EXPECT_FALSE(cursor->next());
}

TEST(TraceFileWriter, RejectsZeroBlockCapacityAndWriteAfterClose)
{
    TmpFile file("wlcrc_v2_badcap.trc");
    EXPECT_THROW(TraceFileWriter(file.path, {0}),
                 std::invalid_argument);
    tracefile::WriterOptions unknownCodec;
    unknownCodec.codec = static_cast<tracefile::BlockCodec>(2);
    EXPECT_THROW(TraceFileWriter(file.path, unknownCodec),
                 std::invalid_argument);
    TraceFileWriter writer(file.path, {4});
    writer.write(WriteTransaction{});
    writer.close();
    writer.close(); // idempotent
    EXPECT_THROW(writer.write(WriteTransaction{}),
                 std::runtime_error);
}

// ------------------------------------------- WLCTRC03 round trip

TEST(TraceFileWriterV3, CompressedContainerRoundTripsAndShrinks)
{
    TmpFile v3("wlcrc_v3_roundtrip.trc"), v2("wlcrc_v3_ref_v2.trc");
    const auto txns = sampleStream(1000, "libq", 13);
    writeV3(v3.path, txns, 64);
    writeV2(v2.path, txns, 64);

    EXPECT_EQ(tracefile::detectFormat(v3.path),
              tracefile::TraceFormat::v3);
    MappedTrace trace(v3.path);
    EXPECT_EQ(trace.format(), tracefile::TraceFormat::v3);
    EXPECT_EQ(trace.records(), 1000u);
    EXPECT_EQ(trace.recordsPerBlock(), 64u);
    EXPECT_EQ(trace.verifyAll(), 1000u);
    EXPECT_TRUE(trace.anyCompressed());
    EXPECT_LT(trace.storedBytes(),
              1000ull * tracefile::recordBytes);
    EXPECT_LT(std::filesystem::file_size(v3.path),
              std::filesystem::file_size(v2.path));

    uint64_t lzBlocks = 0;
    for (uint64_t b = 0; b < trace.blockCount(); ++b) {
        const auto &info = trace.blockInfo(b);
        if (info.codec == tracefile::BlockCodec::lz) {
            ++lzBlocks;
            EXPECT_LT(info.storedBytes,
                      info.count * tracefile::recordBytes) << b;
        }
    }
    EXPECT_GT(lzBlocks, 0u);

    for (uint64_t i = 0; i < trace.records(); ++i) {
        const auto t = trace.record(i);
        ASSERT_EQ(t.lineAddr, txns[i].lineAddr) << i;
        ASSERT_EQ(t.oldData, txns[i].oldData) << i;
        ASSERT_EQ(t.newData, txns[i].newData) << i;
    }

    // The content fingerprint is codec-invariant: a v3 file carries
    // the same record-content CRC a v2 file of the same stream
    // stores as its index checksum, so the result cache sees one
    // digest for one stream in any framing.
    MappedTrace ref(v2.path);
    EXPECT_EQ(ref.contentCrc(), ref.indexCrc());
    EXPECT_EQ(trace.contentCrc(), ref.contentCrc());
    EXPECT_EQ(tracefile::openTraceSource(v3.path)->contentDigest(),
              tracefile::openTraceSource(v2.path)->contentDigest());
}

TEST(TraceFileWriterV3, IncompressibleBlocksFallBackToRaw)
{
    TmpFile v3("wlcrc_v3_noise.trc"), v2("wlcrc_v3_noise_v2.trc");
    const auto txns = noiseStream(300);
    writeV3(v3.path, txns, 64);
    writeV2(v2.path, txns, 64);

    MappedTrace trace(v3.path);
    EXPECT_FALSE(trace.anyCompressed());
    EXPECT_EQ(trace.storedBytes(),
              300ull * tracefile::recordBytes);
    for (uint64_t b = 0; b < trace.blockCount(); ++b) {
        const auto &info = trace.blockInfo(b);
        EXPECT_EQ(info.codec, tracefile::BlockCodec::raw) << b;
        EXPECT_EQ(info.storedBytes,
                  info.count * tracefile::recordBytes) << b;
        EXPECT_EQ(info.storedCrc, info.crc) << b;
    }
    EXPECT_EQ(trace.verifyAll(), 300u);
    // All-raw v3 costs exactly the larger index entries, nothing
    // else: the no-shrink-no-expand guarantee, byte-exact.
    EXPECT_EQ(std::filesystem::file_size(v3.path),
              std::filesystem::file_size(v2.path) +
                  trace.blockCount() *
                      (tracefile::indexEntryBytesV3 -
                       tracefile::indexEntryBytes));
    EXPECT_EQ(tracefile::gather(MappedTraceSource(v3.path)).size(),
              300u);
}

TEST(TraceFileWriterV3, EmptyTraceIsValid)
{
    TmpFile file("wlcrc_v3_empty.trc");
    writeV3(file.path, {}, 16);
    MappedTrace trace(file.path);
    EXPECT_EQ(trace.format(), tracefile::TraceFormat::v3);
    EXPECT_EQ(trace.records(), 0u);
    EXPECT_EQ(trace.blockCount(), 0u);
    EXPECT_FALSE(trace.anyCompressed());
    auto cursor = MappedTraceSource(file.path).open({});
    EXPECT_FALSE(cursor->next());
}

// -------------------------------------------------- corruption paths

TEST(MappedTrace, RejectsBadMagic)
{
    TmpFile file("wlcrc_v2_badmagic.trc");
    writeV2(file.path, sampleStream(20), 8);
    corruptByte(file.path, 0); // header magic
    EXPECT_THROW(MappedTrace{file.path}, std::runtime_error);
}

TEST(MappedTrace, RejectsTruncatedTrailer)
{
    TmpFile file("wlcrc_v2_trunc.trc");
    writeV2(file.path, sampleStream(20), 8);
    const auto full = std::filesystem::file_size(file.path);
    std::filesystem::resize_file(file.path, full - 7);
    EXPECT_THROW(MappedTrace{file.path}, std::runtime_error);
}

TEST(MappedTrace, RejectsCorruptFooterIndex)
{
    TmpFile file("wlcrc_v2_badindex.trc");
    const auto txns = sampleStream(20);
    writeV2(file.path, txns, 8);
    // First index entry starts right after the record area.
    const uint64_t indexOffset =
        tracefile::headerBytes +
        txns.size() * uint64_t{tracefile::recordBytes};
    corruptByte(file.path, indexOffset + 9); // a minAddr byte
    try {
        MappedTrace trace(file.path);
        FAIL() << "corrupt index accepted";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("index checksum"),
                  std::string::npos)
            << err.what();
    }
}

TEST(MappedTrace, CorruptBlockFailsVerifyAndCursor)
{
    TmpFile file("wlcrc_v2_badblock.trc");
    writeV2(file.path, sampleStream(100), 16);
    // Flip a payload byte inside block 2.
    corruptByte(file.path, tracefile::headerBytes +
                               2ull * 16 * tracefile::recordBytes +
                               40);
    MappedTrace trace(file.path); // structure is still sound
    EXPECT_NO_THROW(trace.verifyBlock(0));
    EXPECT_THROW(trace.verifyBlock(2), std::runtime_error);
    EXPECT_THROW(trace.verifyAll(), std::runtime_error);

    // A streaming replay trips over the bad block, not past it.
    auto source = std::make_shared<MappedTraceSource>(file.path);
    auto cursor = source->open({});
    EXPECT_THROW(
        [&] {
            while (cursor->next()) {
            }
        }(),
        std::runtime_error);

    // And through the runner the spec fails cleanly, per spec.
    runner::ExperimentSpec spec;
    spec.scheme = "Baseline";
    spec.source = source;
    const auto results = runner::ExperimentRunner().run({spec});
    ASSERT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("checksum"), std::string::npos)
        << results[0].error;
}

// ------------------------------------------- v3 corruption paths

std::vector<uint8_t>
slurpBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spillBytes(const std::string &path, const std::vector<uint8_t> &b)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(b.data()),
              static_cast<std::streamsize>(b.size()));
}

/**
 * Patch one field of a v3 footer-index entry and recompute the
 * trailer's index checksum, so the lie survives the structural CRC
 * and must be caught by the index sanity checks themselves.
 */
void
patchV3IndexEntry(const std::string &path, uint64_t block,
                  uint32_t fieldOffset, uint64_t value,
                  unsigned fieldBytes)
{
    auto bytes = slurpBytes(path);
    ASSERT_GT(bytes.size(), std::size_t{tracefile::trailerBytes});
    const std::size_t trailer =
        bytes.size() - tracefile::trailerBytes;
    const uint64_t indexOffset = tracefile::getLe64(&bytes[trailer]);
    const uint64_t blockCount =
        tracefile::getLe64(&bytes[trailer + 8]);
    ASSERT_LT(block, blockCount);
    uint8_t *entry = &bytes[indexOffset +
                            block * tracefile::indexEntryBytesV3];
    if (fieldBytes == 4)
        tracefile::putLe32(entry + fieldOffset,
                           static_cast<uint32_t>(value));
    else if (fieldBytes == 8)
        tracefile::putLe64(entry + fieldOffset, value);
    else
        entry[fieldOffset] = static_cast<uint8_t>(value);
    tracefile::putLe32(
        &bytes[trailer + 24],
        crc32(&bytes[indexOffset],
              blockCount * tracefile::indexEntryBytesV3));
    spillBytes(path, bytes);
}

// v3 index-entry field offsets (docs/trace-format.md).
constexpr uint32_t kV3FieldStoredBytes = 32;
constexpr uint32_t kV3FieldCodec = 40;

TEST(TraceFileWriterV3, RawCodecAndUnavailableCodecs)
{
    TmpFile v3("wlcrc_v3_rawcodec.trc");
    const auto txns = sampleStream(200, "libq", 17);
    writeV3(v3.path, txns, 32, tracefile::BlockCodec::raw);
    {
        MappedTrace trace(v3.path);
        EXPECT_FALSE(trace.anyCompressed());
        EXPECT_EQ(trace.verifyAll(), 200u);
        const auto back =
            tracefile::gather(MappedTraceSource(v3.path));
        ASSERT_EQ(back.size(), txns.size());
        for (std::size_t i = 0; i < back.size(); ++i)
            ASSERT_EQ(back[i].newData, txns[i].newData) << i;
    }

    // Codec bytes past lz are unassigned: an index entry naming one
    // fails at open, by name, even when the index CRC is refreshed.
    for (const unsigned byte : {2u, 255u}) {
        SCOPED_TRACE(byte);
        writeV3(v3.path, txns, 32);
        patchV3IndexEntry(v3.path, 1, kV3FieldCodec, byte, 1);
        try {
            MappedTrace trace(v3.path);
            FAIL() << "codec byte " << byte << " accepted";
        } catch (const std::runtime_error &err) {
            EXPECT_NE(std::string(err.what())
                          .find("block 1 uses unknown codec byte " +
                                std::to_string(byte)),
                      std::string::npos)
                << err.what();
        }
    }
    EXPECT_EQ(tracefile::parseCodecName("raw"),
              tracefile::BlockCodec::raw);
    EXPECT_EQ(tracefile::parseCodecName("lz"),
              tracefile::BlockCodec::lz);
    EXPECT_THROW(tracefile::parseCodecName("gzip"),
                 std::invalid_argument);
}

TEST(MappedTraceV3, BitFlippedCompressedPayloadFailsByName)
{
    TmpFile file("wlcrc_v3_badpayload.trc");
    writeV3(file.path, sampleStream(1000, "libq", 19), 64);
    // Flip a byte inside block 0's stored (compressed) bytes. The
    // structure is sound, so mapping succeeds; the damage surfaces
    // when — and only when — the block is decoded.
    corruptByte(file.path, tracefile::headerBytes + 3);
    MappedTrace trace(file.path);
    ASSERT_EQ(trace.blockInfo(0).codec, tracefile::BlockCodec::lz);
    try {
        trace.verifyBlock(0);
        FAIL() << "corrupt compressed block verified";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what())
                      .find("stored-byte checksum mismatch"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_THROW(trace.verifyAll(), std::runtime_error);
    EXPECT_NO_THROW(trace.verifyBlock(1));

    auto cursor = MappedTraceSource(file.path).open({});
    EXPECT_THROW(
        [&] {
            while (cursor->next()) {
            }
        }(),
        std::runtime_error);
}

TEST(MappedTraceV3, TruncationFailsAtConstruction)
{
    TmpFile file("wlcrc_v3_trunc.trc");
    writeV3(file.path, sampleStream(500, "libq", 23), 64);
    const auto full = std::filesystem::file_size(file.path);
    std::filesystem::resize_file(file.path, full - 9);
    EXPECT_THROW(MappedTrace{file.path}, std::runtime_error);
    std::filesystem::resize_file(file.path, 10);
    EXPECT_THROW(MappedTrace{file.path}, std::runtime_error);
}

TEST(MappedTraceV3, LyingIndexFieldsFailByName)
{
    TmpFile file("wlcrc_v3_lying.trc");
    const auto txns = sampleStream(1000, "libq", 29);
    const auto expectCtorError = [&](const std::string &needle) {
        try {
            MappedTrace trace(file.path);
            FAIL() << "lying index accepted (wanted: " << needle
                   << ")";
        } catch (const std::runtime_error &err) {
            EXPECT_NE(std::string(err.what()).find(needle),
                      std::string::npos)
                << err.what() << "\n  (wanted: " << needle << ")";
        }
    };

    // Tampering with the index without fixing the trailer CRC is
    // caught by the checksum before any field is believed.
    writeV3(file.path, txns, 64);
    {
        const auto bytes = slurpBytes(file.path);
        const uint64_t indexOffset = tracefile::getLe64(
            &bytes[bytes.size() - tracefile::trailerBytes]);
        corruptByte(file.path, indexOffset + 32); // storedBytes
    }
    expectCtorError("footer index checksum mismatch");

    // A storedBytes lie that survives the CRC breaks the offset
    // chain at the next block.
    writeV3(file.path, txns, 64);
    patchV3IndexEntry(file.path, 0, kV3FieldStoredBytes,
                      MappedTrace(file.path).blockInfo(0).storedBytes
                          + 1,
                      4);
    expectCtorError("stored offset breaks the block chain");

    // The last block's size is bounded by the index position.
    writeV3(file.path, txns, 64);
    {
        MappedTrace probe(file.path);
        patchV3IndexEntry(file.path, probe.blockCount() - 1,
                          kV3FieldStoredBytes, 1u << 30, 4);
    }
    expectCtorError("stored size runs past the index");

    // Unknown codec bytes are rejected up front.
    writeV3(file.path, txns, 64);
    patchV3IndexEntry(file.path, 0, kV3FieldCodec, 9, 1);
    expectCtorError("unknown codec byte");

    // A block stored at raw size but labelled compressed is
    // impossible: the writer stores such blocks raw. Relabelling a
    // raw block's codec byte is exactly that lie.
    writeV3(file.path, noiseStream(200, 31), 4096);
    ASSERT_FALSE(MappedTrace(file.path).anyCompressed());
    patchV3IndexEntry(file.path, 0, kV3FieldCodec,
                      static_cast<uint64_t>(tracefile::BlockCodec::lz),
                      1);
    expectCtorError("compressed block larger than raw");

    // An understated size leaves the record area unaccounted.
    const auto oneBlock = sampleStream(200, "libq", 31);
    writeV3(file.path, oneBlock, 4096);
    ASSERT_TRUE(MappedTrace(file.path).anyCompressed());
    patchV3IndexEntry(file.path, 0, kV3FieldStoredBytes,
                      MappedTrace(file.path).blockInfo(0).storedBytes
                          - 1,
                      4);
    expectCtorError("stored blocks do not fill the record area");

    // A raw block's stored size must equal its record count's.
    writeV3(file.path, noiseStream(100, 41), 4096,
            tracefile::BlockCodec::raw);
    patchV3IndexEntry(file.path, 0, kV3FieldStoredBytes,
                      100ull * tracefile::recordBytes - 1, 4);
    expectCtorError("raw stored size disagrees with its record "
                    "count");
}

// ------------------------------------------------------- v1 satellite

TEST(TraceReader, TruncatedTrailingRecordThrowsWithOffset)
{
    TmpFile file("wlcrc_v1_truncated.trc");
    writeV1(file.path, sampleStream(3));
    // Chop the last record mid-payload: 8 B magic + 3 records, minus
    // 50 bytes leaves record 2 torn.
    const auto full = std::filesystem::file_size(file.path);
    std::filesystem::resize_file(file.path, full - 50);

    trace::TraceReader reader(file.path);
    EXPECT_TRUE(reader.read());
    EXPECT_TRUE(reader.read());
    try {
        reader.read();
        FAIL() << "truncated record read as clean EOF";
    } catch (const std::runtime_error &err) {
        const std::string what = err.what();
        // Offset of the torn record: 8 + 2 * 136.
        EXPECT_NE(what.find("truncated record"), std::string::npos);
        EXPECT_NE(what.find("byte offset 280"), std::string::npos)
            << what;
    }
}

TEST(V1FileSource, CountsRecordsFromFileSize)
{
    TmpFile file("wlcrc_v1_count.trc");
    writeV1(file.path, sampleStream(123));
    V1FileSource source(file.path);
    EXPECT_EQ(source.records(), 123u);
    EXPECT_EQ(tracefile::gather(source).size(), 123u);
}

// ---------------------------------------------------------- pruning

TEST(MappedTraceSource, ShardCursorPrunesByBlockAddressRange)
{
    // Sequential line addresses make blocks narrow address windows:
    // with 8-record blocks and a 64-way shard split, a shard's
    // residue class appears in 1/8 of the blocks. The index must
    // prune the rest without decoding them.
    TmpFile file("wlcrc_v2_pruning.trc");
    std::vector<WriteTransaction> txns(4096);
    for (uint64_t i = 0; i < txns.size(); ++i)
        txns[i].lineAddr = i;
    writeV2(file.path, txns, 8);

    MappedTraceSource source(file.path);
    ASSERT_EQ(source.trace().blockCount(), 512u);

    std::size_t yielded_total = 0;
    for (unsigned shard = 0; shard < 64; ++shard) {
        auto cursor = source.open(ShardFilter{64, shard});
        std::size_t yielded = 0;
        while (auto t = cursor->next()) {
            EXPECT_EQ(t->lineAddr % 64, shard);
            ++yielded;
        }
        yielded_total += yielded;
        EXPECT_EQ(yielded, 4096u / 64);
        // Only blocks whose 8-address window holds this residue were
        // decoded: 64 of 512, an 8x pruning win.
        EXPECT_EQ(cursor->blocksVisited(), 64u) << "shard " << shard;
    }
    EXPECT_EQ(yielded_total, txns.size()); // partition is exact

    // An unfiltered cursor visits everything.
    auto all = source.open({});
    while (all->next()) {
    }
    EXPECT_EQ(all->blocksVisited(), 512u);
}

// ------------------------------------------------ range partition

TEST(Sharding, RangePartitionTilesAnyBoundsExactly)
{
    // Narrow bounds: shards are contiguous, cover [lo, hi], and
    // every address lands in exactly one.
    const std::pair<uint64_t, uint64_t> bounds{100, 612};
    std::vector<ShardFilter> filters;
    for (unsigned s = 0; s < 7; ++s)
        filters.push_back(tracefile::rangePartition(bounds, 7, s));
    EXPECT_EQ(filters.front().lo, 100u);
    EXPECT_EQ(filters.back().hi, 612u);
    for (unsigned s = 0; s + 1 < 7; ++s)
        EXPECT_EQ(filters[s].hi + 1, filters[s + 1].lo) << s;
    for (uint64_t addr = 100; addr <= 612; ++addr) {
        unsigned owners = 0;
        for (const auto &f : filters)
            owners += f.accepts(addr);
        ASSERT_EQ(owners, 1u) << addr;
    }
    EXPECT_FALSE(filters.front().accepts(99));
    EXPECT_FALSE(filters.back().accepts(613));

    // The full 64-bit span must not overflow the slice arithmetic.
    const std::pair<uint64_t, uint64_t> full{0, ~uint64_t{0}};
    const auto f0 = tracefile::rangePartition(full, 3, 0);
    const auto f1 = tracefile::rangePartition(full, 3, 1);
    const auto f2 = tracefile::rangePartition(full, 3, 2);
    EXPECT_EQ(f0.lo, 0u);
    EXPECT_EQ(f2.hi, ~uint64_t{0});
    EXPECT_EQ(f0.hi + 1, f1.lo);
    EXPECT_EQ(f1.hi + 1, f2.lo);
    for (const uint64_t addr :
         {uint64_t{0}, f0.hi, f1.lo, f1.hi, f2.lo, ~uint64_t{0}}) {
        EXPECT_EQ(f0.accepts(addr) + f1.accepts(addr) +
                      f2.accepts(addr),
                  1)
            << addr;
    }

    // More shards than addresses: surplus shards get empty slices,
    // the tiling stays exact.
    for (const uint64_t addr : {10, 11, 12}) {
        unsigned owners = 0;
        for (unsigned s = 0; s < 8; ++s)
            owners +=
                tracefile::rangePartition({10, 12}, 8, s)
                    .accepts(addr);
        EXPECT_EQ(owners, 1u) << addr;
    }

    // shards <= 1 means unfiltered, and inverted bounds are refused.
    EXPECT_TRUE(tracefile::rangePartition(bounds, 1, 0).all());
    EXPECT_THROW(tracefile::rangePartition({5, 4}, 2, 0),
                 std::invalid_argument);
}

TEST(Sharding, BlockIntersectsMatchesFilterSemantics)
{
    ShardFilter range{4, 1, tracefile::Partition::range, 100, 200};
    EXPECT_TRUE(tracefile::blockIntersects(range, 50, 100));
    EXPECT_TRUE(tracefile::blockIntersects(range, 150, 160));
    EXPECT_TRUE(tracefile::blockIntersects(range, 200, 500));
    EXPECT_FALSE(tracefile::blockIntersects(range, 0, 99));
    EXPECT_FALSE(tracefile::blockIntersects(range, 201, 500));

    ShardFilter mod{4, 1};
    EXPECT_TRUE(tracefile::blockIntersects(mod, 5, 5));
    EXPECT_FALSE(tracefile::blockIntersects(mod, 6, 6));
    EXPECT_TRUE(tracefile::blockIntersects(ShardFilter{}, 6, 6));
}

TEST(RangeSharding, SortedContainerPrunesToContiguousBlockRuns)
{
    // On an address-sorted container a range shard owns one
    // contiguous run of blocks: with 4096 sequential addresses in
    // 8-record blocks, each of 64 range shards decodes exactly
    // 512/64 = 8 blocks — a 64x pruning win, where modulo sharding
    // (same file, same shard count) must decode 64 blocks.
    TmpFile file("wlcrc_v3_rangeprune.trc");
    std::vector<WriteTransaction> txns(4096);
    for (uint64_t i = 0; i < txns.size(); ++i)
        txns[i].lineAddr = i;
    writeV3(file.path, txns, 8);

    MappedTraceSource source(file.path);
    ASSERT_EQ(source.trace().blockCount(), 512u);
    ASSERT_EQ(source.addrBounds(),
              (std::pair<uint64_t, uint64_t>{0, 4095}));

    std::size_t yielded_total = 0;
    for (unsigned shard = 0; shard < 64; ++shard) {
        const auto filter = tracefile::rangePartition(
            source.addrBounds(), 64, shard);
        auto cursor = source.open(filter);
        uint64_t prev = 0;
        std::size_t yielded = 0;
        while (auto t = cursor->next()) {
            EXPECT_TRUE(filter.accepts(t->lineAddr));
            if (yielded > 0) {
                EXPECT_LT(prev, t->lineAddr);
            }
            prev = t->lineAddr;
            ++yielded;
        }
        yielded_total += yielded;
        EXPECT_EQ(yielded, 4096u / 64);
        EXPECT_EQ(cursor->blocksVisited(), 8u) << "shard " << shard;

        auto modulo = source.open(ShardFilter{64, shard});
        while (modulo->next()) {
        }
        EXPECT_EQ(modulo->blocksVisited(), 64u) << "shard " << shard;
    }
    EXPECT_EQ(yielded_total, txns.size()); // partition is exact
}

TEST(RangeSharding, SynthesizedSpecFailsWithNamedError)
{
    // Range partitioning needs stored address bounds; a synthesized
    // stream has none and the spec must fail cleanly, not fudge.
    runner::ExperimentSpec spec;
    spec.scheme = "Baseline";
    spec.workload = "gcc";
    spec.lines = 100;
    spec.shards = 2;
    spec.partition = tracefile::Partition::range;
    const auto results = runner::ExperimentRunner().run({spec});
    ASSERT_FALSE(results[0].ok);
    EXPECT_NE(
        results[0].error.find("partition=range requires a trace "
                              "source"),
        std::string::npos)
        << results[0].error;
}

// ------------------------------------------------------ decode-ahead

TEST(DecodeAhead, StagedReplayIsBitIdenticalToSynchronous)
{
    TmpFile file("wlcrc_v3_ahead.trc");
    const auto txns = sampleStream(3000, "libq", 43);
    writeV3(file.path, txns, 32);
    MappedTraceSource source(file.path);
    ASSERT_TRUE(source.trace().anyCompressed());

    const auto collect = [&](const ShardFilter &filter,
                             uint64_t &visited) {
        std::vector<WriteTransaction> got;
        auto cursor = source.open(filter);
        while (auto t = cursor->next())
            got.push_back(*t);
        visited = cursor->blocksVisited();
        return got;
    };
    const auto same = [](const std::vector<WriteTransaction> &a,
                         const std::vector<WriteTransaction> &b) {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i)
            if (a[i].lineAddr != b[i].lineAddr ||
                a[i].oldData != b[i].oldData ||
                a[i].newData != b[i].newData)
                return false;
        return true;
    };

    uint64_t syncVisited = 0, aheadVisited = 0;
    std::vector<WriteTransaction> sync, ahead;
    {
        ScopedEnv env("WLCRC_DECODE_AHEAD", "0");
        sync = collect({}, syncVisited);
    }
    {
        ScopedEnv env("WLCRC_DECODE_AHEAD", "5");
        ahead = collect({}, aheadVisited);
    }
    EXPECT_EQ(sync.size(), 3000u);
    EXPECT_TRUE(same(sync, ahead));
    EXPECT_EQ(syncVisited, aheadVisited);

    // Sharded: staging composes with block pruning.
    {
        ScopedEnv env("WLCRC_DECODE_AHEAD", "0");
        sync = collect(ShardFilter{8, 3}, syncVisited);
    }
    {
        ScopedEnv env("WLCRC_DECODE_AHEAD", "4");
        ahead = collect(ShardFilter{8, 3}, aheadVisited);
    }
    EXPECT_FALSE(sync.empty());
    EXPECT_TRUE(same(sync, ahead));
    EXPECT_EQ(syncVisited, aheadVisited);

    // The staging ring is visible only in the memory bound: depth
    // slots versus one synchronous block view. A compressed
    // container defaults to staged decode (depth 2) when the env
    // knob is unset.
    const std::size_t blockBytes = 32u * tracefile::recordBytes;
    {
        ScopedEnv env("WLCRC_DECODE_AHEAD", "0");
        EXPECT_EQ(source.open({})->bufferBytes(), blockBytes);
    }
    {
        ScopedEnv env("WLCRC_DECODE_AHEAD", "5");
        EXPECT_GT(source.open({})->bufferBytes(), blockBytes);
    }
    EXPECT_GT(source.open({})->bufferBytes(), blockBytes);
}

TEST(DecodeAhead, ErrorsPropagateThroughTheStagingRing)
{
    TmpFile file("wlcrc_v3_ahead_err.trc");
    writeV3(file.path, sampleStream(2000, "libq", 47), 32);
    // Corrupt a mid-file block's stored bytes.
    const MappedTrace probe(file.path);
    corruptByte(file.path,
                probe.blockInfo(probe.blockCount() / 2).offset + 2);

    ScopedEnv env("WLCRC_DECODE_AHEAD", "3");
    auto cursor = MappedTraceSource(file.path).open({});
    try {
        while (cursor->next()) {
        }
        FAIL() << "staged cursor swallowed a corrupt block";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("checksum mismatch"),
                  std::string::npos)
            << err.what();
    }
}

// ------------------------------------- replay equivalence (acceptance)

std::string
replayCsv(const std::shared_ptr<const TransactionSource> &source,
          unsigned jobs, unsigned shards,
          tracefile::Partition partition =
              tracefile::Partition::modulo)
{
    runner::ExperimentGrid grid;
    grid.schemes({"Baseline", "WLCRC-16"})
        .sources({source})
        .shards(shards)
        .partition(partition)
        .seed(21);
    runner::RunnerOptions opts;
    opts.jobs = jobs;
    const auto results = runner::ExperimentRunner(opts).run(grid);
    for (const auto &r : results) {
        EXPECT_TRUE(r.ok) << r.error;
    }
    std::ostringstream os;
    runner::CsvReporter().write(os, results);
    return os.str();
}

TEST(ReplayEquivalence, VectorV1AndV2ProduceIdenticalCsv)
{
    // The acceptance property: one stream, three containers, one
    // byte-exact report — sharded, to exercise the filtered cursors.
    TmpFile v1("wlcrc_equiv_v1.trc"), v2("wlcrc_equiv_v2.trc");
    const auto txns = sampleStream(1500, "milc", 29);
    writeV1(v1.path, txns);
    writeV2(v2.path, txns, 64);

    const auto fromVector = std::make_shared<VectorSource>(
        std::make_shared<std::vector<WriteTransaction>>(txns));
    const auto fromV1 = tracefile::openTraceSource(v1.path);
    const auto fromV2 = tracefile::openTraceSource(v2.path);

    const auto csvVector = replayCsv(fromVector, 2, 4);
    EXPECT_FALSE(csvVector.empty());
    EXPECT_EQ(csvVector, replayCsv(fromV1, 2, 4));
    EXPECT_EQ(csvVector, replayCsv(fromV2, 2, 4));
    // The same stream, never stored: re-derived from its seed.
    EXPECT_EQ(csvVector,
              replayCsv(std::make_shared<SynthSource>(false, "milc",
                                                      29, 1500),
                        2, 4));
}

TEST(ReplayEquivalence, V2ReplayIsIdenticalAcrossJobCounts)
{
    TmpFile v2("wlcrc_jobs_v2.trc");
    writeV2(v2.path, sampleStream(1200, "lesl", 31), 128);
    const auto source = tracefile::openTraceSource(v2.path);
    const auto csv1 = replayCsv(source, 1, 4);
    const auto csv4 = replayCsv(source, 4, 4);
    EXPECT_FALSE(csv1.empty());
    EXPECT_EQ(csv1, csv4);
}

TEST(ReplayEquivalence, StreamedReplayIsBoundedByBlockSize)
{
    // A trace whose record payload dwarfs the cursor's buffer must
    // still replay correctly: proof that replay streams per block
    // instead of slurping. 2000 records x 136 B = 272 kB payload vs
    // a 4-record (544 B) block buffer.
    TmpFile v2("wlcrc_stream_bound.trc");
    const auto txns = sampleStream(2000, "zeus", 37);
    writeV2(v2.path, txns, 4);

    const auto source = tracefile::openTraceSource(v2.path);
    auto cursor = source->open({});
    const std::size_t payload =
        txns.size() * tracefile::recordBytes;
    EXPECT_EQ(cursor->bufferBytes(),
              4u * tracefile::recordBytes);
    EXPECT_LT(cursor->bufferBytes() * 100, payload);

    const auto fromVector = std::make_shared<VectorSource>(
        std::make_shared<std::vector<WriteTransaction>>(txns));
    EXPECT_EQ(replayCsv(source, 2, 2), replayCsv(fromVector, 2, 2));
}

TEST(ReplayEquivalence, V3ContainersMatchEveryOtherFraming)
{
    // The acceptance property extended to WLCTRC03: one stream,
    // five framings (memory, v1, v2, v3 raw, v3 lz), one byte-exact
    // sharded report — and for the compressed container the report
    // is also invariant to job count and decode-ahead depth.
    TmpFile v1("wlcrc_equiv3_v1.trc"), v2("wlcrc_equiv3_v2.trc"),
        v3raw("wlcrc_equiv3_v3raw.trc"),
        v3lz("wlcrc_equiv3_v3lz.trc");
    const auto txns = sampleStream(1500, "milc", 53);
    writeV1(v1.path, txns);
    writeV2(v2.path, txns, 64);
    writeV3(v3raw.path, txns, 64, tracefile::BlockCodec::raw);
    writeV3(v3lz.path, txns, 64, tracefile::BlockCodec::lz);

    const auto fromVector = std::make_shared<VectorSource>(
        std::make_shared<std::vector<WriteTransaction>>(txns));
    const auto csv = replayCsv(fromVector, 2, 4);
    EXPECT_FALSE(csv.empty());
    EXPECT_EQ(csv, replayCsv(tracefile::openTraceSource(v1.path),
                             2, 4));
    EXPECT_EQ(csv, replayCsv(tracefile::openTraceSource(v2.path),
                             2, 4));
    EXPECT_EQ(csv, replayCsv(tracefile::openTraceSource(v3raw.path),
                             2, 4));
    const auto fromLz = tracefile::openTraceSource(v3lz.path);
    EXPECT_EQ(csv, replayCsv(fromLz, 2, 4));
    EXPECT_EQ(csv, replayCsv(fromLz, 1, 4));
    EXPECT_EQ(csv, replayCsv(fromLz, 4, 4));
    {
        ScopedEnv env("WLCRC_DECODE_AHEAD", "0");
        EXPECT_EQ(csv, replayCsv(fromLz, 2, 4));
    }
    {
        ScopedEnv env("WLCRC_DECODE_AHEAD", "7");
        EXPECT_EQ(csv, replayCsv(fromLz, 2, 4));
    }
}

TEST(ReplayEquivalence, RangePartitionIsFramingAndJobInvariant)
{
    // Range partitioning changes which shard replays which line, so
    // its report differs from modulo's — but it must be identical
    // across container generations and job counts for one stream.
    TmpFile v2("wlcrc_range_v2.trc"), v3("wlcrc_range_v3.trc");
    auto txns = sampleStream(1200, "lesl", 59);
    std::stable_sort(txns.begin(), txns.end(),
                     [](const WriteTransaction &a,
                        const WriteTransaction &b) {
                         return a.lineAddr < b.lineAddr;
                     });
    writeV2(v2.path, txns, 64);
    writeV3(v3.path, txns, 64);

    const auto fromV2 = tracefile::openTraceSource(v2.path);
    const auto fromV3 = tracefile::openTraceSource(v3.path);
    const auto range =
        replayCsv(fromV2, 1, 4, tracefile::Partition::range);
    EXPECT_FALSE(range.empty());
    EXPECT_EQ(range,
              replayCsv(fromV3, 1, 4, tracefile::Partition::range));
    EXPECT_EQ(range,
              replayCsv(fromV3, 4, 4, tracefile::Partition::range));
}

// ------------------------------------------------- grid source axis

TEST(ExperimentGrid, SourceAxisExpandsSourceMajor)
{
    const auto a = std::make_shared<VectorSource>(
        std::make_shared<std::vector<WriteTransaction>>(
            sampleStream(10)));
    const auto b = std::make_shared<VectorSource>(
        std::make_shared<std::vector<WriteTransaction>>(
            sampleStream(20)));
    a->setLabel("trace-a");
    b->setLabel("trace-b");
    const auto specs = runner::ExperimentGrid()
                           .sources({a, b})
                           .schemes({"Baseline", "WLCRC-16"})
                           .expand();
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].sourceName(), "trace-a");
    EXPECT_EQ(specs[1].sourceName(), "trace-a");
    EXPECT_EQ(specs[2].sourceName(), "trace-b");
    EXPECT_EQ(specs[0].scheme, "Baseline");
    EXPECT_EQ(specs[1].scheme, "WLCRC-16");
    EXPECT_EQ(runner::ExperimentGrid()
                  .sources({a, b})
                  .schemes({"Baseline", "WLCRC-16"})
                  .size(),
              4u);
}

TEST(ExperimentGrid, DuplicateSourceLabelsThrow)
{
    const auto a = std::make_shared<VectorSource>(
        std::make_shared<std::vector<WriteTransaction>>(
            sampleStream(10)));
    const auto b = std::make_shared<VectorSource>(
        std::make_shared<std::vector<WriteTransaction>>(
            sampleStream(10)));
    EXPECT_THROW(
        runner::ExperimentGrid().sources({a, b}).expand(),
        std::invalid_argument);
    EXPECT_THROW(
        runner::ExperimentGrid().sources({nullptr}).expand(),
        std::invalid_argument);
}

// --------------------------------------------------- mixed workloads

TEST(MixedSynthesizer, DeterministicDisjointWindowsAndCoherent)
{
    const std::vector<MixedSynthesizer::Program> programs = {
        {"gcc", 2.0}, {"libq", 1.0}};
    MixedSynthesizer a(programs, 5), b(programs, 5);
    const uint64_t gccFootprint =
        WorkloadProfile::byName("gcc").footprintLines;

    std::unordered_map<uint64_t, Line512> image;
    std::size_t inFirstWindow = 0;
    for (int i = 0; i < 4000; ++i) {
        const auto ta = a.next();
        const auto tb = b.next();
        ASSERT_EQ(ta.lineAddr, tb.lineAddr);
        ASSERT_EQ(ta.newData, tb.newData);

        // Address windows are disjoint per program.
        inFirstWindow += ta.lineAddr < gccFootprint;
        // Coherent image across the blend: old == last new.
        const auto it = image.find(ta.lineAddr);
        if (it != image.end()) {
            ASSERT_EQ(ta.oldData, it->second) << "write " << i;
        }
        image[ta.lineAddr] = ta.newData;
    }
    EXPECT_EQ(a.baseOf(0), 0u);
    EXPECT_EQ(a.baseOf(1), gccFootprint);
    // Weighted 2:1 — the gcc window should take roughly 2/3.
    EXPECT_GT(inFirstWindow, 4000 * 0.55);
    EXPECT_LT(inFirstWindow, 4000 * 0.78);
}

TEST(MixedSynthesizer, RejectsBadPrograms)
{
    EXPECT_THROW(MixedSynthesizer({}, 1), std::invalid_argument);
    EXPECT_THROW(MixedSynthesizer({{"nope", 1.0}}, 1),
                 std::invalid_argument);
    EXPECT_THROW(MixedSynthesizer({{"gcc", 0.0}}, 1),
                 std::invalid_argument);
}

// ---------------------------------------------- synthesized sources

/** The first @p n records @p gen draws. */
template <typename Generator>
std::vector<WriteTransaction>
drawn(Generator gen, uint64_t n)
{
    std::vector<WriteTransaction> txns;
    for (uint64_t i = 0; i < n; ++i)
        txns.push_back(gen.next());
    return txns;
}

void
expectSameRecords(const std::vector<WriteTransaction> &got,
                  const std::vector<WriteTransaction> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].lineAddr, want[i].lineAddr) << i;
        ASSERT_EQ(got[i].oldData, want[i].oldData) << i;
        ASSERT_EQ(got[i].newData, want[i].newData) << i;
    }
}

TEST(SynthSource, CursorsReplayTheGeneratorFilteredAndRestart)
{
    const uint64_t lines = 600;
    const std::vector<MixedSynthesizer::Program> blend = {
        {"gcc", 2.0}, {"libq", 1.0}};
    struct Case
    {
        std::unique_ptr<SynthSource> source;
        std::vector<WriteTransaction> want; //!< the generator's draws
    };
    std::vector<Case> cases;
    cases.push_back({std::make_unique<SynthSource>(true, "", 7, lines),
                     drawn(trace::RandomWorkload(7), lines)});
    cases.push_back(
        {std::make_unique<SynthSource>(false, "gcc", 7, lines),
         drawn(TraceSynthesizer(WorkloadProfile::byName("gcc"), 7),
               lines)});
    cases.push_back({std::make_unique<SynthSource>(blend, 7, lines),
                     drawn(MixedSynthesizer(blend, 7), lines)});
    for (const auto &[sourcePtr, want] : cases) {
        const SynthSource &source = *sourcePtr;
        SCOPED_TRACE(source.describe());
        EXPECT_EQ(source.records(), lines);
        expectSameRecords(tracefile::gather(source), want);
        // A second pass restarts the identical stream.
        expectSameRecords(tracefile::gather(source), want);
        for (unsigned s = 0; s < 3; ++s) {
            std::vector<WriteTransaction> own;
            for (const auto &t : want)
                if (t.lineAddr % 3 == s)
                    own.push_back(t);
            std::vector<WriteTransaction> got;
            auto cursor = source.open({3, s});
            while (auto t = cursor->next())
                got.push_back(*t);
            expectSameRecords(got, own);
        }
        // One scan helper and one record digest for every index-free
        // source: equal record streams, equal bounds and digests.
        const VectorSource stored(
            std::make_shared<std::vector<WriteTransaction>>(want));
        EXPECT_EQ(source.addrBounds(), stored.addrBounds());
        EXPECT_EQ(source.contentDigest(), stored.contentDigest());
    }
    EXPECT_THROW(SynthSource(false, "nope", 1, 10),
                 std::invalid_argument);
    EXPECT_THROW(SynthSource(std::vector<MixedSynthesizer::Program>{},
                             1, 10),
                 std::invalid_argument);
}

// -------------------------------------------------------- conversion

TEST(Conversion, V1ToV2AndBackPreservesEveryRecord)
{
    TmpFile v1("wlcrc_conv_v1.trc"), v2("wlcrc_conv_v2.trc"),
        back("wlcrc_conv_back.trc");
    const auto txns = sampleStream(700, "cann", 41);
    writeV1(v1.path, txns);

    // v1 -> v2 via the streaming cursor (what `convert` does).
    {
        auto cursor = V1FileSource(v1.path).open({});
        TraceFileWriter writer(v2.path, v2Options(32));
        while (auto t = cursor->next())
            writer.write(*t);
        writer.close();
    }
    // v2 -> v1.
    {
        auto cursor = MappedTraceSource(v2.path).open({});
        trace::TraceWriter writer(back.path);
        while (auto t = cursor->next())
            writer.write(*t);
    }
    // The v1 bytes round-trip exactly: same record encoding.
    std::ifstream f1(v1.path, std::ios::binary),
        f2(back.path, std::ios::binary);
    std::stringstream s1, s2;
    s1 << f1.rdbuf();
    s2 << f2.rdbuf();
    EXPECT_EQ(s1.str(), s2.str());
    EXPECT_FALSE(s1.str().empty());
}

TEST(Conversion, V2ToV3AndBackIsByteExact)
{
    // Compression is framing, not content: v2 -> v3 -> v2 with the
    // same blocking regenerates the original file byte for byte.
    TmpFile v2("wlcrc_conv23_v2.trc"), v3("wlcrc_conv23_v3.trc"),
        back("wlcrc_conv23_back.trc");
    const auto txns = sampleStream(900, "libq", 67);
    writeV2(v2.path, txns, 64);
    {
        auto cursor = MappedTraceSource(v2.path).open({});
        tracefile::WriterOptions options;
        options.recordsPerBlock = 64;
        options.format = tracefile::TraceFormat::v3;
        TraceFileWriter writer(v3.path, options);
        while (auto t = cursor->next())
            writer.write(*t);
        writer.close();
    }
    EXPECT_LT(std::filesystem::file_size(v3.path),
              std::filesystem::file_size(v2.path));
    {
        auto cursor = MappedTraceSource(v3.path).open({});
        TraceFileWriter writer(back.path, v2Options(64));
        while (auto t = cursor->next())
            writer.write(*t);
        writer.close();
    }
    const auto a = slurpBytes(v2.path);
    const auto b = slurpBytes(back.path);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    // And the cache-facing digest never moved along the way.
    const auto digest =
        tracefile::openTraceSource(v2.path)->contentDigest();
    EXPECT_EQ(digest,
              tracefile::openTraceSource(v3.path)->contentDigest());
    EXPECT_EQ(digest,
              tracefile::openTraceSource(back.path)
                  ->contentDigest());
}

// ------------------------------------------------ wlcrc_trace tool

#ifdef WLCRC_TRACE_BIN

std::string
traceTool(const std::string &args)
{
    int rc = 0;
    const auto out = test::captureStdout(
        std::string(WLCRC_TRACE_BIN) + " " + args + " 2>&1", rc);
    EXPECT_EQ(rc, 0) << args << "\n" << out;
    return out;
}

TEST(TraceTool, ExternalSortIsStableUnderTinyMemoryBudget)
{
    // 20000 records over 3000 colliding addresses against a 1 MiB
    // record budget (~7.7k records) force the spill-and-recurse
    // path; a per-record serial stamped into the data words makes
    // stability observable.
    TmpFile in("wlcrc_sort_in.trc"), out("wlcrc_sort_out.trc");
    Rng rng(61);
    std::vector<WriteTransaction> txns(20000);
    for (uint64_t i = 0; i < txns.size(); ++i) {
        txns[i].lineAddr = rng.nextBelow(3000);
        txns[i].newData.setWord(0, i);
    }
    writeV2(in.path, txns, 256);

    auto expect = txns;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const WriteTransaction &a,
                        const WriteTransaction &b) {
                         return a.lineAddr < b.lineAddr;
                     });
    for (const std::string codec : {"raw", "lz"}) {
        SCOPED_TRACE(codec);
        traceTool("sort " + in.path + " " + out.path + " --codec " +
                  codec + " --mem-mb 1");
        MappedTraceSource sorted(out.path);
        const auto got = tracefile::gather(sorted);
        ASSERT_EQ(got.size(), expect.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].lineAddr, expect[i].lineAddr) << i;
            ASSERT_EQ(got[i].newData.word(0),
                      expect[i].newData.word(0))
                << i;
        }
        // Sorting bought compression: near-constant per-block
        // address deltas squeeze under the lz codec.
        EXPECT_EQ(sorted.trace().anyCompressed(), codec == "lz");
    }
    // No spill file outlives the sort.
    for (const auto &entry : std::filesystem::directory_iterator(
             std::filesystem::path(out.path).parent_path()))
        EXPECT_EQ(entry.path().string().rfind(out.path + ".sort", 0),
                  std::string::npos)
            << entry.path();
}

TEST(TraceTool, SortStreamsASingleOversizedAddressRun)
{
    // All records share one address, so no budget can split them:
    // the sorter must fall back to a stream copy that preserves
    // arrival order (the sort is stable even degenerate).
    TmpFile in("wlcrc_sort1_in.trc"), out("wlcrc_sort1_out.trc");
    std::vector<WriteTransaction> txns(20000);
    for (uint64_t i = 0; i < txns.size(); ++i) {
        txns[i].lineAddr = 7;
        txns[i].newData.setWord(0, i);
    }
    writeV1(in.path, txns);

    traceTool("sort " + in.path + " " + out.path +
              " --codec raw --mem-mb 1");

    const auto got =
        tracefile::gather(MappedTraceSource(out.path));
    ASSERT_EQ(got.size(), txns.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].lineAddr, 7u) << i;
        ASSERT_EQ(got[i].newData.word(0), i) << i;
    }
}

/** @return whether `cmp` finds @p a and @p b byte-identical. */
bool
sameBytes(const std::string &a, const std::string &b)
{
    return test::exitCodeOf("cmp -s " + a + " " + b) == 0;
}

TEST(TraceTool, ConvertInfoAndVerifyCoverV3)
{
    // raw -> lz -> raw: compression is framing only, so the round
    // trip regenerates the raw file byte for byte.
    TmpFile v2("wlcrc_tool_v2.trc"), raw("wlcrc_tool_raw.trc"),
        lz("wlcrc_tool_lz.trc"), back("wlcrc_tool_back.trc");
    writeV2(v2.path, sampleStream(500, "libq", 71), 64);

    traceTool("convert " + v2.path + " " + raw.path +
              " --codec raw --block-records 64");
    traceTool("convert " + raw.path + " " + lz.path +
              " --codec lz --block-records 64");
    const auto info = traceTool("info " + lz.path + " --blocks");
    EXPECT_NE(info.find("WLCTRC03"), std::string::npos) << info;
    EXPECT_NE(info.find("ratio"), std::string::npos) << info;
    EXPECT_NE(info.find(" lz"), std::string::npos) << info;
    EXPECT_NE(info.find("codec"), std::string::npos) << info;
    EXPECT_NE(traceTool("verify " + lz.path).find("all checksums "
                                                  "match"),
              std::string::npos);
    EXPECT_FALSE(MappedTrace(raw.path).anyCompressed());
    EXPECT_TRUE(MappedTrace(lz.path).anyCompressed());

    traceTool("convert " + lz.path + " " + back.path +
              " --codec raw --block-records 64");
    EXPECT_TRUE(sameBytes(back.path, raw.path));
}

TEST(TraceTool, ConvertOfV1AndV2EqualsGeneratedV3)
{
    // The read-only generations convert to exactly the file
    // `generate` writes for the same stream.
    TmpFile gen("wlcrc_tool_gen.trc"), v1("wlcrc_tool_fix_v1.trc"),
        v2("wlcrc_tool_fix_v2.trc"), out("wlcrc_tool_conv.trc");
    const auto txns = sampleStream(5000, "gcc", 29);
    traceTool("generate --workload gcc --lines 5000 --seed 29 --out " +
              gen.path);
    writeV1(v1.path, txns);
    writeV2(v2.path, txns, 256);
    for (const std::string *in : {&v1.path, &v2.path}) {
        SCOPED_TRACE(*in);
        traceTool("convert " + *in + " " + out.path);
        EXPECT_TRUE(sameBytes(out.path, gen.path));
    }
    EXPECT_EQ(tracefile::detectFormat(gen.path),
              tracefile::TraceFormat::v3);
}

#ifdef WLCRC_SIM_BIN

TEST(TraceTool, SimTraceOutHoldsTheSynthesizedStream)
{
    // wlcrc_sim --trace-out writes the stream its replay synthesizes:
    // the container verifies and holds exactly the synthesizer's
    // records.
    const auto want = sampleStream(700, "lesl", 13);
    for (const std::string codec : {"raw", "lz"}) {
        SCOPED_TRACE(codec);
        TmpFile out("wlcrc_sim_trace_out_" + codec + ".trc");
        EXPECT_EQ(test::exitCodeOf(std::string(WLCRC_SIM_BIN) +
                                   " --workload lesl --lines 700 "
                                   "--seed 13 --trace-codec " +
                                   codec + " --trace-out " +
                                   out.path + " >/dev/null 2>&1"),
                  0);
        EXPECT_EQ(MappedTrace(out.path).anyCompressed(),
                  codec == "lz");
        EXPECT_NE(traceTool("verify " + out.path)
                      .find("all checksums match"),
                  std::string::npos);
        expectSameRecords(
            tracefile::gather(*tracefile::openTraceSource(out.path)),
            want);
    }
}

#endif // WLCRC_SIM_BIN

TEST(TraceCli, RejectsRepeatedFlagsAndMalformedCountsWithUsageError)
{
    const std::string out = ::testing::TempDir() + "wlcrc_tracecli.trc";
    for (const std::string &bad : std::vector<std::string>{
             "generate --workload gcc --lines 100 --lines 50 --out " +
                 out,
          "generate --workload gcc --lines 1e2 --out " + out,
          "generate --mix gcc:x --lines 10 --out " + out,
          "generate --workload gcc --format v3 --out " + out,
          "generate --workload gcc --codec gzip --out " + out,
          "info " + out + " --lines 5", "verify"}) {
        EXPECT_EQ(test::exitCodeOf(std::string(WLCRC_TRACE_BIN) + " " +
                                   bad + " >/dev/null 2>&1"),
                  2)
            << bad;
    }
}

#endif // WLCRC_TRACE_BIN

} // namespace
