/**
 * @file
 * wlcrc_trace: the trace-store Swiss army knife. Everything the
 * simulator consumes through --trace-in is produced, migrated and
 * audited here; all subcommands stream block-by-block / record-by-
 * record, so arbitrarily large traces fit in bounded memory.
 *
 * Subcommands:
 *   generate   synthesize a trace file from a benchmark profile, the
 *              random workload, or a multi-programmed blend of
 *              profiles (--mix "gcc:2,lbm:1" weights the programs'
 *              shares of the write stream)
 *   convert    re-frame a WLCTRC01, WLCTRC02 or WLCTRC03 trace as
 *              WLCTRC03 with the chosen codec and blocking (the
 *              record encoding is shared, so every conversion is
 *              lossless)
 *   sort       rewrite a trace in ascending line-address order,
 *              preserving each line's write order — an external
 *              bucket sort bounded by --mem-mb, so traces far larger
 *              than RAM sort fine. Sorted containers compress
 *              better (same-line records become adjacent) and let
 *              range-partitioned shards prune almost every foreign
 *              block
 *   info       print header/index facts: format, records, blocks,
 *              address range, and for WLCTRC03 the per-codec block
 *              mix and compression ratio; --blocks adds the
 *              per-block table
 *   verify     audit integrity — CRC-check every container block
 *              (stored and, for compressed blocks, decompressed
 *              content) plus the footer index, or fully scan a
 *              WLCTRC01 dump for truncation; exits non-zero on
 *              corruption
 *
 * Every file this tool writes is WLCTRC03 (--codec lz by default);
 * WLCTRC01 and WLCTRC02 files are read everywhere.
 *
 * Examples:
 *   wlcrc_trace generate --workload gcc --lines 100000 --out gcc.trc
 *   wlcrc_trace generate --mix "lesl:2,libq:1" --lines 100000 \
 *       --out blend.trc --codec raw
 *   wlcrc_trace convert old_v2.trc new.trc
 *   wlcrc_trace sort blend.trc sorted.trc --mem-mb 64
 *   wlcrc_trace info blend.trc --blocks
 *   wlcrc_trace verify blend.trc
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "tracefile/format.hh"
#include "tracefile/mapped_trace.hh"
#include "tracefile/source.hh"
#include "tracefile/writer.hh"
#include "trace/trace_io.hh"
#include "trace/workload.hh"

namespace
{

using namespace wlcrc;

const char *const kUsage =
    "usage: wlcrc_trace <subcommand> [options]\n"
    "  generate (--workload W | --random | --mix \"A:w,B:w\")\n"
    "           --out FILE [--lines N] [--seed S]\n"
    "           [--codec raw|lz] [--block-records N]\n"
    "  convert  IN OUT [--codec raw|lz] [--block-records N]\n"
    "  sort     IN OUT [--codec raw|lz] [--block-records N] "
    "[--mem-mb M]\n"
    "  info     FILE [--blocks]\n"
    "  verify   FILE\n"
    "  --help   print this usage and exit 0\n";

/** Parse "gcc:2,lbm:1" into blend programs (weight defaults 1). */
std::vector<trace::MixedSynthesizer::Program>
parseMix(const std::string &spec)
{
    std::vector<trace::MixedSynthesizer::Program> programs;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string entry = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (!entry.empty()) {
            trace::MixedSynthesizer::Program p;
            const std::size_t colon = entry.find(':');
            if (colon == std::string::npos) {
                p.profile = entry;
            } else {
                p.profile = entry.substr(0, colon);
                p.weight = parseReal(entry.substr(colon + 1),
                                     "--mix weight of " + p.profile,
                                     RealRange::positive);
            }
            programs.push_back(std::move(p));
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (programs.empty())
        throw std::invalid_argument("--mix: no programs in '" +
                                    spec + "'");
    return programs;
}

struct Args
{
    std::vector<std::string> positional;
    std::string workload, mix, out;
    std::vector<trace::MixedSynthesizer::Program> programs; //!< --mix
    tracefile::WriterOptions writer; //!< --codec, --block-records
    bool random = false, blocks = false;
    uint64_t lines = 10000, seed = 1;
    uint64_t memMb = 64;
};

/**
 * Declare @p cmd's flags, bound to @p a's fields.
 * @return how many positionals @p cmd takes, or -1 if @p cmd is not
 *         a subcommand.
 */
int
declare(CommandLine &cl, const std::string &cmd, Args &a)
{
    if (cmd == "generate")
        cl.text("--workload", a.workload)
            .value("--mix",
                   [&a](const std::string &v) {
                       a.mix = v;
                       a.programs = parseMix(v);
                   })
            .flag("--random", a.random)
            .text("--out", a.out)
            .uint("--lines", a.lines)
            .uint("--seed", a.seed);
    if (cmd == "generate" || cmd == "convert" || cmd == "sort")
        cl.value("--codec",
                 [&a](const std::string &v) {
                     a.writer.codec = tracefile::parseCodecName(v);
                 })
            .uint("--block-records", a.writer.recordsPerBlock, 1);
    if (cmd == "sort") // the budget in bytes must fit 64 bits
        cl.uint("--mem-mb", a.memMb, 1, UINT64_MAX >> 20);
    if (cmd == "info")
        cl.flag("--blocks", a.blocks);
    cl.positionals(a.positional);
    if (cmd == "generate")
        return 0;
    if (cmd == "convert" || cmd == "sort")
        return 2;
    if (cmd == "info" || cmd == "verify")
        return 1;
    return -1;
}

int
cmdGenerate(const Args &a)
{
    const auto source =
        a.mix.empty() ? std::make_unique<tracefile::SynthSource>(
                            a.random, a.workload, a.seed, a.lines)
                      : std::make_unique<tracefile::SynthSource>(
                            a.programs, a.seed, a.lines);
    tracefile::TraceFileWriter writer(a.out, a.writer);
    auto cursor = source->open({});
    while (auto t = cursor->next())
        writer.write(*t);
    writer.close();
    const std::string what = !a.mix.empty() ? "blend " + a.mix
                             : a.random     ? "random data"
                                            : "workload " + a.workload;
    std::printf("wrote %llu records of %s to %s\n",
                static_cast<unsigned long long>(writer.written()),
                what.c_str(), a.out.c_str());
    return 0;
}

int
cmdConvert(const Args &a)
{
    const std::string &in = a.positional[0];
    const std::string &out = a.positional[1];

    const auto source = tracefile::openTraceSource(in);
    tracefile::TraceFileWriter writer(out, a.writer);
    auto cursor = source->open({});
    while (auto t = cursor->next())
        writer.write(*t);
    writer.close();
    std::printf("converted %llu records: %s -> %s (v3 %s)\n",
                static_cast<unsigned long long>(writer.written()),
                in.c_str(), out.c_str(),
                tracefile::codecName(a.writer.codec));
    return 0;
}

/**
 * The sort engine: an external-memory bucket sort over line
 * addresses.
 *
 * A stream that fits the record budget is loaded, stable-sorted
 * (std::stable_sort keeps equal addresses in arrival order — the
 * property the replay's old/new chaining depends on) and written. A
 * bigger stream is distributed: one scan histograms addresses into
 * up to 64K equal-width bins over the stream's [min, max] span, the
 * bins are greedily grouped into contiguous buckets that each fit
 * the budget, a second scan appends every record to its bucket's
 * spill file (WLCTRC03 with raw blocks, which need no decode), and
 * the buckets recurse in ascending order; each spill's index gives
 * its record count and address bounds without a scan.
 * A bucket that still exceeds the budget but spans a single address
 * is already sorted (arrival order IS its final order), so it is
 * stream-copied without ever being held in memory. The address span
 * shrinks ~64000-fold per level, so recursion depth is at most 4
 * even for a full 64-bit address space.
 */
void
sortSource(const tracefile::TransactionSource &src,
           tracefile::TraceFileWriter &out,
           uint64_t budgetRecords, const std::string &tmpBase,
           int depth)
{
    const uint64_t n = src.records();
    if (n == 0)
        return;
    const auto [lo, hi] = src.addrBounds();
    if (n <= budgetRecords) {
        std::vector<trace::WriteTransaction> txns;
        txns.reserve(n);
        auto cursor = src.open({});
        while (auto t = cursor->next())
            txns.push_back(std::move(*t));
        std::stable_sort(txns.begin(), txns.end(),
                         [](const trace::WriteTransaction &x,
                            const trace::WriteTransaction &y) {
                             return x.lineAddr < y.lineAddr;
                         });
        for (const auto &t : txns)
            out.write(t);
        return;
    }
    if (lo == hi) {
        // One address: arrival order is the stable-sorted order.
        auto cursor = src.open({});
        while (auto t = cursor->next())
            out.write(*t);
        return;
    }

    // Distribute. Equal-width bins over the span; every record of
    // one address lands in exactly one bin, so per-line order is
    // preserved through the spill files.
    const unsigned __int128 span =
        static_cast<unsigned __int128>(hi - lo) + 1;
    const uint64_t kBins = 1 << 16;
    const uint64_t width = static_cast<uint64_t>(
        (span + kBins - 1) / kBins); // >= 1
    const auto binOf = [&](uint64_t addr) {
        return (addr - lo) / width;
    };
    std::vector<uint64_t> counts(
        static_cast<std::size_t>(
            std::min<unsigned __int128>(kBins, span)),
        0);
    {
        auto cursor = src.open({});
        while (auto t = cursor->next())
            ++counts[binOf(t->lineAddr)];
    }

    // Greedy contiguous grouping: bucketOf[bin] -> bucket id. A
    // single bin over budget becomes its own (oversized) bucket and
    // recursion deals with it.
    std::vector<std::size_t> bucketOf(counts.size());
    std::size_t buckets = 0;
    uint64_t acc = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        if (b > 0 && acc > 0 && acc + counts[b] > budgetRecords) {
            ++buckets;
            acc = 0;
        }
        bucketOf[b] = buckets;
        acc += counts[b];
    }
    ++buckets;

    // The spill writers' block buffers share the record budget,
    // between 64 records (a stream buffer's worth) and a default
    // block each.
    tracefile::WriterOptions spillOptions;
    spillOptions.codec = tracefile::BlockCodec::raw;
    spillOptions.recordsPerBlock = static_cast<uint32_t>(
        std::clamp<uint64_t>(budgetRecords / buckets, 64,
                             tracefile::defaultRecordsPerBlock));
    std::vector<std::optional<tracefile::TraceFileWriter>> spill(
        buckets);
    std::vector<std::string> spillPath(buckets);
    for (std::size_t k = 0; k < buckets; ++k) {
        spillPath[k] = tmpBase + "." + std::to_string(depth) + "." +
                       std::to_string(k) + ".tmp";
        spill[k].emplace(spillPath[k], spillOptions);
    }
    {
        auto cursor = src.open({});
        while (auto t = cursor->next())
            spill[bucketOf[binOf(t->lineAddr)]]->write(*t);
    }
    for (auto &w : spill)
        w->close();
    spill.clear(); // release the write handles before re-reading

    for (std::size_t k = 0; k < buckets; ++k) {
        sortSource(tracefile::MappedTraceSource(spillPath[k]), out,
                   budgetRecords, tmpBase, depth + 1);
        std::filesystem::remove(spillPath[k]);
    }
}

int
cmdSort(const Args &a)
{
    const std::string &in = a.positional[0];
    const std::string &out = a.positional[1];

    const auto source = tracefile::openTraceSource(in);
    const uint64_t budgetRecords =
        std::max<uint64_t>(1, a.memMb * 1024 * 1024 /
                                  sizeof(trace::WriteTransaction));
    tracefile::TraceFileWriter writer(out, a.writer);
    sortSource(*source, writer, budgetRecords, out + ".sort", 0);
    writer.close();
    std::printf("sorted %llu records by line address: %s -> %s\n",
                static_cast<unsigned long long>(writer.written()),
                in.c_str(), out.c_str());
    return 0;
}

int
cmdInfo(const Args &a)
{
    const std::string &path = a.positional[0];

    const auto format = tracefile::detectFormat(path);
    const char *how =
        format == tracefile::TraceFormat::v1
            ? "sequential dump, streamed scans only"
            : (format == tracefile::TraceFormat::v2
                   ? "blocked + indexed, mmap random access"
                   : "blocked + indexed, per-block compression");
    const char digit = format == tracefile::TraceFormat::v1   ? '1'
                       : format == tracefile::TraceFormat::v2 ? '2'
                                                              : '3';
    std::printf("file:    %s\nformat:  WLCTRC0%c (%s)\n",
                path.c_str(), digit, how);
    if (format == tracefile::TraceFormat::v1) {
        const tracefile::V1FileSource source(path);
        std::printf("records: %llu (from file size; run `verify` to "
                    "check for truncation)\n",
                    static_cast<unsigned long long>(
                        source.records()));
        return 0;
    }

    const tracefile::MappedTrace trace(path);
    std::printf("records: %llu\nblocks:  %llu x %u records "
                "(%u B raw each)\naddrs:   [%llu, %llu]\n",
                static_cast<unsigned long long>(trace.records()),
                static_cast<unsigned long long>(trace.blockCount()),
                trace.recordsPerBlock(),
                trace.recordsPerBlock() * tracefile::recordBytes,
                static_cast<unsigned long long>(trace.minAddr()),
                static_cast<unsigned long long>(trace.maxAddr()));
    if (trace.format() == tracefile::TraceFormat::v3) {
        const uint64_t raw =
            trace.records() * tracefile::recordBytes;
        const uint64_t stored = trace.storedBytes();
        uint64_t perCodec[2] = {0, 0};
        for (uint64_t b = 0; b < trace.blockCount(); ++b)
            ++perCodec[static_cast<unsigned>(
                trace.blockInfo(b).codec)];
        std::printf("stored:  %llu B of %llu B raw "
                    "(ratio %.2fx; blocks: %llu raw, %llu lz)\n",
                    static_cast<unsigned long long>(stored),
                    static_cast<unsigned long long>(raw),
                    stored ? static_cast<double>(raw) /
                                 static_cast<double>(stored)
                           : 0.0,
                    static_cast<unsigned long long>(perCodec[0]),
                    static_cast<unsigned long long>(perCodec[1]));
    }
    if (a.blocks) {
        std::printf("%8s %8s %12s %12s %10s %6s %10s %7s\n", "block",
                    "count", "min_addr", "max_addr", "crc32",
                    "codec", "stored_b", "ratio");
        for (uint64_t b = 0; b < trace.blockCount(); ++b) {
            const auto &info = trace.blockInfo(b);
            std::printf(
                "%8llu %8u %12llu %12llu 0x%08x %6s %10u %6.2fx\n",
                static_cast<unsigned long long>(b), info.count,
                static_cast<unsigned long long>(info.minAddr),
                static_cast<unsigned long long>(info.maxAddr),
                info.crc, tracefile::codecName(info.codec),
                info.storedBytes,
                info.storedBytes
                    ? static_cast<double>(info.count *
                                          tracefile::recordBytes) /
                          static_cast<double>(info.storedBytes)
                    : 0.0);
        }
    }
    return 0;
}

int
cmdVerify(const Args &a)
{
    const std::string &path = a.positional[0];

    if (tracefile::detectFormat(path) == tracefile::TraceFormat::v1) {
        // No checksums in v1 — the strongest audit is a full scan,
        // which throws on a truncated trailing record.
        trace::TraceReader reader(path);
        uint64_t n = 0;
        while (reader.read())
            ++n;
        std::printf("ok: %s: %llu records, no truncation "
                    "(WLCTRC01 carries no checksums)\n",
                    path.c_str(),
                    static_cast<unsigned long long>(n));
        return 0;
    }
    // Construction already validates header/trailer/index CRC and
    // the v3 block chain; verifyAll() re-checksums every stored
    // block and, for compressed blocks, the decompressed content.
    const tracefile::MappedTrace trace(path);
    const uint64_t n = trace.verifyAll();
    std::printf("ok: %s: %llu records in %llu blocks, all "
                "checksums match\n",
                path.c_str(), static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(trace.blockCount()));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "--help" || cmd == "help") {
        std::fputs(kUsage, stdout);
        return 0;
    }
    Args a;
    CommandLine cl("wlcrc_trace", kUsage);
    const int positionals = declare(cl, cmd, a);
    if (positionals < 0)
        return cl.fail(cmd.empty() ? "missing subcommand"
                                   : "unknown subcommand " + cmd);
    const auto check = [&] {
        usageCheck(a.positional.size() ==
                       static_cast<std::size_t>(positionals),
                   cmd + " takes " + std::to_string(positionals) +
                       " file argument" + (positionals == 1 ? "" : "s"));
        const int sources =
            !a.workload.empty() + !a.mix.empty() + a.random;
        usageCheck(cmd != "generate" || sources == 1,
                   "pass exactly one of --workload, --mix and --random");
        usageCheck(cmd != "generate" || !a.out.empty(),
                   "generate needs --out FILE");
    };
    if (const auto status = cl.parse(argc, argv, check, 2))
        return *status;
    try {
        if (cmd == "generate")
            return cmdGenerate(a);
        if (cmd == "convert")
            return cmdConvert(a);
        if (cmd == "sort")
            return cmdSort(a);
        if (cmd == "info")
            return cmdInfo(a);
        return cmdVerify(a);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}
