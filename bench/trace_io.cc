/**
 * @file
 * Trace-store I/O benchmark: compression ratio, block decode
 * bandwidth (verify plus decompress, and the LZ decoder alone), the
 * CRC-32 kernel's speed-up over the scalar table loop, cold replay
 * throughput with synchronous vs decode-ahead block staging, and
 * the index-pruning win of range-sharded replay over a sorted
 * corpus.
 *
 * Corpus: one low-write-intensity synthesized stream (libq — the
 * suite's most compressible profile) written as WLCTRC03+lz twice:
 * in arrival order and in sorted line-address order (what
 * `wlcrc_trace sort` produces; same-line records become adjacent,
 * which is where the LZ codec earns its keep).
 *
 * Gates (exit 1): the sorted corpus must compress at least 5x and
 * range-sharded replay must visit fewer blocks than modulo replay of
 * the unsorted one. Both are deterministic, so they hold on any
 * machine. When the active SIMD kernel has a CRC-32 kernel of its
 * own, it must checksum one buffer at least 4x as fast as the
 * scalar table loop in the same run (a same-run ratio; under a
 * kernel without one, a note is printed instead). Throughput is
 * only reported: across commits, it is gated by perfbench's
 * trace-replay workload under scripts/perf_gate.sh.
 *
 * Knobs (on top of the usual WLCRC_BENCH_* set; the bench takes no
 * arguments):
 *   WLCRC_BENCH_TRACE_LINES  corpus writes (default 120000)
 *   WLCRC_TRACE_AHEAD_FLOOR  when set, minimum decode-ahead replay
 *       speedup over synchronous decode, a same-run ratio; needs
 *       >= 2 cores to mean anything, so it is skipped (with a note)
 *       on 1-cpu machines
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/csv.hh"
#include "common/lz.hh"
#include "common/simd.hh"
#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"
#include "tracefile/mapped_trace.hh"
#include "tracefile/source.hh"
#include "tracefile/writer.hh"
#include "trace/replay.hh"
#include "trace/workload.hh"
#include "wlcrc/factory.hh"

#include <unistd.h>

namespace
{

using namespace wlcrc;
namespace fs = std::filesystem;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
writeCorpus(const std::string &path,
            const std::vector<trace::WriteTransaction> &txns)
{
    tracefile::TraceFileWriter writer(path);
    for (const auto &t : txns)
        writer.write(t);
    writer.close();
}

/** Full-file block decode bandwidth (verify + decompress), MB/s. */
double
decodeMbPerSec(const std::string &path, unsigned passes)
{
    const tracefile::MappedTrace trace(path);
    std::vector<uint8_t> scratch;
    double best = 0;
    for (unsigned p = 0; p < passes; ++p) {
        uint64_t records = 0;
        const auto start = std::chrono::steady_clock::now();
        for (uint64_t b = 0; b < trace.blockCount(); ++b)
            records += trace.readBlock(b, scratch).count;
        const double secs = secondsSince(start);
        const double mb = static_cast<double>(records) *
                          tracefile::recordBytes / 1e6;
        best = std::max(best, secs > 0 ? mb / secs : 0.0);
    }
    return best;
}

/** LZ decoder bandwidth over the file's lz blocks, MB/s of output. */
double
lzDecodeMbPerSec(const std::string &path, unsigned passes)
{
    const tracefile::MappedTrace trace(path);
    std::vector<uint8_t> out(std::size_t{trace.recordsPerBlock()} *
                             tracefile::recordBytes);
    double best = 0;
    for (unsigned p = 0; p < passes; ++p) {
        std::size_t bytes = 0;
        const auto start = std::chrono::steady_clock::now();
        for (uint64_t b = 0; b < trace.blockCount(); ++b) {
            const auto &info = trace.blockInfo(b);
            if (info.codec == tracefile::BlockCodec::lz)
                bytes += lzDecompress(trace.storedData(b),
                                      info.storedBytes, out.data(),
                                      out.size());
        }
        const double secs = secondsSince(start);
        best = std::max(best, secs > 0 ? bytes / 1e6 / secs : 0.0);
    }
    return best;
}

/** Best-of-rounds CRC-32 bandwidth of two kernels on one buffer. */
struct CrcSpeeds
{
    double scalarGbs = 0;
    double activeGbs = 0;
};

CrcSpeeds
crcSpeeds(const simd::Ops &scalar, const simd::Ops &active)
{
    // 256 KiB stays in L2, so both sides time the arithmetic, not
    // memory. Rounds alternate the two sides.
    constexpr std::size_t len = 256 * 1024;
    std::vector<uint8_t> storage(len + 16);
    uint8_t *buf = storage.data() +
                   (16 - reinterpret_cast<std::uintptr_t>(
                             storage.data()) % 16) % 16;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < len; ++i) {
        x ^= x << 13, x ^= x >> 7, x ^= x << 17;
        buf[i] = static_cast<uint8_t>(x);
    }
    const auto gbPerSec = [&](const simd::Ops &ops, unsigned reps,
                              uint32_t &crc) {
        const auto start = std::chrono::steady_clock::now();
        for (unsigned r = 0; r < reps; ++r)
            crc = ops.crc32(crc, buf, len);
        const double secs = secondsSince(start);
        return secs > 0 ? reps * (len / 1e9) / secs : 0.0;
    };
    CrcSpeeds best;
    for (unsigned round = 0; round < 15; ++round) {
        uint32_t a = 0;
        uint32_t b = 0;
        best.scalarGbs = std::max(best.scalarGbs, gbPerSec(scalar, 4, a));
        best.activeGbs = std::max(best.activeGbs, gbPerSec(active, 4, b));
        if (a != b)
            throw std::runtime_error(
                "CRC-32 kernel disagrees with the scalar table loop");
    }
    return best;
}

/**
 * Cold single-cursor replay throughput, writes/s. @p aheadDepth is
 * exported through WLCRC_DECODE_AHEAD before the cursor opens, so
 * this times exactly what a runner shard sees with that setting.
 */
double
replayWritesPerSec(const std::string &path, unsigned aheadDepth,
                   unsigned passes, double *energyOut)
{
    ::setenv("WLCRC_DECODE_AHEAD",
             std::to_string(aheadDepth).c_str(), 1);
    const auto source = tracefile::openTraceSource(path);
    const pcm::EnergyModel energy;
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
    const auto codec = core::makeCodec("WLCRC-16", energy);
    double best = 0;
    for (unsigned p = 0; p < passes; ++p) {
        auto cursor = source->open({});
        trace::Replayer rep(*codec, unit, 7);
        uint64_t writes = 0;
        const auto start = std::chrono::steady_clock::now();
        rep.runBatch([&](trace::WriteTransaction &slot) {
            auto t = cursor->next();
            if (!t)
                return false;
            slot = *t;
            ++writes;
            return true;
        });
        const double secs = secondsSince(start);
        best = std::max(best,
                        secs > 0 ? static_cast<double>(writes) / secs
                                 : 0.0);
        if (energyOut)
            *energyOut = rep.result().energyPj.mean();
    }
    ::unsetenv("WLCRC_DECODE_AHEAD");
    return best;
}

/** Sum of blocks decoded by every shard cursor of a sharded scan. */
uint64_t
blocksVisitedSharded(const tracefile::TransactionSource &source,
                     unsigned shards, tracefile::Partition mode)
{
    uint64_t visited = 0;
    for (unsigned s = 0; s < shards; ++s) {
        tracefile::ShardFilter filter{shards, s};
        if (mode == tracefile::Partition::range)
            filter = tracefile::rangePartition(source.addrBounds(),
                                               shards, s);
        auto cursor = source.open(filter);
        while (cursor->next()) {
        }
        visited += cursor->blocksVisited();
    }
    return visited;
}

} // namespace

int
main(int argc, char **argv)
{
    namespace wb = wlcrc::bench;

    if (const int rc = wb::rejectArguments(argc, argv))
        return rc;
    return wb::benchMain([] {
        const uint64_t lines =
            envU64("WLCRC_BENCH_TRACE_LINES", 120000);
        const unsigned passes = 3;
        const unsigned shards = 8;
        const unsigned aheadDepth = static_cast<unsigned>(
            envU64("WLCRC_DECODE_AHEAD", 4));
        const unsigned cpus = std::thread::hardware_concurrency();
        const double aheadFloor =
            envDouble("WLCRC_TRACE_AHEAD_FLOOR", 0);

        // Corpus: arrival order + a locality-sorted copy
        // (stable by line address — what `wlcrc_trace sort` emits).
        trace::TraceSynthesizer synth(
            trace::WorkloadProfile::byName("libq"), 2718);
        std::vector<trace::WriteTransaction> txns;
        txns.reserve(lines);
        for (uint64_t i = 0; i < lines; ++i)
            txns.push_back(synth.next());
        std::vector<trace::WriteTransaction> sorted = txns;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const trace::WriteTransaction &a,
                            const trace::WriteTransaction &b) {
                             return a.lineAddr < b.lineAddr;
                         });

        const fs::path dir =
            fs::temp_directory_path() /
            ("wlcrc_trace_io." + std::to_string(::getpid()));
        fs::create_directories(dir);
        const std::string unV3 = (dir / "un.v3.trc").string();
        const std::string soV3 = (dir / "so.v3.trc").string();
        writeCorpus(unV3, txns);
        writeCorpus(soV3, sorted);

        const double rawMb = static_cast<double>(lines) *
                             tracefile::recordBytes / 1e6;
        const auto ratioOf = [](const std::string &path) {
            const tracefile::MappedTrace t(path);
            return t.storedBytes()
                       ? static_cast<double>(t.records()) *
                             tracefile::recordBytes /
                             static_cast<double>(t.storedBytes())
                       : 0.0;
        };
        const double ratioUnsorted = ratioOf(unV3);
        const double ratioSorted = ratioOf(soV3);

        const double decodeMbs = decodeMbPerSec(soV3, passes);
        const double lzMbs = lzDecodeMbPerSec(soV3, passes);
        const simd::Ops &scalarOps = simd::opsFor(simd::Kernel::Scalar);
        const simd::Ops &activeOps = simd::ops();
        // A kernel family without a CRC-32 kernel of its own (NEON
        // built without the CRC extension) points at the scalar one.
        const bool crcKernel = activeOps.crc32 != scalarOps.crc32;
        const CrcSpeeds crc = crcSpeeds(scalarOps, activeOps);
        const double crcSpeedup =
            crc.scalarGbs > 0 ? crc.activeGbs / crc.scalarGbs : 0;
        double syncEnergy = 0, aheadEnergy = 0;
        const double syncWps =
            replayWritesPerSec(soV3, 0, passes, &syncEnergy);
        const double aheadWps = replayWritesPerSec(
            soV3, aheadDepth, passes, &aheadEnergy);
        if (syncEnergy != aheadEnergy)
            throw std::runtime_error(
                "decode-ahead replay diverged from synchronous "
                "replay — staging must be result-invariant");
        const double speedup = syncWps > 0 ? aheadWps / syncWps : 0;

        // Pruning: unsorted+modulo (the legacy worst case — every
        // block holds every residue) vs sorted+range.
        const tracefile::MappedTraceSource unsortedSrc(unV3);
        const tracefile::MappedTraceSource sortedSrc(soV3);
        const uint64_t blocks =
            unsortedSrc.trace().blockCount() * shards;
        const uint64_t moduloVisited =
            blocksVisitedSharded(unsortedSrc, shards,
                                 tracefile::Partition::modulo);
        const uint64_t rangeVisited = blocksVisitedSharded(
            sortedSrc, shards, tracefile::Partition::range);

        std::remove(unV3.c_str());
        std::remove(soV3.c_str());
        std::error_code ec;
        fs::remove(dir, ec);

        std::cout << "# trace_io: container compression, decode and "
                     "replay throughput\n"
                  << "# lines=" << lines << " raw_mb=" << rawMb
                  << " cpus=" << cpus << " shards=" << shards
                  << " decode_ahead=" << aheadDepth << " simd="
                  << simd::kernelName(simd::activeKernel()) << "\n";
        CsvTable table({"metric", "value"});
        table.addRow("compression_ratio_unsorted", ratioUnsorted);
        table.addRow("compression_ratio_sorted", ratioSorted);
        table.addRow("decode_mb_per_sec", decodeMbs);
        table.addRow("lz_decode_mb_per_sec", lzMbs);
        table.addRow("crc32_scalar_gb_per_sec", crc.scalarGbs);
        table.addRow("crc32_active_gb_per_sec", crc.activeGbs);
        table.addRow("crc32_speedup", crcSpeedup);
        table.addRow("replay_sync_writes_per_sec", syncWps);
        table.addRow("replay_ahead_writes_per_sec", aheadWps);
        table.addRow("decode_ahead_speedup", speedup);
        table.addRow("sharded_blocks_total", blocks);
        table.addRow("blocks_visited_modulo_unsorted",
                     moduloVisited);
        table.addRow("blocks_visited_range_sorted", rangeVisited);
        table.write(std::cout);

        int failures = 0;
        // The compression floor is deterministic (same synthesizer,
        // same codec, any machine), so it is always enforced.
        const double ratioFloor = 5.0;
        if (ratioSorted < ratioFloor) {
            std::fprintf(stderr,
                         "COMPRESSION REGRESSION: sorted corpus "
                         "ratio %.2fx < floor %.2fx\n",
                         ratioSorted, ratioFloor);
            ++failures;
        }
        // Pruning must strictly beat the modulo worst case on the
        // sorted corpus — also deterministic.
        if (rangeVisited >= moduloVisited) {
            std::fprintf(stderr,
                         "PRUNING REGRESSION: range-sharded sorted "
                         "scan visited %llu blocks, modulo visited "
                         "%llu\n",
                         static_cast<unsigned long long>(
                             rangeVisited),
                         static_cast<unsigned long long>(
                             moduloVisited));
            ++failures;
        }
        // A same-run ratio, so it holds across machines: carry-less
        // multiply folding runs several times faster than any table
        // loop on every CPU that has it.
        const double crcFloor = 4.0;
        if (!crcKernel) {
            std::fprintf(stderr,
                         "note: CRC-32 floor %.1fx skipped — the %s "
                         "kernel has no CRC-32 kernel of its own\n",
                         crcFloor,
                         simd::kernelName(simd::activeKernel()));
        } else if (crcSpeedup < crcFloor) {
            std::fprintf(stderr,
                         "CRC-32 REGRESSION: %s kernel %.2fx the "
                         "scalar table loop < floor %.1fx\n",
                         simd::kernelName(simd::activeKernel()),
                         crcSpeedup, crcFloor);
            ++failures;
        }
        if (aheadFloor > 0) {
            if (cpus < 2) {
                std::fprintf(
                    stderr,
                    "note: decode-ahead floor %.2fx skipped — "
                    "overlap needs >= 2 cpus, this machine has "
                    "%u\n",
                    aheadFloor, cpus);
            } else if (speedup < aheadFloor) {
                std::fprintf(stderr,
                             "DECODE-AHEAD REGRESSION: speedup "
                             "%.2fx < floor %.2fx\n",
                             speedup, aheadFloor);
                ++failures;
            }
        }
        return failures ? 1 : 0;
    });
}
