/**
 * @file
 * Open-ended differential fuzzer for the encode hot path — the CLI
 * sibling of tests/encode_fuzz_test.cc (which runs a bounded budget
 * under ctest). Each iteration draws a pattern-biased payload and a
 * random stored line, encodes it under the scalar reference kernel,
 * and cross-checks:
 *
 *   - every available SIMD kernel (or just the one named by --simd),
 *   - the recompute-per-fetch scalar-scoring test hook,
 *   - periodically, a batched replay against a step()-ed replay.
 *
 * A seeded LZ stage runs first: pattern-biased buffers (runs,
 * repeats, 136-byte record-shaped periods; one in four ends with a
 * short far match just short of the end) must round-trip through
 * the trace block codec bit-exactly, and bit-flipped / truncated
 * compressed streams plus pure garbage must be rejected with an
 * exception or a bounded return — never a crash or an out-of-bounds
 * read (the ASan/UBSan CI legs run this binary to back that claim).
 * A mutated stream that does decode must decode to the same bytes
 * into a buffer of exactly the size it produced, where the
 * decoder's wide copies have no room past the end.
 *
 * A seeded WRK1 stage follows: an in-process distributed-sweep head
 * (runner/remote.hh) is bombarded with hostile client streams —
 * raw garbage, random frame types, oversized and truncated frame
 * promises, Results carrying junk ids and junk JSON — and must
 * survive every one of them: after the barrage a well-formed
 * Hello+Pull parks on the idle head and must be answered with Work
 * once a one-point run() starts.
 *
 * Any divergence prints a self-contained repro (iteration seed plus
 * full line hex) and exits 1; a clean run prints a summary and exits
 * 0. Seeds are derived per iteration from --seed, so a failure
 * reported as "iteration seed S" reproduces with --seed S --iters 1.
 *
 * Usage:
 *   wlcrc_fuzz [--iters N]       iterations (default 2000)
 *              [--seed N]        base seed (default 1)
 *              [--scheme NAME]   fuzz one scheme (default: all)
 *              [--simd KERNEL]   auto|scalar|avx2|neon (default auto)
 *              [--help]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/lz.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "coset/codec.hh"
#include "net/conn_server.hh"
#include "net/frame.hh"
#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"
#include "runner/remote.hh"
#include "trace/replay.hh"
#include "trace/workload.hh"
#include "tracefile/format.hh"
#include "wlcrc/factory.hh"

namespace
{

using namespace wlcrc;
using pcm::State;
using simd::Kernel;

const char *const kUsage =
    "usage: wlcrc_fuzz [--iters N] [--seed N] [--scheme NAME]\n"
    "                  [--simd auto|scalar|avx2|neon] [--help]\n"
    "\n"
    "Differential fuzzer: encodes random lines under every\n"
    "available SIMD kernel and the scalar-scoring test hook,\n"
    "failing loudly on any bit difference from the scalar\n"
    "reference. Seeded LZ round-trip/mutation and hostile WRK1\n"
    "client stages run first. Exits 0 on a clean run, 1 on a\n"
    "mismatch.\n";

std::vector<Kernel>
kernelsUnderTest()
{
    std::vector<Kernel> out;
    for (const Kernel k :
         {Kernel::Scalar, Kernel::Avx2, Kernel::Neon})
        if (simd::kernelAvailable(k))
            out.push_back(k);
    return out;
}

struct KernelScope
{
    explicit KernelScope(Kernel k) : prev_(simd::activeKernel())
    {
        simd::setKernel(k);
    }
    ~KernelScope() { simd::setKernel(prev_); }
    Kernel prev_;
};

struct ScalarScoringScope
{
    ScalarScoringScope()
    {
        coset::LineCodec::setScalarScoringForTest(true);
    }
    ~ScalarScoringScope()
    {
        coset::LineCodec::setScalarScoringForTest(false);
    }
};

/** Pattern-biased payload (see tests/encode_fuzz_test.cc). */
Line512
fuzzLine(Rng &rng)
{
    Line512 l;
    for (unsigned w = 0; w < lineWords; ++w) {
        switch (rng.nextBelow(5)) {
        case 0:
            l.setWord(w, 0);
            break;
        case 1:
            l.setWord(w, ~uint64_t{0});
            break;
        case 2: {
            const uint64_t byte = rng.next() & 0xff;
            l.setWord(w, byte * 0x0101010101010101ull);
            break;
        }
        case 3:
            l.setWord(w, rng.next() & 0xffff);
            break;
        default:
            l.setWord(w, rng.next());
        }
    }
    return l;
}

std::vector<State>
fuzzStored(Rng &rng, unsigned cells)
{
    std::vector<State> stored(cells);
    if (rng.chance(0.2)) {
        const State s = pcm::stateFromIndex(
            static_cast<unsigned>(rng.nextBelow(4)));
        for (auto &c : stored)
            c = s;
    } else {
        for (auto &c : stored)
            c = pcm::stateFromIndex(
                static_cast<unsigned>(rng.next() & 3));
    }
    return stored;
}

void
dumpCase(uint64_t seed, const std::string &scheme,
         const Line512 &data, const std::vector<State> &stored)
{
    std::fprintf(stderr,
                 "repro: wlcrc_fuzz --seed %llu --iters 1 --scheme "
                 "'%s'\n  data:",
                 static_cast<unsigned long long>(seed),
                 scheme.c_str());
    for (unsigned w = 0; w < lineWords; ++w)
        std::fprintf(stderr, " %016llx",
                     static_cast<unsigned long long>(data.word(w)));
    std::fprintf(stderr, "\n  stored:");
    for (const State s : stored)
        std::fprintf(stderr, "%u", pcm::stateIndex(s));
    std::fprintf(stderr, "\n");
}

/** True iff the targets are bit-identical; reports the first diff. */
bool
sameTarget(const pcm::TargetLine &got, const pcm::TargetLine &want,
           const char *what)
{
    if (got.size() != want.size() ||
        got.auxStart() != want.auxStart()) {
        std::fprintf(stderr,
                     "MISMATCH (%s): target shape %u/%u vs %u/%u\n",
                     what, got.size(), got.auxStart(), want.size(),
                     want.auxStart());
        return false;
    }
    for (unsigned i = 0; i < want.size(); ++i) {
        if (got[i] != want[i] || got.aux(i) != want.aux(i)) {
            std::fprintf(
                stderr,
                "MISMATCH (%s): cell %u state %u aux %d, scalar "
                "reference has state %u aux %d\n",
                what, i, pcm::stateIndex(got[i]),
                got.aux(i) ? 1 : 0, pcm::stateIndex(want[i]),
                want.aux(i) ? 1 : 0);
            return false;
        }
    }
    return true;
}

bool
sameResult(const trace::ReplayResult &a,
           const trace::ReplayResult &b, const char *what)
{
    const bool ok =
        a.writes == b.writes &&
        a.compressedWrites == b.compressedWrites &&
        a.vnrIterations == b.vnrIterations &&
        a.energyPj.mean() == b.energyPj.mean() &&
        a.energyPj.variance() == b.energyPj.variance() &&
        a.updatedCells.mean() == b.updatedCells.mean() &&
        a.disturbErrors.mean() == b.disturbErrors.mean();
    if (!ok)
        std::fprintf(stderr,
                     "MISMATCH (%s): replay results diverge "
                     "(energy %.17g vs %.17g)\n",
                     what, a.energyPj.mean(), b.energyPj.mean());
    return ok;
}

trace::ReplayResult
replayBatch(const coset::LineCodec &codec,
            const pcm::WriteUnit &unit,
            const std::vector<trace::WriteTransaction> &txns)
{
    trace::Replayer rep(codec, unit, 7);
    std::size_t at = 0;
    rep.runBatch([&](trace::WriteTransaction &slot) {
        if (at >= txns.size())
            return false;
        slot = txns[at++];
        return true;
    });
    return rep.result();
}

/** Pattern-biased LZ input: runs, repeats, record-shaped periods. */
std::vector<uint8_t>
fuzzLzBuffer(Rng &rng)
{
    const std::size_t len =
        static_cast<std::size_t>(rng.nextBelow(8192));
    std::vector<uint8_t> buf(len);
    std::size_t at = 0;
    while (at < len) {
        const std::size_t chunk = std::min<std::size_t>(
            len - at, 1 + rng.nextBelow(512));
        switch (rng.nextBelow(4)) {
        case 0: { // constant run
            const uint8_t b = static_cast<uint8_t>(rng.next());
            std::memset(buf.data() + at, b, chunk);
            break;
        }
        case 1: // random bytes
            for (std::size_t i = 0; i < chunk; ++i)
                buf[at + i] = static_cast<uint8_t>(rng.next());
            break;
        case 2: { // short period (compressible overlap matches)
            const std::size_t period = 1 + rng.nextBelow(8);
            for (std::size_t i = 0; i < chunk; ++i)
                buf[at + i] = static_cast<uint8_t>(
                    0x40 + (i % period));
            break;
        }
        default: // 136-byte record-shaped period, like real blocks
            for (std::size_t i = 0; i < chunk; ++i)
                buf[at + i] = static_cast<uint8_t>(
                    (i % 136) < 8 ? rng.next() : (i % 136));
        }
        at += chunk;
    }
    if (rng.nextBelow(4) == 0) {
        // Tail X F X T: a 4..15-byte match X at offset >= 20 whose
        // copy ends 16..31 bytes before the end (len(X) + len(T) <
        // 32). The decoder's 16-byte-chunk match copy stores 32
        // bytes and so must take its exact path here when the round
        // trip decodes into a buffer of exactly the raw size.
        const std::size_t m = 4 + rng.nextBelow(12);
        const std::size_t f = 16 + rng.nextBelow(48);
        const std::size_t t = 16 + rng.nextBelow(16 - m);
        std::vector<uint8_t> x(m);
        for (auto &b : x)
            b = static_cast<uint8_t>(rng.next());
        buf.insert(buf.end(), x.begin(), x.end());
        for (std::size_t i = 0; i < f; ++i)
            buf.push_back(static_cast<uint8_t>(rng.next()));
        buf.insert(buf.end(), x.begin(), x.end());
        for (std::size_t i = 0; i < t; ++i)
            buf.push_back(static_cast<uint8_t>(rng.next()));
    }
    return buf;
}

/**
 * One seeded LZ case: round-trip must be exact; mutated compressed
 * streams and raw garbage must throw or return within bounds, and
 * decode alike with spare room and into an exact-capacity buffer.
 * @return false (after a report) on a mismatch.
 */
bool
lzFuzzCase(uint64_t iseed, LzScratch &scratch)
{
    Rng rng(iseed);
    const std::vector<uint8_t> raw = fuzzLzBuffer(rng);
    std::vector<uint8_t> packed(lzCompressBound(raw.size()));
    const std::size_t packedLen =
        lzCompress(raw.data(), raw.size(), packed.data(),
                   packed.size(), &scratch);
    if (packedLen == 0) {
        std::fprintf(stderr,
                     "MISMATCH (lz): compress with full bound "
                     "buffer failed, %zu raw bytes (seed %llu)\n",
                     raw.size(),
                     static_cast<unsigned long long>(iseed));
        return false;
    }
    packed.resize(packedLen);
    std::vector<uint8_t> out(raw.size());
    const std::size_t got = lzDecompress(
        packed.data(), packed.size(), out.data(), out.size());
    if (got != raw.size() ||
        std::memcmp(out.data(), raw.data(), raw.size()) != 0) {
        std::fprintf(stderr,
                     "MISMATCH (lz): round trip %zu -> %zu -> %zu "
                     "bytes diverged (seed %llu)\n",
                     raw.size(), packed.size(), got,
                     static_cast<unsigned long long>(iseed));
        return false;
    }

    // Adversarial decodes: any outcome but a crash/over-read is
    // acceptable — corruption may cancel out, but most mutations
    // must surface as the codec's named errors. Each stream sits in
    // a buffer of exactly its size. One that decodes is decoded
    // again into a buffer of exactly the size it produced, where
    // the wide copies have no room to spare: the bytes must agree.
    std::vector<uint8_t> roomy(raw.size() + 4096);
    auto tryDecode = [&](const std::vector<uint8_t> &mutated) {
        const std::vector<uint8_t> evil(mutated.begin(), mutated.end());
        std::size_t n = 0;
        try {
            n = lzDecompress(evil.data(), evil.size(), roomy.data(),
                             roomy.size());
        } catch (const std::exception &) {
            return true; // expected for most mutations
        }
        std::vector<uint8_t> exact(n);
        std::size_t m = 0;
        try {
            m = lzDecompress(evil.data(), evil.size(),
                             n ? exact.data() : roomy.data(), n);
        } catch (const std::exception &err) {
            std::fprintf(stderr,
                         "MISMATCH (lz): a stream that decodes to %zu "
                         "bytes fails into exactly %zu: %s (seed "
                         "%llu)\n",
                         n, n, err.what(),
                         static_cast<unsigned long long>(iseed));
            return false;
        }
        if (m != n ||
            !std::equal(exact.begin(), exact.end(), roomy.begin())) {
            std::fprintf(stderr,
                         "MISMATCH (lz): a stream decodes to %zu bytes "
                         "with room and %zu different ones into an "
                         "exact buffer (seed %llu)\n",
                         n, m, static_cast<unsigned long long>(iseed));
            return false;
        }
        return true;
    };
    bool ok = true;
    std::vector<uint8_t> evil = packed;
    if (!evil.empty()) {
        evil[rng.nextBelow(evil.size())] ^=
            static_cast<uint8_t>(1u << rng.nextBelow(8));
        ok &= tryDecode(evil);
        evil.resize(rng.nextBelow(evil.size() + 1)); // truncate
        ok &= tryDecode(evil);
    }
    std::vector<uint8_t> garbage(rng.nextBelow(256));
    for (auto &b : garbage)
        b = static_cast<uint8_t>(rng.next());
    ok &= tryDecode(garbage);
    return ok;
}

/** Loopback socket to the fuzzed head (100 ms recv timeout). */
int
wrk1Connect(uint16_t port)
{
    int fd = -1;
    try {
        fd = net::connectTcp("127.0.0.1", port);
    } catch (const std::exception &) {
        return -1;
    }
    timeval tv{};
    tv.tv_usec = 100 * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    return fd;
}

/**
 * One seeded hostile WRK1 stream: a burst of malformed frames —
 * raw garbage, random frame types, lying length prefixes, junk
 * Results — thrown at the head, which must map each to a named
 * counter or a dropped connection, never a crash. Outcomes are
 * not asserted per-case (many mutations are legitimately ignored);
 * the survivability check is wrk1StillAnswers() after the barrage,
 * with ASan/UBSan auditing the head's memory behaviour.
 */
void
wrk1FuzzCase(uint64_t iseed, uint16_t port)
{
    using runner::WorkFrame;
    Rng rng(iseed);
    const int fd = wrk1Connect(port);
    if (fd < 0)
        return; // transient resource exhaustion; not a finding
    if (rng.chance(0.5)) { // half the streams open legitimately
        uint8_t v[4];
        tracefile::putLe32(v, runner::workProtocolVersion);
        net::sendFrame(fd, runner::workMagic,
                       static_cast<uint8_t>(WorkFrame::Hello), 0, v,
                       sizeof v);
    }
    const uint64_t burst = 1 + rng.nextBelow(6);
    for (uint64_t i = 0; i < burst; ++i) {
        switch (rng.nextBelow(5)) {
        case 0: { // raw garbage, no framing at all
            std::vector<uint8_t> junk(1 + rng.nextBelow(64));
            for (auto &b : junk)
                b = static_cast<uint8_t>(rng.next());
            if (!net::writeAll(fd, junk.data(), junk.size()))
                goto done;
            break;
        }
        case 1: { // well-framed, random type and payload
            std::vector<uint8_t> payload(rng.nextBelow(64));
            for (auto &b : payload)
                b = static_cast<uint8_t>(rng.next());
            if (!net::sendFrame(fd, runner::workMagic,
                                static_cast<uint8_t>(rng.next() &
                                                     0x0f),
                                0, payload.data(), payload.size()))
                goto done;
            break;
        }
        case 2: { // header whose length promise lies
            uint8_t header[net::frameHeaderBytes];
            net::FrameHeader h;
            h.type = static_cast<uint8_t>(WorkFrame::Result);
            h.payloadBytes =
                rng.chance(0.5)
                    ? (runner::maxWorkPayload + 1 +
                       static_cast<uint32_t>(rng.nextBelow(1u << 20)))
                    : static_cast<uint32_t>(1 + rng.nextBelow(256));
            net::encodeFrameHeader(header, runner::workMagic, h);
            if (!net::writeAll(fd, header, sizeof header))
                goto done;
            ::shutdown(fd, SHUT_WR); // never deliver the payload
            goto done;
        }
        case 3: { // Result with junk id and junk JSON
            std::vector<uint8_t> payload(8 + rng.nextBelow(96));
            tracefile::putLe64(payload.data(), rng.next());
            for (std::size_t b = 8; b < payload.size(); ++b)
                payload[b] = static_cast<uint8_t>(rng.next());
            if (!net::sendFrame(
                    fd, runner::workMagic,
                    static_cast<uint8_t>(WorkFrame::Result), 0,
                    payload.data(), payload.size()))
                goto done;
            break;
        }
        default: // legitimate Pull mixed into the hostility
            if (!net::sendFrame(fd, runner::workMagic,
                                static_cast<uint8_t>(WorkFrame::Pull),
                                0, nullptr, 0))
                goto done;
        }
        if (rng.chance(0.3)) { // sometimes drain the head's replies
            char buf[256];
            while (::read(fd, buf, sizeof buf) > 0)
                continue;
        }
    }
done:
    ::close(fd);
}

/**
 * A well-formed Hello+Pull must still be served: it parks on the
 * idle head, and a one-point run() started after it must answer it
 * with Work within the 5 s receive timeout. Stops @p head.
 */
bool
wrk1StillAnswers(runner::RemoteBackend &head)
{
    using runner::WorkFrame;
    const int fd = wrk1Connect(head.port());
    if (fd < 0) {
        std::fprintf(stderr, "MISMATCH (wrk1): head stopped "
                             "accepting connections\n");
        return false;
    }
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    uint8_t v[4];
    tracefile::putLe32(v, runner::workProtocolVersion);
    net::sendFrame(fd, runner::workMagic,
                   static_cast<uint8_t>(WorkFrame::Hello), 0, v,
                   sizeof v);
    net::sendFrame(fd, runner::workMagic,
                   static_cast<uint8_t>(WorkFrame::Pull), 0, nullptr,
                   0);
    runner::ExperimentSpec spec;
    spec.scheme = "Baseline";
    spec.workload = "lesl";
    spec.lines = 16;
    std::thread sweep([&] { head.run({spec}, 1, {}); });
    net::FrameHeader h;
    std::vector<uint8_t> payload;
    const net::RecvStatus st = net::recvFrame(
        fd, runner::workMagic, runner::maxWorkPayload, h, payload);
    head.stop(); // fails the unanswered point in-band; run() returns
    sweep.join();
    ::close(fd);
    if (st != net::RecvStatus::Ok ||
        h.type != static_cast<uint8_t>(WorkFrame::Work)) {
        std::fprintf(stderr,
                     "MISMATCH (wrk1): Hello+Pull answered with "
                     "status %d type %u, want Work\n",
                     static_cast<int>(st), unsigned{h.type});
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t iters = 2000;
    uint64_t seed = 1;
    std::string only_scheme;
    std::string simd_choice;

    CommandLine cl("wlcrc_fuzz", kUsage);
    cl.helpAlias("-h")
        .uint("--iters", iters)
        .uint("--seed", seed)
        .text("--scheme", only_scheme)
        .text("--simd", simd_choice);
    if (const auto status = cl.parse(argc, argv))
        return *status;

    try {
        if (!simd_choice.empty())
            simd::setKernelFromText(simd_choice);

        std::vector<std::string> schemes;
        if (!only_scheme.empty()) {
            schemes.push_back(only_scheme);
        } else {
            schemes = core::figure8Schemes();
            for (const char *extra :
                 {"WLC+3cosets", "WLCRC-8", "WLCRC-32", "WLCRC-64",
                  "WLCRC-16-mo", "WLCRC-16-da"})
                schemes.push_back(extra);
        }

        const pcm::EnergyModel energy;
        std::vector<coset::CodecPtr> codecs;
        for (const auto &name : schemes)
            codecs.push_back(core::makeCodec(name, energy));

        const auto kernels = kernelsUnderTest();
        std::fprintf(stderr, "fuzzing %zu scheme(s), kernels:",
                     schemes.size());
        for (const Kernel k : kernels)
            std::fprintf(stderr, " %s", simd::kernelName(k));
        std::fprintf(stderr, ", %llu iterations, seed %llu\n",
                     static_cast<unsigned long long>(iters),
                     static_cast<unsigned long long>(seed));

        // LZ stage first: it is orders of magnitude cheaper than an
        // encode, so it shares the iteration budget 1:1. Seeds are
        // salted so the two stages never draw the same stream.
        LzScratch lzScratch;
        for (uint64_t iter = 0; iter < iters; ++iter)
            if (!lzFuzzCase(childSeed(seed ^ 0x6c7aull, iter),
                            lzScratch))
                return 1;

        // WRK1 stage: hostile client streams against an idle
        // distributed-sweep head. Connections are cheap on
        // loopback but not free, so the stage caps itself at 500
        // streams even under a bigger --iters budget.
        const uint64_t wrk1Cases = std::min<uint64_t>(iters, 500);
        uint64_t wrk1Errors = 0;
        {
            runner::RemoteBackend head{runner::RemoteBackendOptions{}};
            for (uint64_t iter = 0; iter < wrk1Cases; ++iter)
                wrk1FuzzCase(childSeed(seed ^ 0x57726bull, iter),
                             head.port());
            for (const auto &[name, n] : head.errorCounts())
                wrk1Errors += n;
            if (!wrk1StillAnswers(head))
                return 1;
        }

        uint64_t encodes = 0;
        for (uint64_t iter = 0; iter < iters; ++iter) {
            const uint64_t iseed = childSeed(seed, iter);
            Rng rng(iseed);
            const Line512 data = fuzzLine(rng);
            for (std::size_t c = 0; c < codecs.size(); ++c) {
                const coset::LineCodec &codec = *codecs[c];
                const auto stored =
                    fuzzStored(rng, codec.cellCount());

                pcm::TargetLine want;
                {
                    KernelScope scalar(Kernel::Scalar);
                    want = codec.encode(data, stored);
                }
                {
                    KernelScope scalar(Kernel::Scalar);
                    ScalarScoringScope hook;
                    if (!sameTarget(codec.encode(data, stored),
                                    want, "scoring hook")) {
                        dumpCase(iseed, schemes[c], data, stored);
                        return 1;
                    }
                }
                for (const Kernel k : kernels) {
                    KernelScope scope(k);
                    if (!sameTarget(codec.encode(data, stored),
                                    want, simd::kernelName(k))) {
                        dumpCase(iseed, schemes[c], data, stored);
                        return 1;
                    }
                }
                encodes += 2 + kernels.size();
            }
            if ((iter + 1) % 500 == 0)
                std::fprintf(
                    stderr, "  %llu/%llu iterations, %llu encodes\n",
                    static_cast<unsigned long long>(iter + 1),
                    static_cast<unsigned long long>(iters),
                    static_cast<unsigned long long>(encodes));
        }

        // Stream-level pass: batched vs stepped replay per kernel.
        const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
        trace::TraceSynthesizer synth(
            trace::WorkloadProfile::byName("gcc"),
            childSeed(seed, ~uint64_t{0}));
        std::vector<trace::WriteTransaction> txns;
        for (uint64_t i = 0; i < 500; ++i)
            txns.push_back(synth.next());
        for (std::size_t c = 0; c < codecs.size(); ++c) {
            trace::ReplayResult scalarBatch;
            {
                KernelScope scalar(Kernel::Scalar);
                scalarBatch = replayBatch(*codecs[c], unit, txns);
            }
            for (const Kernel k : kernels) {
                KernelScope scope(k);
                trace::Replayer stepped(*codecs[c], unit, 7);
                for (const auto &t : txns)
                    stepped.step(t);
                if (!sameResult(stepped.result(), scalarBatch,
                                "stepped replay") ||
                    !sameResult(replayBatch(*codecs[c], unit, txns),
                                scalarBatch, "batched replay")) {
                    std::fprintf(stderr,
                                 "repro: wlcrc_fuzz --seed %llu "
                                 "--scheme '%s' --simd %s\n",
                                 static_cast<unsigned long long>(
                                     seed),
                                 schemes[c].c_str(),
                                 simd::kernelName(k));
                    return 1;
                }
            }
        }

        std::fprintf(stderr,
                     "ok: %llu lz cases + %llu hostile wrk1 streams "
                     "(%llu named errors) + %llu encodes + %zu "
                     "replay streams, all kernels bit-identical\n",
                     static_cast<unsigned long long>(iters),
                     static_cast<unsigned long long>(wrk1Cases),
                     static_cast<unsigned long long>(wrk1Errors),
                     static_cast<unsigned long long>(encodes),
                     schemes.size());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
