/**
 * @file
 * Differential proof layer for the SIMD encode kernels.
 *
 * Every vector kernel (AVX2/NEON) is required to be *bit-identical*
 * to the always-compiled scalar reference — not approximately equal:
 * the golden CSVs, the result cache and cross-machine reproducibility
 * all assume the dispatch choice never changes a number. This suite
 * enforces that at three levels:
 *
 * 1. Kernel level: programCensus against a byte-by-byte definition,
 *    and mapSymbols / accumRows4 / accumRows8 of every available
 *    kernel against the scalar table, over randomized inputs and the
 *    edge geometries (partial last word, single-cell ranges, range
 *    ends at 31); the CRC-32 kernel against the scalar table loop,
 *    directly and through crc32() at every length, alignment and
 *    chained split.
 *
 * 2. Codec level: every scheme x energy model x kernel over
 *    randomized and adversarial lines (all-zero, all-ones/aux-heavy,
 *    saturated-wear stored states, max-cells-differ) — the encoded
 *    TargetLine must match the scalar kernel's cell for cell, aux
 *    bit for aux bit; and under the scalar kernel it must also match
 *    the setScalarScoringForTest() recompute-per-fetch path.
 *
 * 3. Replay level: a full stream replay per kernel produces
 *    bit-identical ReplayResults (all moments, not just means).
 *
 * On a machine without AVX2/NEON the vector legs skip silently and
 * the scalar reference is still exercised against the test-hook
 * scoring, so the suite passes everywhere (CI runs it under
 * WLCRC_SIMD=scalar too).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "coset/codec.hh"
#include "coset/ncosets_codec.hh"
#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"
#include "trace/replay.hh"
#include "trace/workload.hh"
#include "wlcrc/factory.hh"

namespace
{

using namespace wlcrc;
using pcm::State;
using simd::Kernel;

/** Kernels compiled in and usable on this CPU (scalar always). */
std::vector<Kernel>
availableKernels()
{
    std::vector<Kernel> out;
    for (const Kernel k :
         {Kernel::Scalar, Kernel::Avx2, Kernel::Neon})
        if (simd::kernelAvailable(k))
            out.push_back(k);
    return out;
}

/** RAII: force a kernel for one scope, restore the previous one. */
struct KernelScope
{
    explicit KernelScope(Kernel k) : prev_(simd::activeKernel())
    {
        simd::setKernel(k);
    }
    ~KernelScope() { simd::setKernel(prev_); }
    Kernel prev_;
};

/** RAII: enable the scalar-scoring test hook for one scope. */
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

// -------------------------------------------------- kernel level

TEST(SimdKernels, ScalarAlwaysAvailableAndNamed)
{
    EXPECT_TRUE(simd::kernelAvailable(Kernel::Scalar));
    EXPECT_STREQ(simd::kernelName(Kernel::Scalar), "scalar");
    EXPECT_STREQ(simd::kernelName(Kernel::Avx2), "avx2");
    EXPECT_STREQ(simd::kernelName(Kernel::Neon), "neon");
    // "auto" resolves to something runnable.
    EXPECT_TRUE(simd::kernelAvailable(simd::parseKernel("auto")));
}

TEST(SimdKernels, ParseRejectsUnknownNames)
{
    EXPECT_THROW(simd::parseKernel("sse9"), std::invalid_argument);
    EXPECT_THROW(simd::parseKernel(""), std::invalid_argument);
    EXPECT_THROW(simd::parseKernel("AVX2"), std::invalid_argument);
}

TEST(SimdKernels, UnavailableKernelsRefuseToActivate)
{
    for (const Kernel k : {Kernel::Avx2, Kernel::Neon}) {
        if (simd::kernelAvailable(k))
            continue;
        EXPECT_THROW(simd::setKernel(k), std::invalid_argument);
        EXPECT_THROW(simd::opsFor(k), std::invalid_argument);
    }
}

/** Byte-by-byte census: the definition programCensus must meet. */
void
referenceCensus(const uint8_t *stored, const uint8_t *target,
                const uint64_t *auxWords, unsigned n, uint64_t *diff,
                uint32_t counts[2][4])
{
    for (unsigned w = 0; w < (n + 63) / 64; ++w)
        diff[w] = 0;
    for (unsigned a = 0; a < 2; ++a)
        for (unsigned s = 0; s < 4; ++s)
            counts[a][s] = 0;
    for (unsigned i = 0; i < n; ++i) {
        if (stored[i] == target[i])
            continue;
        diff[i / 64] |= uint64_t{1} << (i % 64);
        ++counts[(auxWords[i / 64] >> (i % 64)) & 1][target[i]];
    }
}

TEST(SimdKernels, ProgramCensusMatchesScalar)
{
    Rng rng(101);
    for (const Kernel k : availableKernels()) {
        const simd::Ops &ops = simd::opsFor(k);
        for (const unsigned n :
             {1u, 2u, 7u, 31u, 63u, 64u, 65u, 70u, 127u, 256u, 257u,
              767u, 768u}) {
            // Offset 3 puts every 8- and 32-byte load off alignment.
            for (const unsigned offset : {0u, 3u}) {
                // Leg 1 stores arbitrary bytes: the difference mask
                // must hold for any byte value, not just states.
                for (const bool anyByte : {false, true}) {
                    std::vector<uint8_t> a(n + offset), b(n + offset);
                    for (unsigned i = 0; i < n; ++i) {
                        b[offset + i] =
                            static_cast<uint8_t>(rng.next() & 3);
                        // ~half the bytes equal, so both sides count.
                        a[offset + i] =
                            rng.chance(0.5)
                                ? b[offset + i]
                                : static_cast<uint8_t>(
                                      rng.next() & (anyByte ? 255 : 3));
                    }
                    const unsigned nw = (n + 63) / 64;
                    std::vector<uint64_t> aux(nw);
                    for (auto &word : aux)
                        word = rng.next();
                    // Poison the outputs to catch unwritten words.
                    std::vector<uint64_t> got(nw, ~uint64_t{0});
                    std::vector<uint64_t> want(nw, ~uint64_t{0});
                    uint32_t gotCounts[2][4];
                    uint32_t wantCounts[2][4];
                    std::memset(gotCounts, 0xa5, sizeof gotCounts);
                    referenceCensus(a.data() + offset,
                                    b.data() + offset, aux.data(), n,
                                    want.data(), wantCounts);
                    ops.programCensus(a.data() + offset,
                                      b.data() + offset, aux.data(), n,
                                      got.data(), gotCounts);
                    const std::string where =
                        std::string(simd::kernelName(k)) +
                        " n=" + std::to_string(n) + " offset " +
                        std::to_string(offset) +
                        (anyByte ? " any byte" : "");
                    for (unsigned w = 0; w < nw; ++w)
                        EXPECT_EQ(got[w], want[w])
                            << where << " word " << w;
                    for (unsigned x = 0; x < 2; ++x)
                        for (unsigned s = 0; s < 4; ++s)
                            EXPECT_EQ(gotCounts[x][s], wantCounts[x][s])
                                << where << " aux " << x << " state "
                                << s;
                    // Bits at or past n must be zero (CellMask
                    // invariant).
                    if (n % 64) {
                        EXPECT_EQ(got[nw - 1] >> (n % 64), 0u) << where;
                    }
                }
            }
        }
        // Identical buffers produce an all-zero mask and no counts.
        std::vector<uint8_t> same(256, 2);
        std::vector<uint64_t> mask(4, ~uint64_t{0});
        const uint64_t allAux[4] = {~uint64_t{0}, 0, ~uint64_t{0}, 0};
        uint32_t counts[2][4];
        ops.programCensus(same.data(), same.data(), allAux, 256,
                          mask.data(), counts);
        for (const uint64_t w : mask)
            EXPECT_EQ(w, 0u) << simd::kernelName(k);
        for (const auto &side : counts)
            for (const uint32_t c : side)
                EXPECT_EQ(c, 0u) << simd::kernelName(k);
    }
}

TEST(SimdKernels, MapSymbolsMatchesScalar)
{
    const simd::Ops &ref = simd::opsFor(Kernel::Scalar);
    Rng rng(202);
    for (const Kernel k : availableKernels()) {
        const simd::Ops &ops = simd::opsFor(k);
        for (const auto &[lo, hi] :
             std::initializer_list<std::pair<unsigned, unsigned>>{
                 {0u, 31u},
                 {0u, 0u},
                 {31u, 31u},
                 {1u, 30u},
                 {5u, 17u},
                 {16u, 31u},
                 {0u, 15u}}) {
            for (unsigned round = 0; round < 32; ++round) {
                const uint64_t word = rng.next();
                uint8_t map4[4];
                for (auto &m : map4)
                    m = static_cast<uint8_t>(rng.next() & 3);
                // Sentinel fill: cells outside [lo, hi] must be
                // left untouched.
                std::array<uint8_t, 32> got, want;
                got.fill(0xEE);
                want.fill(0xEE);
                ref.mapSymbols(word, map4, lo, hi, want.data());
                ops.mapSymbols(word, map4, lo, hi, got.data());
                EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                         got.size()))
                    << simd::kernelName(k) << " [" << lo << ","
                    << hi << "]";
            }
        }
    }
}

/** Shared body for the accumRows4/accumRows8 equivalence checks. */
void
checkAccumRows(unsigned stride, uint64_t seed)
{
    const simd::Ops &ref = simd::opsFor(Kernel::Scalar);
    Rng rng(seed);
    for (const Kernel k : availableKernels()) {
        const simd::Ops &ops = simd::opsFor(k);
        for (const auto &[lo, hi] :
             std::initializer_list<std::pair<unsigned, unsigned>>{
                 {0u, 31u},
                 {0u, 30u},
                 {0u, 0u},
                 {31u, 31u},
                 {3u, 12u},
                 {7u, 31u}}) {
            for (unsigned round = 0; round < 32; ++round) {
                std::vector<double> rows(4 * 4 * stride);
                for (auto &r : rows)
                    r = rng.nextDouble() * 1000.0;
                std::array<uint8_t, 32> stored;
                for (auto &s : stored)
                    s = static_cast<uint8_t>(rng.next() & 3);
                const uint64_t word = rng.next();
                // Non-zero accumulator seeds: kernels must add, not
                // overwrite.
                std::vector<double> got(stride), want(stride);
                for (unsigned m = 0; m < stride; ++m)
                    got[m] = want[m] = rng.nextDouble();
                const auto fnRef = stride == 4 ? ref.accumRows4
                                               : ref.accumRows8;
                const auto fnOps = stride == 4 ? ops.accumRows4
                                               : ops.accumRows8;
                fnRef(rows.data(), stored.data(), word, lo, hi,
                      want.data());
                fnOps(rows.data(), stored.data(), word, lo, hi,
                      got.data());
                for (unsigned m = 0; m < stride; ++m)
                    EXPECT_EQ(got[m], want[m])
                        << simd::kernelName(k) << " stride="
                        << stride << " [" << lo << "," << hi
                        << "] lane " << m;
            }
        }
    }
}

TEST(SimdKernels, AccumRows4BitIdentical) { checkAccumRows(4, 303); }

TEST(SimdKernels, AccumRows8BitIdentical) { checkAccumRows(8, 404); }

/** Random ascending, disjoint (not necessarily contiguous) block
 *  ranges over cells 0..31. */
void
randomDisjointBlocks(Rng &rng, std::array<uint8_t, 8> &lo,
                     std::array<uint8_t, 8> &hi, unsigned &nblocks)
{
    nblocks = 1 + static_cast<unsigned>(rng.next() % 8);
    unsigned next = 0;
    for (unsigned b = 0; b < nblocks; ++b) {
        // Leave room for the remaining blocks (1 cell each).
        const unsigned slack = 32 - next - (nblocks - b);
        const unsigned start =
            next + static_cast<unsigned>(rng.next() % (slack / 2 + 1));
        const unsigned len =
            1 + static_cast<unsigned>(
                    rng.next() % (32 - start - (nblocks - 1 - b)));
        lo[b] = static_cast<uint8_t>(start);
        hi[b] = static_cast<uint8_t>(start + len - 1);
        next = start + len;
    }
}

TEST(SimdKernels, AccumBlocks4MatchesComposedAccumRows4)
{
    const simd::Ops &ref = simd::opsFor(Kernel::Scalar);
    Rng rng(505);
    for (const Kernel k : availableKernels()) {
        const simd::Ops &ops = simd::opsFor(k);
        for (unsigned round = 0; round < 128; ++round) {
            std::array<uint8_t, 8> lo{}, hi{};
            unsigned nblocks = 0;
            randomDisjointBlocks(rng, lo, hi, nblocks);
            std::vector<double> rows(4 * 4 * 4);
            for (auto &r : rows)
                r = rng.nextDouble() * 1000.0;
            // The contract lets kernels read all 32 stored bytes.
            std::array<uint8_t, 32> stored;
            for (auto &s : stored)
                s = static_cast<uint8_t>(rng.next() & 3);
            const uint64_t word = rng.next();
            // Non-zero accumulator seeds: the fused kernel must add.
            std::array<double, 32> got, want;
            for (unsigned m = 0; m < 32; ++m)
                got[m] = want[m] = rng.nextDouble();
            for (unsigned b = 0; b < nblocks; ++b)
                ref.accumRows4(rows.data(), stored.data(), word,
                               lo[b], hi[b], want.data() + 4 * b);
            ops.accumBlocks4(rows.data(), stored.data(), word,
                             lo.data(), hi.data(), nblocks,
                             got.data());
            for (unsigned m = 0; m < 4 * nblocks; ++m)
                EXPECT_EQ(got[m], want[m])
                    << simd::kernelName(k) << " round " << round
                    << " lane " << m;
            // Accumulator lanes past nblocks stay untouched.
            for (unsigned m = 4 * nblocks; m < 32; ++m)
                EXPECT_EQ(got[m], want[m])
                    << simd::kernelName(k) << " round " << round
                    << " padding lane " << m;
        }
    }
}

TEST(SimdKernels, MapBlocksMatchesComposedMapSymbols)
{
    const simd::Ops &ref = simd::opsFor(Kernel::Scalar);
    Rng rng(606);
    for (const Kernel k : availableKernels()) {
        const simd::Ops &ops = simd::opsFor(k);
        for (unsigned round = 0; round < 128; ++round) {
            // Contract: ascending disjoint blocks whose union is the
            // contiguous range [lo[0], hi[nblocks - 1]] — partition
            // a random cell range into 1..8 chunks.
            const unsigned a =
                static_cast<unsigned>(rng.next() % 32);
            const unsigned z =
                a + static_cast<unsigned>(rng.next() % (32 - a));
            const unsigned span = z - a + 1;
            const unsigned nblocks =
                1 + static_cast<unsigned>(rng.next() % 8) % span;
            std::array<uint8_t, 8> lo{}, hi{};
            unsigned next = a;
            for (unsigned b = 0; b < nblocks; ++b) {
                const unsigned room =
                    z - next + 1 - (nblocks - 1 - b);
                const unsigned len =
                    b + 1 == nblocks
                        ? z - next + 1
                        : 1 + static_cast<unsigned>(rng.next() %
                                                    room);
                lo[b] = static_cast<uint8_t>(next);
                hi[b] = static_cast<uint8_t>(next + len - 1);
                next += len;
            }
            const uint64_t word = rng.next();
            std::array<std::array<uint8_t, 4>, 8> maps;
            const uint8_t *tables[8];
            for (unsigned b = 0; b < nblocks; ++b) {
                for (auto &m : maps[b])
                    m = static_cast<uint8_t>(rng.next() & 3);
                tables[b] = maps[b].data();
            }
            // Sentinel fill: cells outside [a, z] must be untouched.
            std::array<uint8_t, 32> got, want;
            got.fill(0xEE);
            want.fill(0xEE);
            for (unsigned b = 0; b < nblocks; ++b)
                ref.mapSymbols(word, tables[b], lo[b], hi[b],
                               want.data());
            ops.mapBlocks(word, tables, lo.data(), hi.data(),
                          nblocks, got.data());
            EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                     got.size()))
                << simd::kernelName(k) << " round " << round << " ["
                << a << "," << z << "] nblocks=" << nblocks;
        }
    }
}

// ---------------------------------------------------- crc32 kernel

/** The scalar table loop's CRC-32, inverted like crc32() itself:
 *  what crc32() must return under every kernel. */
uint32_t
scalarCrc(const uint8_t *p, std::size_t len, uint32_t seed = 0)
{
    return simd::opsFor(Kernel::Scalar).crc32(~seed, p, len) ^
           0xffffffffu;
}

TEST(SimdEquivalence, Crc32EveryKernelMatchesScalar)
{
    const simd::Ops &ref = simd::opsFor(Kernel::Scalar);
    Rng rng(0xc3c3u);
    // 16 bytes of slack: every offset 0..15 reaches 4096 bytes.
    alignas(16) std::array<uint8_t, 4096 + 16> buf;
    const auto refill = [&] {
        for (auto &b : buf)
            b = static_cast<uint8_t>(rng.next());
    };
    refill();
    for (const Kernel k : availableKernels()) {
        const char *name = simd::kernelName(k);
        // The kernel on its contract's inputs: an aligned start,
        // whole 16-byte blocks, at least 64 bytes, any register.
        const simd::Ops &ops = simd::opsFor(k);
        for (std::size_t len = 64; len <= 4096; len += 16) {
            const auto reg = static_cast<uint32_t>(rng.next());
            ASSERT_EQ(ops.crc32(reg, buf.data(), len),
                      ref.crc32(reg, buf.data(), len))
                << name << " len " << len;
        }

        // crc32() with the kernel active, at every length and
        // alignment: the head/bulk/tail split lands everywhere.
        const KernelScope scope(k);
        for (std::size_t off = 0; off < 16; ++off)
            for (std::size_t len = 0; len <= 4096; ++len)
                ASSERT_EQ(crc32(buf.data() + off, len),
                          scalarCrc(buf.data() + off, len))
                    << name << " len " << len << " offset " << off;

        // Extra weight where the split changes shape: below, at and
        // above the 64-byte kernel minimum, one fold block past it,
        // and two full 64-byte fold steps.
        for (const std::size_t len : {63, 64, 65, 79, 80, 127, 128}) {
            for (unsigned round = 0; round < 32; ++round) {
                refill();
                for (std::size_t off = 0; off < 16; ++off) {
                    const auto seed = static_cast<uint32_t>(rng.next());
                    ASSERT_EQ(crc32(buf.data() + off, len, seed),
                              scalarCrc(buf.data() + off, len, seed))
                        << name << " len " << len << " offset " << off
                        << " round " << round;
                }
            }
        }

        // Chained seeds: a message checksummed in two pieces, split
        // at every byte, equals the whole-message CRC.
        const uint8_t *msg = buf.data() + 3;
        const std::size_t msgLen = 600;
        const uint32_t whole = scalarCrc(msg, msgLen);
        for (std::size_t split = 0; split <= msgLen; ++split) {
            const uint32_t head = crc32(msg, split);
            ASSERT_EQ(head, scalarCrc(msg, split))
                << name << " split " << split;
            ASSERT_EQ(crc32(msg + split, msgLen - split, head), whole)
                << name << " split " << split;
        }
    }
}

// --------------------------------------------------- codec level

/** All factory schemes plus the extra configurations the encode
 *  equivalence suite pins. */
std::vector<std::string>
allSchemes()
{
    auto names = core::figure8Schemes();
    for (const char *extra : {"WLC+3cosets", "WLCRC-8", "WLCRC-32",
                              "WLCRC-64", "WLCRC-16-mo",
                              "WLCRC-16-da"})
        names.push_back(extra);
    return names;
}

/** One encode scenario: a payload plus the pre-write line state. */
struct LineCase
{
    std::string label;
    Line512 data;
    std::vector<State> stored;
};

Line512
randomLine(Rng &rng)
{
    Line512 l;
    for (unsigned w = 0; w < lineWords; ++w)
        l.setWord(w, rng.next());
    return l;
}

Line512
constantLine(uint64_t word)
{
    Line512 l;
    for (unsigned w = 0; w < lineWords; ++w)
        l.setWord(w, word);
    return l;
}

/**
 * Randomized plus adversarial scenarios for one codec: all-zero
 * payloads (compressible, selector/aux-heavy), all-ones, stored
 * lines pinned at the highest-energy state (saturated wear),
 * max-cells-differ (every data cell must be reprogrammed), and the
 * realistic stored-equals-previous-encode case.
 */
std::vector<LineCase>
makeCases(const coset::LineCodec &codec, Rng &rng)
{
    const unsigned cells = codec.cellCount();
    const auto allStored = [&](State s) {
        return std::vector<State>(cells, s);
    };
    std::vector<State> randomStored(cells);
    for (auto &s : randomStored)
        s = pcm::stateFromIndex(
            static_cast<unsigned>(rng.next() & 3));

    std::vector<LineCase> cases;
    cases.push_back(
        {"all-zero/fresh", constantLine(0), allStored(State::S1)});
    cases.push_back({"all-zero/saturated", constantLine(0),
                     allStored(State::S4)});
    cases.push_back({"all-ones/saturated",
                     constantLine(~uint64_t{0}),
                     allStored(State::S4)});
    cases.push_back({"alternating/random",
                     constantLine(0x5555555555555555ull),
                     randomStored});
    for (unsigned i = 0; i < 6; ++i) {
        cases.push_back({"random-" + std::to_string(i),
                         randomLine(rng), randomStored});
        for (auto &s : cases.back().stored)
            s = pcm::stateFromIndex(
                static_cast<unsigned>(rng.next() & 3));
    }
    // stored = encode of a previous payload: the differential-write
    // shape real replays hit every write.
    const Line512 prev = randomLine(rng);
    const pcm::TargetLine t =
        codec.encode(prev, allStored(State::S1));
    cases.push_back({"after-encode", randomLine(rng), t.toVector()});
    return cases;
}

void
expectSameTarget(const pcm::TargetLine &got,
                 const pcm::TargetLine &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    ASSERT_EQ(got.auxStart(), want.auxStart()) << what;
    for (unsigned i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << what << " cell " << i;
        ASSERT_EQ(got.aux(i), want.aux(i))
            << what << " aux bit " << i;
    }
}

TEST(SimdCodecEquivalence, EveryCodecEveryKernelBitIdentical)
{
    Rng rng(515);
    for (const pcm::EnergyModel &energy :
         {pcm::EnergyModel(),
          pcm::EnergyModel::withHighStateEnergies(75.0, 135.0)}) {
        for (const auto &name : allSchemes()) {
            const auto codec = core::makeCodec(name, energy);
            const auto cases = makeCases(*codec, rng);
            for (const LineCase &lc : cases) {
                pcm::TargetLine want;
                {
                    KernelScope scalar(Kernel::Scalar);
                    want = codec->encode(lc.data, lc.stored);
                }
                // The scalar-scoring hook is the second independent
                // reference: cost rows recomputed from the
                // EnergyModel per fetch.
                {
                    KernelScope scalar(Kernel::Scalar);
                    ScalarScoringScope hook;
                    expectSameTarget(
                        codec->encode(lc.data, lc.stored), want,
                        name + "/" + lc.label + "/hook");
                }
                for (const Kernel k : availableKernels()) {
                    KernelScope scope(k);
                    expectSameTarget(
                        codec->encode(lc.data, lc.stored), want,
                        name + "/" + lc.label + "/" +
                            simd::kernelName(k));
                }
            }
        }
    }
}

TEST(SimdCodecEquivalence, NonFactorySixCosetsUsesEightLaneKernel)
{
    // 6cosets at several granularities, including blocks that span
    // 64-bit word boundaries (granularity > 64), drives accumRows8.
    Rng rng(616);
    const pcm::EnergyModel energy;
    for (const unsigned g : {16u, 64u, 128u, 512u}) {
        const coset::NCosetsCodec codec(
            energy, coset::sixCosetCandidates(), g);
        const auto cases = makeCases(codec, rng);
        for (const LineCase &lc : cases) {
            pcm::TargetLine want;
            {
                KernelScope scalar(Kernel::Scalar);
                want = codec.encode(lc.data, lc.stored);
            }
            for (const Kernel k : availableKernels()) {
                KernelScope scope(k);
                expectSameTarget(codec.encode(lc.data, lc.stored),
                                 want,
                                 codec.name() + "-g" +
                                     std::to_string(g) + "/" +
                                     lc.label + "/" +
                                     simd::kernelName(k));
            }
        }
    }
}

// -------------------------------------------------- replay level

void
expectSameStat(const stats::RunningStat &a,
               const stats::RunningStat &b, const std::string &what)
{
    EXPECT_EQ(a.count(), b.count()) << what;
    EXPECT_EQ(a.mean(), b.mean()) << what;
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
    EXPECT_EQ(a.variance(), b.variance()) << what;
}

void
expectSameResult(const trace::ReplayResult &a,
                 const trace::ReplayResult &b,
                 const std::string &what)
{
    expectSameStat(a.energyPj, b.energyPj, what + "/energy");
    expectSameStat(a.dataEnergyPj, b.dataEnergyPj,
                   what + "/dataEnergy");
    expectSameStat(a.auxEnergyPj, b.auxEnergyPj,
                   what + "/auxEnergy");
    expectSameStat(a.updatedCells, b.updatedCells,
                   what + "/updated");
    expectSameStat(a.disturbErrors, b.disturbErrors,
                   what + "/disturb");
    EXPECT_EQ(a.writes, b.writes) << what;
    EXPECT_EQ(a.compressedWrites, b.compressedWrites) << what;
    EXPECT_EQ(a.vnrIterations, b.vnrIterations) << what;
}

trace::ReplayResult
replayWithKernel(Kernel k, const coset::LineCodec &codec,
                 const pcm::WriteUnit &unit,
                 const std::vector<trace::WriteTransaction> &txns)
{
    KernelScope scope(k);
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

TEST(SimdReplayEquivalence, FullReplayBitIdenticalAcrossKernels)
{
    trace::TraceSynthesizer synth(
        trace::WorkloadProfile::byName("gcc"), 99);
    std::vector<trace::WriteTransaction> txns;
    for (uint64_t i = 0; i < 400; ++i)
        txns.push_back(synth.next());

    const pcm::EnergyModel energy;
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
    for (const auto &name : allSchemes()) {
        const auto codec = core::makeCodec(name, energy);
        const auto scalar =
            replayWithKernel(Kernel::Scalar, *codec, unit, txns);
        for (const Kernel k : availableKernels()) {
            if (k == Kernel::Scalar)
                continue;
            expectSameResult(
                replayWithKernel(k, *codec, unit, txns), scalar,
                name + "/" + simd::kernelName(k));
        }
    }
}

} // namespace
