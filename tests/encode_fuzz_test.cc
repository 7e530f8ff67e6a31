/**
 * @file
 * Seeded differential fuzzer for the encode hot path.
 *
 * Complements simd_equivalence_test's fixed adversarial scenarios
 * with bulk randomized coverage: every iteration draws a fresh
 * (data, stored) pair from a pattern-biased generator — runs of
 * all-zero words to trigger the compressors, repeated bytes, dense
 * random noise — and asserts that
 *
 *   1. every available SIMD kernel encodes bit-identically to the
 *      scalar reference kernel,
 *   2. the table-driven scoring matches the recompute-per-fetch
 *      setScalarScoringForTest() hook, and
 *   3. a batched replay (LineCodec::encodeBatch via runBatch) equals
 *      a step()-ed replay of the same stream, per kernel.
 *
 * Every failure message carries a self-contained repro: the derived
 * iteration seed plus full hex dumps of the payload words and stored
 * states, so a CI failure can be replayed locally with
 *
 *   WLCRC_FUZZ_SEED=<seed> WLCRC_FUZZ_ITERS=1 ./encode_fuzz_test
 *
 * Knobs (both also honoured by tools/wlcrc_fuzz, the open-ended CLI
 * sibling of this bounded suite):
 *
 *   WLCRC_FUZZ_ITERS  iterations per test (default 120)
 *   WLCRC_FUZZ_SEED   base seed (default 20260808)
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "coset/codec.hh"
#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"
#include "subprocess.hh"
#include "trace/replay.hh"
#include "trace/workload.hh"
#include "wlcrc/factory.hh"

namespace
{

using namespace wlcrc;
using pcm::State;
using simd::Kernel;

uint64_t
envU64(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    return v ? std::strtoull(v, nullptr, 0) : fallback;
}

uint64_t
fuzzIters()
{
    return envU64("WLCRC_FUZZ_ITERS", 120);
}

uint64_t
fuzzSeed()
{
    return envU64("WLCRC_FUZZ_SEED", 20260808);
}

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

/**
 * Pattern-biased payload: per word, pick all-zero (compressible),
 * all-ones, a repeated random byte (FPC/BDI territory), or dense
 * noise. Uniform-random 512-bit lines almost never compress, so an
 * unbiased generator would leave the WLC formats and the selector
 * paths cold.
 */
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
            // Small signed values, the FPC/BDI sweet spot.
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
        // Saturated line: every cell in one state.
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

std::string
dumpCase(uint64_t seed, const std::string &scheme,
         const Line512 &data, const std::vector<State> &stored)
{
    std::ostringstream os;
    os << "repro: WLCRC_FUZZ_SEED=" << seed
       << " WLCRC_FUZZ_ITERS=1 (scheme " << scheme << ")\n  data:";
    os << std::hex;
    for (unsigned w = 0; w < lineWords; ++w)
        os << " " << data.word(w);
    os << std::dec << "\n  stored:";
    for (const State s : stored)
        os << pcm::stateIndex(s);
    return os.str();
}

void
expectSameTarget(const pcm::TargetLine &got,
                 const pcm::TargetLine &want,
                 const std::string &what, const std::string &repro)
{
    ASSERT_EQ(got.size(), want.size()) << what << "\n" << repro;
    ASSERT_EQ(got.auxStart(), want.auxStart())
        << what << "\n" << repro;
    for (unsigned i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << what << " cell " << i << "\n" << repro;
        ASSERT_EQ(got.aux(i), want.aux(i))
            << what << " aux " << i << "\n" << repro;
    }
}

TEST(EncodeFuzz, KernelsAndHookAgreeOnRandomLines)
{
    const auto schemes = allSchemes();
    const auto kernels = availableKernels();
    const pcm::EnergyModel energy;

    std::vector<coset::CodecPtr> codecs;
    for (const auto &name : schemes)
        codecs.push_back(core::makeCodec(name, energy));

    const uint64_t base = fuzzSeed();
    const uint64_t iters = fuzzIters();
    for (uint64_t iter = 0; iter < iters; ++iter) {
        const uint64_t seed = childSeed(base, iter);
        Rng rng(seed);
        const Line512 data = fuzzLine(rng);
        for (std::size_t c = 0; c < codecs.size(); ++c) {
            const coset::LineCodec &codec = *codecs[c];
            const auto stored =
                fuzzStored(rng, codec.cellCount());
            const std::string repro =
                dumpCase(seed, schemes[c], data, stored);

            pcm::TargetLine want;
            {
                KernelScope scalar(Kernel::Scalar);
                want = codec.encode(data, stored);
            }
            {
                KernelScope scalar(Kernel::Scalar);
                ScalarScoringScope hook;
                expectSameTarget(codec.encode(data, stored), want,
                                 schemes[c] + "/hook", repro);
            }
            for (const Kernel k : kernels) {
                KernelScope scope(k);
                expectSameTarget(
                    codec.encode(data, stored), want,
                    schemes[c] + "/" +
                        std::string(simd::kernelName(k)),
                    repro);
            }
        }
    }
}

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
    expectSameStat(a.updatedCells, b.updatedCells,
                   what + "/updated");
    expectSameStat(a.disturbErrors, b.disturbErrors,
                   what + "/disturb");
    EXPECT_EQ(a.writes, b.writes) << what;
    EXPECT_EQ(a.compressedWrites, b.compressedWrites) << what;
    EXPECT_EQ(a.vnrIterations, b.vnrIterations) << what;
}

TEST(EncodeFuzz, BatchMatchesSteppedPerKernel)
{
    const pcm::EnergyModel energy;
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
    const uint64_t base = fuzzSeed();
    // Stream length grows with the iteration budget but stays
    // bounded; the default budget replays ~1.4k writes per scheme.
    const uint64_t streamLen = 200 + fuzzIters() * 10;

    for (const auto &name : allSchemes()) {
        const auto codec = core::makeCodec(name, energy);
        trace::TraceSynthesizer synth(
            trace::WorkloadProfile::byName("gcc"),
            childSeed(base, 777));
        std::vector<trace::WriteTransaction> txns;
        for (uint64_t i = 0; i < streamLen; ++i)
            txns.push_back(synth.next());
        const std::string repro =
            "repro: WLCRC_FUZZ_SEED=" + std::to_string(base) +
            " ./encode_fuzz_test (scheme " + name + ")";

        trace::ReplayResult scalarBatch;
        {
            KernelScope scalar(Kernel::Scalar);
            trace::Replayer rep(*codec, unit, 7);
            std::size_t at = 0;
            rep.runBatch([&](trace::WriteTransaction &slot) {
                if (at >= txns.size())
                    return false;
                slot = txns[at++];
                return true;
            });
            scalarBatch = rep.result();
        }
        for (const Kernel k : availableKernels()) {
            KernelScope scope(k);
            trace::Replayer stepped(*codec, unit, 7);
            for (const auto &t : txns)
                stepped.step(t);
            expectSameResult(stepped.result(), scalarBatch,
                             name + "/stepped/" +
                                 simd::kernelName(k) + "\n" +
                                 repro);

            trace::Replayer batch(*codec, unit, 7);
            std::size_t at = 0;
            batch.runBatch([&](trace::WriteTransaction &slot) {
                if (at >= txns.size())
                    return false;
                slot = txns[at++];
                return true;
            });
            expectSameResult(batch.result(), scalarBatch,
                             name + "/batch/" +
                                 simd::kernelName(k) + "\n" +
                                 repro);
        }
    }
}

#ifdef WLCRC_FUZZ_BIN
TEST(FuzzCli, RejectsRepeatedAndMalformedFlagsWithUsageError)
{
    for (const char *bad :
         {"--iters 1 --iters 2", "--iters abc", "--seed", "--bogus"})
        EXPECT_EQ(test::exitCodeOf(std::string(WLCRC_FUZZ_BIN) + " " +
                                   bad + " >/dev/null 2>&1"),
                  2)
            << bad;
}
#endif

} // namespace
