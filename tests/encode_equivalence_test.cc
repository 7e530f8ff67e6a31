/**
 * @file
 * Guards for the allocation-free batched encode hot path.
 *
 * 1. Scalar-scoring equivalence: every registered scheme is replayed
 *    once with the cached 4x4 cost tables (the hot path) and once
 *    with LineCodec::setScalarScoringForTest(true), which recomputes
 *    every cost row from the EnergyModel per fetch — the
 *    pre-refactor scalar scoring. The two replays must produce
 *    bit-identical ReplayResults, for the default Table II energies
 *    and for a Figure 14 scaled model (the case a stale cost table
 *    would get wrong).
 *
 * 2. Batch/step equivalence: Replayer::runBatch (the runner's entry,
 *    which encodes blocks through LineCodec::encodeBatch) must equal
 *    step()-ing the same stream transaction by transaction.
 *
 * 3. Allocation guard: a steady-state write (every line already
 *    primed, scratch buffers warmed) performs zero heap allocations
 *    for the selection codecs. The compression-backed formats (DIN,
 *    COC+4cosets) still stage their bitstreams on the heap; their
 *    per-write allocation count is asserted bounded so regressions
 *    (e.g. a reintroduced per-cell vector) stay visible.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "coset/codec.hh"
#include "coset/ncosets_codec.hh"
#include "coset/restricted_codec.hh"
#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"
#include "trace/replay.hh"
#include "trace/workload.hh"
#include "wlcrc/factory.hh"

#include "alloc_counter.hh"

namespace
{

using namespace wlcrc;

/** All factory schemes plus non-factory codec configurations. */
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

/** RAII: enable scalar scoring for one replay. */
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

std::vector<trace::WriteTransaction>
makeStream(uint64_t count, uint64_t seed)
{
    trace::TraceSynthesizer synth(
        trace::WorkloadProfile::byName("gcc"), seed);
    std::vector<trace::WriteTransaction> txns;
    txns.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
        txns.push_back(synth.next());
    return txns;
}

trace::ReplayResult
replayStepped(const coset::LineCodec &codec,
              const pcm::WriteUnit &unit,
              const std::vector<trace::WriteTransaction> &txns)
{
    trace::Replayer rep(codec, unit, 7);
    for (const auto &t : txns)
        rep.step(t);
    return rep.result();
}

TEST(EncodeEquivalence, ScalarScoringMatchesCostTables)
{
    const auto txns = makeStream(400, 11);
    for (const pcm::EnergyModel &energy :
         {pcm::EnergyModel(),
          pcm::EnergyModel::withHighStateEnergies(75.0, 135.0)}) {
        const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
        for (const auto &name : allSchemes()) {
            const auto codec = core::makeCodec(name, energy);
            const auto fast = replayStepped(*codec, unit, txns);
            trace::ReplayResult scalar;
            {
                ScalarScoringScope scope;
                scalar = replayStepped(*codec, unit, txns);
            }
            expectSameResult(fast, scalar, name);
        }
    }
}

TEST(EncodeEquivalence, ScalarScoringMatchesForNonFactoryCodecs)
{
    const auto txns = makeStream(300, 12);
    const pcm::EnergyModel energy;
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
    const coset::NCosetsCodec four(
        energy, coset::tableICandidates(4), 32);
    const coset::RestrictedCosetsCodec restricted(energy, 16);
    for (const coset::LineCodec *codec :
         {static_cast<const coset::LineCodec *>(&four),
          static_cast<const coset::LineCodec *>(&restricted)}) {
        const auto fast = replayStepped(*codec, unit, txns);
        trace::ReplayResult scalar;
        {
            ScalarScoringScope scope;
            scalar = replayStepped(*codec, unit, txns);
        }
        expectSameResult(fast, scalar, codec->name());
    }
}

TEST(EncodeEquivalence, BatchedReplayMatchesStepped)
{
    const auto txns = makeStream(500, 13);
    const pcm::EnergyModel energy;
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
    for (const auto &name : allSchemes()) {
        const auto codec = core::makeCodec(name, energy);
        const auto stepped = replayStepped(*codec, unit, txns);

        trace::Replayer batched(*codec, unit, 7);
        std::size_t at = 0;
        const uint64_t replayed =
            batched.runBatch([&](trace::WriteTransaction &slot) {
                if (at >= txns.size())
                    return false;
                slot = txns[at++];
                return true;
            });
        EXPECT_EQ(replayed, txns.size()) << name;
        expectSameResult(stepped, batched.result(), name);
    }
}

TEST(EncodeEquivalence, BatchedReplayMatchesWithVnR)
{
    // VnR consumes extra rng draws per disturbed write; batching
    // must not perturb the draw order.
    const auto txns = makeStream(300, 14);
    const pcm::EnergyModel energy;
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
    const auto codec = core::makeCodec("WLCRC-16", energy);

    trace::Replayer stepped(*codec, unit, 7, true);
    for (const auto &t : txns)
        stepped.step(t);

    trace::Replayer batched(*codec, unit, 7, true);
    std::size_t at = 0;
    batched.runBatch([&](trace::WriteTransaction &slot) {
        if (at >= txns.size())
            return false;
        slot = txns[at++];
        return true;
    });
    expectSameResult(stepped.result(), batched.result(), "vnr");
}

/** Allocations per steady-state write, after a warm-up pass. */
double
steadyStateAllocsPerWrite(const std::string &scheme)
{
    const pcm::EnergyModel energy;
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
    const auto codec = core::makeCodec(scheme, energy);
    const auto txns = makeStream(200, 15);
    trace::Replayer rep(*codec, unit, 7);
    // Warm up: primes every line and grows reusable buffers.
    for (const auto &t : txns)
        rep.step(t);
    const uint64_t before =
        g_allocCount.load(std::memory_order_relaxed);
    for (const auto &t : txns)
        rep.step(t);
    const uint64_t after =
        g_allocCount.load(std::memory_order_relaxed);
    return static_cast<double>(after - before) /
           static_cast<double>(txns.size());
}

TEST(AllocationGuard, SelectionCodecsAllocateNothingSteadyState)
{
    for (const char *scheme :
         {"Baseline", "FlipMin", "FNW", "6cosets", "WLC+4cosets",
          "WLC+3cosets", "WLCRC-8", "WLCRC-16", "WLCRC-32",
          "WLCRC-64", "WLCRC-16-mo", "WLCRC-16-da"}) {
        EXPECT_EQ(steadyStateAllocsPerWrite(scheme), 0.0) << scheme;
    }
}

TEST(AllocationGuard, CompressionBackedSchemesAllocateNothing)
{
    // The compressor bank builds its candidate streams in inline
    // BitBuffer storage and DIN's BCH stage encodes through
    // Bch::encodeInto, so the compression-backed schemes hit the
    // same zero-allocation bar as the selection codecs.
    EXPECT_EQ(steadyStateAllocsPerWrite("DIN"), 0.0);
    EXPECT_EQ(steadyStateAllocsPerWrite("COC+4cosets"), 0.0);
}

} // namespace
