/**
 * @file
 * Unit tests for the PCM substrate: energy model (Table II),
 * disturbance model, differential write unit, VnR and the device.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "pcm/cell.hh"
#include "pcm/device.hh"
#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"
#include "pcm/wear.hh"
#include "pcm/write_unit.hh"

namespace
{

using namespace wlcrc;
using pcm::DisturbanceModel;
using pcm::EnergyModel;
using pcm::State;
using pcm::TargetLine;
using pcm::WriteUnit;

TEST(EnergyModel, TableIIDefaults)
{
    const EnergyModel e;
    EXPECT_DOUBLE_EQ(e.resetPj(), 36.0);
    EXPECT_DOUBLE_EQ(e.programEnergy(State::S1), 36.0);
    EXPECT_DOUBLE_EQ(e.programEnergy(State::S2), 56.0);
    EXPECT_DOUBLE_EQ(e.programEnergy(State::S3), 343.0);
    EXPECT_DOUBLE_EQ(e.programEnergy(State::S4), 583.0);
}

TEST(EnergyModel, DifferentialWriteIsFreeWhenUnchanged)
{
    const EnergyModel e;
    for (unsigned s = 0; s < pcm::numStates; ++s) {
        const State st = pcm::stateFromIndex(s);
        EXPECT_DOUBLE_EQ(e.writeEnergy(st, st), 0.0);
    }
    EXPECT_GT(e.writeEnergy(State::S1, State::S2), 0.0);
}

TEST(EnergyModel, Figure14Scaling)
{
    const EnergyModel scaled =
        EnergyModel::withHighStateEnergies(75.0, 135.0);
    EXPECT_DOUBLE_EQ(scaled.setPj(State::S3), 75.0);
    EXPECT_DOUBLE_EQ(scaled.setPj(State::S4), 135.0);
    EXPECT_DOUBLE_EQ(scaled.setPj(State::S1), 0.0);
    EXPECT_DOUBLE_EQ(scaled.setPj(State::S2), 20.0);
}

TEST(StateNames, AreReadable)
{
    EXPECT_STREQ(pcm::stateName(State::S1), "S1");
    EXPECT_STREQ(pcm::stateName(State::S4), "S4");
}

TEST(Disturbance, S2IsImmune)
{
    const DisturbanceModel d;
    std::vector<State> cells(3, State::S2);
    std::vector<bool> updated = {true, false, true};
    EXPECT_DOUBLE_EQ(d.expected(cells, updated), 0.0);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(d.sample(cells, updated, rng), 0u);
}

TEST(Disturbance, ExpectedMatchesSingleExposure)
{
    const DisturbanceModel d;
    // idle S3 cell with one programmed neighbour: DER = 27.6 %.
    std::vector<State> cells = {State::S1, State::S3};
    std::vector<bool> updated = {true, false};
    EXPECT_NEAR(d.expected(cells, updated), 0.276, 1e-12);
}

TEST(Disturbance, TwoExposuresCompound)
{
    const DisturbanceModel d;
    // idle S1 flanked by two programmed cells: 1-(1-p)^2.
    std::vector<State> cells = {State::S2, State::S1, State::S2};
    std::vector<bool> updated = {true, false, true};
    EXPECT_NEAR(d.expected(cells, updated),
                1.0 - (1 - 0.123) * (1 - 0.123), 1e-12);
}

TEST(Disturbance, ProgrammedCellsAreNotDisturbed)
{
    const DisturbanceModel d;
    std::vector<State> cells(8, State::S3);
    std::vector<bool> updated(8, true);
    EXPECT_DOUBLE_EQ(d.expected(cells, updated), 0.0);
}

TEST(Disturbance, SampleConvergesToExpectation)
{
    const DisturbanceModel d;
    std::vector<State> cells = {State::S2, State::S3, State::S2,
                                State::S4, State::S2, State::S1};
    std::vector<bool> updated = {true, false, true,
                                 false, true, false};
    const double expect = d.expected(cells, updated);
    Rng rng(77);
    double total = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        total += d.sample(cells, updated, rng);
    EXPECT_NEAR(total / n, expect, 0.01);
}

/**
 * The sampler as it was before draw-then-decide: one rng.chance(p)
 * per exposure, cell by cell. The production sampler must match it
 * draw for draw.
 */
unsigned
referenceSample(const std::array<double, pcm::numStates> &der,
                const State *cells, std::size_t n,
                const pcm::CellMask &updated, Rng &rng,
                pcm::CellMask *disturbed)
{
    if (disturbed)
        disturbed->reset(static_cast<unsigned>(n));
    unsigned errors = 0;
    const unsigned nw = updated.words();
    for (unsigned w = 0; w < nw; ++w) {
        const uint64_t u = updated.word(w);
        const uint64_t lo = w ? updated.word(w - 1) : 0;
        const uint64_t hi = w + 1 < nw ? updated.word(w + 1) : 0;
        uint64_t cand =
            ((u << 1) | (u >> 1) | (lo >> 63) | (hi << 63)) & ~u;
        if (static_cast<std::size_t>(w + 1) * 64 > n)
            cand &= ~uint64_t{0} >>
                    (static_cast<std::size_t>(w + 1) * 64 - n);
        while (cand) {
            const unsigned i =
                w * 64 +
                static_cast<unsigned>(std::countr_zero(cand));
            cand &= cand - 1;
            const double p = der[pcm::stateIndex(cells[i])];
            if (p <= 0.0)
                continue;
            unsigned exposures = 0;
            if (i > 0 && updated.test(i - 1))
                ++exposures;
            if (i + 1 < n && updated.test(i + 1))
                ++exposures;
            bool hit = false;
            for (unsigned e = 0; e < exposures; ++e)
                hit |= rng.chance(p);
            if (hit) {
                ++errors;
                if (disturbed)
                    disturbed->set(i);
            }
        }
    }
    return errors;
}

std::array<double, pcm::numStates>
derOf(const DisturbanceModel &d)
{
    std::array<double, pcm::numStates> der{};
    for (unsigned s = 0; s < pcm::numStates; ++s)
        der[s] = d.der(pcm::stateFromIndex(s));
    return der;
}

TEST(Disturbance, SampleMatchesReferenceDrawForDraw)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<DisturbanceModel> models = {
        DisturbanceModel(),
        // p = 0 on a non-S2 state, and a negative p.
        DisturbanceModel({0.5, 0.0, 0.0, -0.25}),
        // p = 1, p > 1 and NaN (draws, never hits).
        DisturbanceModel({1.0, 0.2, 1.5, nan}),
        // p * 2^53 integral: the ceil edge of the chance limit.
        DisturbanceModel({0.25, 0.5, 0.375, 0x1.0p-53}),
    };
    const std::size_t sizes[] = {1, 2, 63, 64, 65, 128, 256, 257};
    const double densities[] = {0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0};
    Rng gen(2024);
    for (const auto &model : models) {
        const auto der = derOf(model);
        for (const std::size_t n : sizes) {
            for (const double density : densities) {
                for (int trial = 0; trial < 8; ++trial) {
                    std::vector<State> cells(n);
                    pcm::CellMask updated;
                    updated.reset(static_cast<unsigned>(n));
                    for (std::size_t i = 0; i < n; ++i) {
                        cells[i] = pcm::stateFromIndex(
                            static_cast<unsigned>(gen.nextBelow(4)));
                        if (gen.chance(density))
                            updated.set(static_cast<unsigned>(i));
                    }
                    const uint64_t seed = gen.next();
                    SCOPED_TRACE(testing::Message()
                                 << "n=" << n << " density=" << density
                                 << " trial=" << trial);

                    Rng want_rng(seed), got_rng(seed);
                    pcm::CellMask want_mask, got_mask;
                    const unsigned want =
                        referenceSample(der, cells.data(), n, updated,
                                        want_rng, &want_mask);
                    const unsigned got =
                        model.sample(cells.data(), n, updated, got_rng,
                                     &got_mask);
                    EXPECT_EQ(got, want);
                    for (unsigned w = 0; w < want_mask.words(); ++w)
                        EXPECT_EQ(got_mask.word(w), want_mask.word(w));
                    EXPECT_EQ(got_rng.next(), want_rng.next());

                    Rng bare_rng(seed), bare_ref(seed);
                    EXPECT_EQ(model.sample(cells.data(), n, updated,
                                           bare_rng),
                              referenceSample(der, cells.data(), n,
                                              updated, bare_ref,
                                              nullptr));
                    EXPECT_EQ(bare_rng.next(), bare_ref.next());
                }
            }
        }
    }
}

TEST(WriteUnit, VnrMatchesReferenceSampler)
{
    const WriteUnit unit{EnergyModel(), DisturbanceModel()};
    const auto der = derOf(unit.disturbanceModel());
    Rng gen(99);
    for (int trial = 0; trial < 50; ++trial) {
        const unsigned n = 257;
        std::vector<State> stored(n);
        TargetLine target(n);
        for (unsigned i = 0; i < n; ++i) {
            stored[i] = pcm::stateFromIndex(
                static_cast<unsigned>(gen.nextBelow(4)));
            target[i] = gen.chance(0.4)
                            ? pcm::stateFromIndex(static_cast<unsigned>(
                                  gen.nextBelow(4)))
                            : stored[i];
        }
        target.setAuxStart(n - 17);
        const uint64_t seed = gen.next();

        Rng rng(seed);
        pcm::CellMask updated;
        const auto st = unit.program(stored, target, rng, true, &updated);

        // Replay the same write with the reference sampler: first pass
        // on the differential write's mask, then repair passes.
        Rng ref(seed);
        pcm::CellMask disturbed;
        unsigned errors = referenceSample(der, stored.data(), n, updated,
                                          ref, &disturbed);
        unsigned data = 0, aux = 0;
        for (unsigned i = 0; i < n; ++i)
            if (disturbed.test(i))
                ++(target.aux(i) ? aux : data);
        unsigned iterations = errors ? 1 : 0;
        while (errors) {
            ++iterations;
            const pcm::CellMask repairing = disturbed;
            errors = referenceSample(der, stored.data(), n, repairing,
                                     ref, &disturbed);
        }
        EXPECT_EQ(st.dataDisturbed, data);
        EXPECT_EQ(st.auxDisturbed, aux);
        EXPECT_EQ(st.vnrIterations, iterations);
        EXPECT_EQ(rng.next(), ref.next());
    }
}

TEST(WriteUnit, ProgramsOnlyDifferingCells)
{
    const WriteUnit unit{EnergyModel(), DisturbanceModel()};
    std::vector<State> stored = {State::S1, State::S2, State::S3};
    TargetLine target(3);
    target.assign({State::S1, State::S4, State::S3});
    Rng rng(1);
    const auto st = unit.program(stored, target, rng);
    EXPECT_EQ(st.dataUpdated, 1u);
    EXPECT_DOUBLE_EQ(st.dataEnergyPj, 583.0);
    EXPECT_EQ(stored[1], State::S4);
}

TEST(WriteUnit, SplitsAuxAndData)
{
    const WriteUnit unit{EnergyModel(), DisturbanceModel()};
    std::vector<State> stored(4, State::S1);
    TargetLine target(4);
    target.assign({State::S2, State::S2, State::S2, State::S2});
    target.setAuxStart(2);
    Rng rng(1);
    const auto st = unit.program(stored, target, rng);
    EXPECT_EQ(st.dataUpdated, 2u);
    EXPECT_EQ(st.auxUpdated, 2u);
    EXPECT_DOUBLE_EQ(st.dataEnergyPj, 2 * 56.0);
    EXPECT_DOUBLE_EQ(st.auxEnergyPj, 2 * 56.0);
}

TEST(WriteUnit, IdenticalTargetIsFree)
{
    const WriteUnit unit{EnergyModel(), DisturbanceModel()};
    std::vector<State> stored(16, State::S3);
    TargetLine target(16);
    for (unsigned i = 0; i < 16; ++i)
        target[i] = stored[i];
    Rng rng(1);
    const auto st = unit.program(stored, target, rng);
    EXPECT_EQ(st.totalUpdated(), 0u);
    EXPECT_DOUBLE_EQ(st.totalEnergyPj(), 0.0);
    EXPECT_EQ(st.totalDisturbed(), 0u);
}

TEST(WriteUnit, VnrConverges)
{
    const WriteUnit unit{EnergyModel(), DisturbanceModel()};
    // Alternate S1/S4 -> lots of disturbance-prone idle neighbours.
    std::vector<State> stored(64, State::S1);
    TargetLine target(64);
    for (unsigned i = 0; i < 64; ++i)
        target[i] = (i % 2) ? State::S4 : State::S1;
    Rng rng(5);
    const auto st = unit.program(stored, target, rng, true);
    // Paper: VnR removes all disturbances within 3-5 iterations.
    EXPECT_GE(st.vnrIterations, 1u);
    EXPECT_LE(st.vnrIterations, 12u);
}

/**
 * The ascending per-cell differential write WriteUnit ran before its
 * census path, kept as the reference: each differing cell, in cell
 * order, adds its programEnergy to data or aux; the first-pass
 * disturbances are split cell by cell. @p rng null = programExpected.
 */
pcm::WriteStats
ascendingCellProgram(const WriteUnit &unit, std::vector<State> &stored,
                     const TargetLine &target, Rng *rng, bool vnr,
                     pcm::CellMask &updated)
{
    const auto n = static_cast<unsigned>(stored.size());
    pcm::WriteStats st;
    updated.reset(n);
    for (unsigned i = 0; i < n; ++i) {
        if (stored[i] == target[i])
            continue;
        updated.set(i);
        const double e = unit.energyModel().programEnergy(target[i]);
        if (target.aux(i)) {
            st.auxEnergyPj += e;
            ++st.auxUpdated;
        } else {
            st.dataEnergyPj += e;
            ++st.dataUpdated;
        }
        stored[i] = target[i];
    }
    const DisturbanceModel &disturb = unit.disturbanceModel();
    if (!rng) {
        st.dataDisturbed = static_cast<unsigned>(
            disturb.expected(stored.data(), n, updated) + 0.5);
        return st;
    }
    pcm::CellMask disturbed;
    unsigned errors =
        disturb.sample(stored.data(), n, updated, *rng, &disturbed);
    for (unsigned i = 0; i < n; ++i)
        if (disturbed.test(i))
            ++(target.aux(i) ? st.auxDisturbed : st.dataDisturbed);
    st.vnrIterations = errors ? 1 : 0;
    while (vnr && errors) {
        ++st.vnrIterations;
        const pcm::CellMask repairing = disturbed;
        errors = disturb.sample(stored.data(), n, repairing, *rng,
                                &disturbed);
    }
    return st;
}

void
expectSameWrite(const pcm::WriteStats &got, const pcm::WriteStats &want,
                const std::string &where)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(got.dataEnergyPj),
              std::bit_cast<uint64_t>(want.dataEnergyPj))
        << where << " data energy " << got.dataEnergyPj << " vs "
        << want.dataEnergyPj;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.auxEnergyPj),
              std::bit_cast<uint64_t>(want.auxEnergyPj))
        << where << " aux energy " << got.auxEnergyPj << " vs "
        << want.auxEnergyPj;
    EXPECT_EQ(got.dataUpdated, want.dataUpdated) << where;
    EXPECT_EQ(got.auxUpdated, want.auxUpdated) << where;
    EXPECT_EQ(got.dataDisturbed, want.dataDisturbed) << where;
    EXPECT_EQ(got.auxDisturbed, want.auxDisturbed) << where;
    EXPECT_EQ(got.vnrIterations, want.vnrIterations) << where;
}

TEST(WriteUnit, CensusPathMatchesAscendingCellLoop)
{
    // Integer energies take the census path; 307.3 and an integer
    // above 2^43 must take the per-cell loop (their sums depend on
    // the order of the adds).
    const std::vector<EnergyModel> energies = {
        EnergyModel(),
        EnergyModel::withHighStateEnergies(75.0, 135.0),
        EnergyModel::withHighStateEnergies(307.3, 547.0),
        EnergyModel(36.0, {0.0, 20.0, 307.0, 0x1p50}),
    };
    const simd::Kernel prev = simd::activeKernel();
    Rng gen(2024);
    unsigned dataDisturbed = 0;
    unsigned auxDisturbed = 0;
    for (const simd::Kernel k :
         {simd::Kernel::Scalar, simd::Kernel::Avx2, simd::Kernel::Neon}) {
        if (!simd::kernelAvailable(k))
            continue;
        simd::setKernel(k);
        for (std::size_t e = 0; e < energies.size(); ++e) {
            const WriteUnit unit{energies[e], DisturbanceModel()};
            for (const unsigned n : {1u, 63u, 64u, 70u, 256u, 257u, 768u}) {
                for (int trial = 0; trial < 8; ++trial) {
                    std::vector<State> stored(n);
                    TargetLine target(n);
                    for (unsigned i = 0; i < n; ++i) {
                        stored[i] = pcm::stateFromIndex(
                            static_cast<unsigned>(gen.nextBelow(4)));
                        target[i] =
                            gen.chance(0.5)
                                ? stored[i]
                                : pcm::stateFromIndex(
                                      static_cast<unsigned>(
                                          gen.nextBelow(4)));
                    }
                    // Trials alternate: no aux, an aux tail only,
                    // embedded aux cells only, both.
                    if (trial & 1)
                        target.setAuxStart(static_cast<unsigned>(
                            gen.nextBelow(n + 1)));
                    if (trial & 2)
                        for (unsigned i = 0; i < n; ++i)
                            if (gen.chance(0.25))
                                target.markAux(i);
                    const uint64_t seed = gen.next();
                    for (const bool vnr : {false, true}) {
                        const std::string where =
                            std::string(simd::kernelName(k)) +
                            " energy " + std::to_string(e) + " n=" +
                            std::to_string(n) + " trial " +
                            std::to_string(trial) +
                            (vnr ? " vnr" : "");
                        std::vector<State> got = stored;
                        std::vector<State> want = stored;
                        pcm::CellMask gotMask;
                        pcm::CellMask wantMask;
                        Rng gotRng(seed);
                        Rng wantRng(seed);
                        const auto st = unit.program(
                            got, target, gotRng, vnr, &gotMask);
                        const auto ref = ascendingCellProgram(
                            unit, want, target, &wantRng, vnr, wantMask);
                        expectSameWrite(st, ref, where);
                        EXPECT_EQ(got, want) << where;
                        EXPECT_EQ(gotMask.size(), wantMask.size());
                        for (unsigned w = 0; w < gotMask.words(); ++w)
                            EXPECT_EQ(gotMask.word(w), wantMask.word(w))
                                << where << " mask word " << w;
                        EXPECT_EQ(gotRng.next(), wantRng.next()) << where;
                        dataDisturbed += st.dataDisturbed;
                        auxDisturbed += st.auxDisturbed;
                    }

                    std::vector<State> got = stored;
                    std::vector<State> want = stored;
                    pcm::CellMask unused;
                    expectSameWrite(unit.programExpected(got, target),
                                    ascendingCellProgram(unit, want,
                                                         target, nullptr,
                                                         false, unused),
                                    "expected");
                    EXPECT_EQ(got, want);
                }
            }
        }
    }
    simd::setKernel(prev);
    // Both sides of the disturbed split were exercised.
    EXPECT_GT(dataDisturbed, 0u);
    EXPECT_GT(auxDisturbed, 0u);
}

TEST(Device, AllocatesFreshLinesAtS1)
{
    const WriteUnit unit{EnergyModel(), DisturbanceModel()};
    pcm::Device dev(8, unit);
    EXPECT_EQ(dev.tryLine(42), nullptr);
    auto &line = dev.line(42);
    EXPECT_EQ(dev.tryLine(42), &line);
    for (const auto s : line)
        EXPECT_EQ(s, State::S1);
}

TEST(WearTracker, MergeMatchesSingleTrackerOracle)
{
    pcm::WearTracker oracle(4), a(4), b(4);
    // Disjoint addresses (the sharded-replay case) plus one shared
    // address to cover elementwise addition.
    for (int i = 0; i < 50; ++i) {
        oracle.recordProgram(10, i % 4);
        a.recordProgram(10, i % 4);
        oracle.recordProgram(20, i % 3);
        b.recordProgram(20, i % 3);
        oracle.recordProgram(30, 0);
        (i % 2 ? a : b).recordProgram(30, 0);
    }
    a.merge(b);
    for (const uint64_t addr : {10u, 20u, 30u}) {
        for (unsigned c = 0; c < 4; ++c)
            EXPECT_EQ(a.cellWrites(addr, c),
                      oracle.cellWrites(addr, c));
    }
    const auto sa = a.summary(), so = oracle.summary();
    EXPECT_EQ(sa.maxCellWrites, so.maxCellWrites);
    EXPECT_EQ(sa.totalWrites, so.totalWrites);
    EXPECT_EQ(sa.touchedCells, so.touchedCells);
    EXPECT_EQ(sa.avgCellWrites, so.avgCellWrites);
    EXPECT_EQ(sa.covCellWrites, so.covCellWrites);
}

TEST(WearTracker, MovedFromTrackerReportsNoWear)
{
    const auto expectEmpty = [](const pcm::WearTracker &t) {
        const auto s = t.summary();
        EXPECT_EQ(s.touchedCells, 0u);
        EXPECT_EQ(s.totalWrites, 0u);
        EXPECT_EQ(s.maxCellWrites, 0u);
        EXPECT_EQ(s.avgCellWrites, 0.0);
        EXPECT_EQ(s.covCellWrites, 0.0);
        EXPECT_EQ(t.trackedLines(), 0u);
        EXPECT_TRUE(t.histogram().empty());
        EXPECT_EQ(t.projectedLifetime(100, 10), 0u);
        EXPECT_EQ(t.cellsPerLine(), 4u);
    };
    pcm::WearTracker src(4);
    for (int i = 0; i < 30; ++i)
        src.recordProgram(i % 5, i % 3);
    const pcm::WearTracker copy = src;
    const auto want = copy.summary();

    pcm::WearTracker built(std::move(src));
    expectEmpty(src);
    EXPECT_EQ(built.summary().totalWrites, want.totalWrites);
    EXPECT_EQ(built.summary().touchedCells, want.touchedCells);
    EXPECT_EQ(built.summary().maxCellWrites, want.maxCellWrites);
    EXPECT_EQ(built.trackedLines(), copy.trackedLines());

    pcm::WearTracker assigned(4);
    assigned.recordProgram(99, 1);
    assigned = std::move(built);
    expectEmpty(built);
    EXPECT_EQ(assigned.summary().totalWrites, want.totalWrites);
    EXPECT_EQ(assigned.summary().covCellWrites, want.covCellWrites);
    EXPECT_EQ(assigned.cellWrites(99, 1), 0u);

    // A moved-from tracker is an empty one: it records and merges
    // from zero again.
    built.merge(copy);
    EXPECT_EQ(built.summary().totalWrites, want.totalWrites);
    EXPECT_EQ(built.summary().touchedCells, want.touchedCells);
}

/** Per-line cell counts kept beside a tracker under test. */
using WearModel = std::map<uint64_t, std::vector<uint64_t>>;

/** Brute-force summary: rescan every cell of @p model. */
pcm::WearSummary
rescanSummary(const WearModel &model)
{
    pcm::WearSummary s;
    uint64_t sumSquares = 0;
    for (const auto &[addr, cells] : model) {
        for (const uint64_t w : cells) {
            if (!w)
                continue;
            ++s.touchedCells;
            s.totalWrites += w;
            sumSquares += w * w;
            s.maxCellWrites = std::max(s.maxCellWrites, w);
        }
    }
    if (s.touchedCells) {
        const double n = static_cast<double>(s.touchedCells);
        s.avgCellWrites = static_cast<double>(s.totalWrites) / n;
        const double variance =
            std::max(0.0, static_cast<double>(sumSquares) / n -
                              s.avgCellWrites * s.avgCellWrites);
        s.covCellWrites = std::sqrt(variance) / s.avgCellWrites;
    }
    return s;
}

void
expectMatchesModel(const pcm::WearTracker &t, const WearModel &model)
{
    EXPECT_EQ(t.trackedLines(), model.size());
    for (const auto &[addr, cells] : model) {
        const auto *line = t.lineWear(addr);
        ASSERT_NE(line, nullptr) << "line " << addr;
        for (unsigned c = 0; c < cells.size(); ++c)
            ASSERT_EQ((*line)[c], cells[c])
                << "line " << addr << " cell " << c;
    }
    const auto got = t.summary(), want = rescanSummary(model);
    EXPECT_EQ(got.touchedCells, want.touchedCells);
    EXPECT_EQ(got.totalWrites, want.totalWrites);
    EXPECT_EQ(got.maxCellWrites, want.maxCellWrites);
    EXPECT_EQ(got.avgCellWrites, want.avgCellWrites);
    EXPECT_EQ(got.covCellWrites, want.covCellWrites);
}

/** Apply one random record call to both @p t and @p model. */
void
randomRecord(Rng &rng, pcm::WearTracker &t, WearModel &model,
             uint64_t addrBase)
{
    const unsigned n = t.cellsPerLine();
    const uint64_t addr = addrBase + rng.range(0, 15);
    auto touch = [&](unsigned c) {
        auto &cells = model[addr];
        cells.resize(n, 0);
        ++cells[c];
    };
    // Masks set a sparse to dense share of a random window of
    // cells, so either mask word may be the only non-empty one; an
    // empty mask must not create a line.
    const double p = rng.range(0, 4) / 4.0;
    const auto lo = static_cast<unsigned>(rng.range(0, n - 1));
    const auto hi = static_cast<unsigned>(rng.range(lo, n));
    switch (rng.range(0, 2)) {
    case 0: {
        const auto c = static_cast<unsigned>(rng.range(0, n - 1));
        t.recordProgram(addr, c);
        touch(c);
        break;
    }
    case 1: {
        pcm::CellMask mask;
        mask.reset(n);
        for (unsigned c = lo; c < hi; ++c)
            if (rng.nextDouble() < p) {
                mask.set(c);
                touch(c);
            }
        t.recordLine(addr, mask);
        break;
    }
    default: {
        std::vector<bool> mask(n);
        for (unsigned c = lo; c < hi; ++c)
            if (rng.nextDouble() < p) {
                mask[c] = true;
                touch(c);
            }
        t.recordLine(addr, mask);
        break;
    }
    }
}

TEST(WearTracker, RunningSummaryMatchesBruteForceRescan)
{
    // 70 cells: two mask words, the second one partial.
    constexpr unsigned cells = 70;
    Rng rng(20180224);
    pcm::WearTracker t(cells);
    WearModel model;
    expectMatchesModel(t, model);
    for (int step = 0; step < 400; ++step) {
        if (rng.range(0, 19) == 0) {
            // Merge a freshly recorded tracker, over disjoint
            // addresses (a sharded replay) or overlapping ones.
            pcm::WearTracker other(cells);
            WearModel otherModel;
            const uint64_t base = rng.range(0, 1) ? 1000 : 0;
            const auto records = rng.range(0, 30);
            for (uint64_t i = 0; i < records; ++i)
                randomRecord(rng, other, otherModel, base);
            expectMatchesModel(other, otherModel);
            t.merge(other);
            for (const auto &[addr, counts] : otherModel) {
                auto &mine = model[addr];
                mine.resize(cells, 0);
                for (unsigned c = 0; c < cells; ++c)
                    mine[c] += counts[c];
            }
        } else {
            randomRecord(rng, t, model, 0);
        }
        expectMatchesModel(t, model);
        if (HasFailure())
            FAIL() << "first mismatch at step " << step;
    }
    EXPECT_GT(t.summary().covCellWrites, 0.0);
}

} // namespace
