/**
 * @file
 * Unit tests for the PCM substrate: energy model (Table II),
 * disturbance model, differential write unit, VnR and the device.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/rng.hh"
#include "pcm/cell.hh"
#include "pcm/config.hh"
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

TEST(WriteStats, Accumulate)
{
    pcm::WriteStats a, b;
    a.dataEnergyPj = 10;
    a.dataUpdated = 1;
    b.dataEnergyPj = 5;
    b.auxEnergyPj = 2;
    b.auxUpdated = 3;
    a += b;
    EXPECT_DOUBLE_EQ(a.totalEnergyPj(), 17.0);
    EXPECT_EQ(a.totalUpdated(), 4u);
}

TEST(Device, AllocatesFreshLinesAtS1)
{
    const WriteUnit unit{EnergyModel(), DisturbanceModel()};
    pcm::Device dev(8, unit);
    EXPECT_FALSE(dev.hasLine(42));
    auto &line = dev.line(42);
    EXPECT_TRUE(dev.hasLine(42));
    for (const auto s : line)
        EXPECT_EQ(s, State::S1);
}

TEST(Device, AccumulatesTotals)
{
    const WriteUnit unit{EnergyModel(), DisturbanceModel()};
    pcm::Device dev(4, unit);
    TargetLine target(4);
    target.assign({State::S2, State::S2, State::S1, State::S1});
    dev.write(0, target);
    dev.write(1, target);
    EXPECT_EQ(dev.writeCount(), 2u);
    EXPECT_EQ(dev.totals().dataUpdated, 4u);
    dev.resetStats();
    EXPECT_EQ(dev.writeCount(), 0u);
    EXPECT_EQ(dev.totals().dataUpdated, 0u);
}

TEST(SystemConfig, TableIITopology)
{
    const pcm::SystemConfig cfg;
    EXPECT_EQ(cfg.totalBanks(), 2u * 2u * 16u);
    EXPECT_EQ(cfg.writeQueueEntries, 32u);
    EXPECT_DOUBLE_EQ(cfg.writeDrainThreshold, 0.80);
    EXPECT_EQ(cfg.l2Bytes, 2ull * 1024 * 1024);
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
