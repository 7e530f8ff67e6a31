/**
 * @file
 * Wear-leveling subsystem: leveler config round-trips, Start-Gap
 * mapping algebra (bijective, rotating), page-remap hot/cold swaps,
 * deterministic per-cell endurance budgets, lifetime-to-failure
 * replay (including the headline property: Start-Gap and page-remap
 * both outlive the pass-through NullLeveler on a hot-spot trace),
 * and the WearTracker histogram/merge accessors feeding --wear-csv.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "common/rng.hh"
#include "pcm/write_unit.hh"
#include "runner/grid.hh"
#include "runner/report.hh"
#include "runner/backend.hh"
#include "runner/runner.hh"
#include "trace/workload.hh"
#include "tracefile/source.hh"
#include "wearlevel/config.hh"
#include "wearlevel/leveler.hh"
#include "wearlevel/lifetime.hh"
#include "wlcrc/factory.hh"

namespace
{

using namespace wlcrc;
using wearlevel::EnduranceConfig;
using wearlevel::LevelerConfig;
using wearlevel::LifetimeEngine;
using wearlevel::LineMove;

// ------------------------------------------------------ config codec

TEST(LevelerConfig, FormatParseRoundTrips)
{
    for (const char *text :
         {"none", "start-gap:p100:r64", "start-gap:p8:r16",
          "page-remap:p100:g8", "page-remap:p75:g4"}) {
        const LevelerConfig cfg = wearlevel::parseLeveler(text);
        EXPECT_EQ(wearlevel::formatLeveler(cfg), text);
        EXPECT_EQ(wearlevel::parseLeveler(
                      wearlevel::formatLeveler(cfg)),
                  cfg);
    }
    // Bare scheme names take the documented defaults.
    EXPECT_EQ(wearlevel::formatLeveler(
                  wearlevel::parseLeveler("start-gap")),
              "start-gap:p100:r64");
    EXPECT_EQ(wearlevel::formatLeveler(
                  wearlevel::parseLeveler("page-remap")),
              "page-remap:p100:g8");
    EXPECT_FALSE(wearlevel::parseLeveler("none").active());
    EXPECT_TRUE(wearlevel::parseLeveler("start-gap").active());
}

TEST(LevelerConfig, ParseRejectsGarbage)
{
    EXPECT_THROW(wearlevel::parseLeveler("rotate-left"),
                 std::invalid_argument);
    EXPECT_THROW(wearlevel::parseLeveler("start-gap:p0"),
                 std::invalid_argument);
    EXPECT_THROW(wearlevel::parseLeveler("start-gap:px"),
                 std::invalid_argument);
    EXPECT_THROW(wearlevel::parseLeveler("page-remap:g0"),
                 std::invalid_argument);
    EXPECT_THROW(wearlevel::parseLeveler(""),
                 std::invalid_argument);
}

TEST(LevelerConfig, ParseRejectsMalformedNumbers)
{
    for (const char *bad :
         {"start-gap:p-1", "start-gap:p+5", "start-gap:p 5",
          "start-gap:r4294967296", "page-remap:g1e3"})
        EXPECT_THROW(wearlevel::parseLeveler(bad), std::invalid_argument)
            << bad;
    for (const char *bad :
         {"-300:0.2", "300:nan", "300:-0.5", "300:0.2:4294967296",
          "300:0.2:1:-1", "1e6"})
        EXPECT_THROW(wearlevel::parseEndurance(bad),
                     std::invalid_argument)
            << bad;
}

TEST(EnduranceConfigTest, FormatParseRoundTrips)
{
    const EnduranceConfig full =
        wearlevel::parseEndurance("1000:0.25:2:50000");
    EXPECT_EQ(full.meanWrites, 1000u);
    EXPECT_DOUBLE_EQ(full.cov, 0.25);
    EXPECT_EQ(full.eccDeadCells, 2u);
    EXPECT_EQ(full.maxWrites, 50000u);
    EXPECT_EQ(wearlevel::parseEndurance(
                  wearlevel::formatEndurance(full)),
              full);

    // Trailing fields are optional on the CLI.
    const EnduranceConfig bare = wearlevel::parseEndurance("300");
    EXPECT_EQ(bare.meanWrites, 300u);
    EXPECT_DOUBLE_EQ(bare.cov, 0.0);
    EXPECT_TRUE(bare.active());
    EXPECT_FALSE(EnduranceConfig{}.active());

    EXPECT_THROW(wearlevel::parseEndurance("abc"),
                 std::invalid_argument);
    EXPECT_THROW(wearlevel::parseEndurance("100:-0.5"),
                 std::invalid_argument);
}

// -------------------------------------------------------- Start-Gap

TEST(StartGapLeveler, MappingStaysBijectivePerRegion)
{
    LevelerConfig cfg = wearlevel::parseLeveler("start-gap:p5:r8");
    const auto lev = wearlevel::makeLeveler(cfg);
    const uint64_t lines = 16; // two regions of 8

    std::vector<LineMove> moves;
    Rng rng(9);
    for (int i = 0; i < 500; ++i) {
        lev->onWrite(rng.next() % lines, moves);
        std::set<uint64_t> phys;
        for (uint64_t l = 0; l < lines; ++l)
            EXPECT_TRUE(phys.insert(lev->map(l)).second)
                << "two logicals map to one slot after write " << i;
        // Each region's lines stay inside its 9-slot window.
        for (uint64_t l = 0; l < lines; ++l) {
            const uint64_t region = l / 8;
            EXPECT_GE(lev->map(l), region * 9);
            EXPECT_LT(lev->map(l), (region + 1) * 9);
        }
    }
}

TEST(StartGapLeveler, RotatesEveryPeriodWrites)
{
    LevelerConfig cfg = wearlevel::parseLeveler("start-gap:p4:r8");
    const auto lev = wearlevel::makeLeveler(cfg);

    std::vector<LineMove> moves;
    // 3 writes: no move yet; the 4th triggers exactly one.
    for (int i = 0; i < 3; ++i)
        lev->onWrite(0, moves);
    EXPECT_TRUE(moves.empty());
    lev->onWrite(0, moves);
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(lev->map(moves[0].logical), moves[0].toPhys);
    EXPECT_EQ(lev->stats().movesRequested, 1u);

    // A full rotation cycle visits every slot: after (region+1) *
    // period writes, each line has been displaced at least once.
    std::set<uint64_t> displaced;
    for (int i = 0; i < 9 * 4 * 3; ++i) {
        moves.clear();
        lev->onWrite(0, moves);
        for (const auto &m : moves)
            displaced.insert(m.logical);
    }
    EXPECT_EQ(displaced.size(), 8u)
        << "rotation never reached some lines";
}

// ------------------------------------------------------- page-remap

TEST(PageRemapLeveler, SwapsHotPageWithColdFrame)
{
    LevelerConfig cfg =
        wearlevel::parseLeveler("page-remap:p16:g2");
    const auto lev = wearlevel::makeLeveler(cfg);

    std::vector<LineMove> moves;
    // Touch two cold pages once (lines 4..7), then hammer page 0
    // (lines 0..1) up to the decision point.
    lev->onWrite(4, moves);
    lev->onWrite(6, moves);
    ASSERT_TRUE(moves.empty());
    while (moves.empty())
        lev->onWrite(0, moves);

    // The swap relocates the hot page: line 0 no longer maps to
    // phys 0, and the mapping stays bijective.
    EXPECT_NE(lev->map(0), 0u);
    EXPECT_EQ(moves.size(), 4u) << "2 lines per page, both ways";
    std::set<uint64_t> phys;
    for (uint64_t l = 0; l < 8; ++l)
        EXPECT_TRUE(phys.insert(lev->map(l)).second);
    EXPECT_GE(lev->stats().remapEvents, 1u);
    EXPECT_GT(lev->stats().tableBytes, 0u);
}

// ------------------------------------------------- endurance budgets

TEST(CellBudget, DeterministicAndMeanCentred)
{
    EnduranceConfig cfg = wearlevel::parseEndurance("1000:0.2");
    const uint64_t a = wearlevel::cellBudget(cfg, 7, 3, 11);
    EXPECT_EQ(wearlevel::cellBudget(cfg, 7, 3, 11), a)
        << "budget must be a pure function of (line, cell, seed)";
    EXPECT_NE(wearlevel::cellBudget(cfg, 8, 3, 11), a)
        << "seed must perturb the budget";

    // cov = 0 collapses to the mean exactly.
    EnduranceConfig fixed = wearlevel::parseEndurance("1000");
    for (unsigned c = 0; c < 16; ++c)
        EXPECT_EQ(wearlevel::cellBudget(fixed, 7, 0, c), 1000u);

    // With variance, the sample mean stays near the configured
    // mean and every budget is positive.
    double sum = 0;
    uint64_t minB = UINT64_MAX, maxB = 0;
    const unsigned n = 4000;
    for (unsigned i = 0; i < n; ++i) {
        const uint64_t b =
            wearlevel::cellBudget(cfg, 7, i / 64, i % 64);
        sum += static_cast<double>(b);
        minB = std::min(minB, b);
        maxB = std::max(maxB, b);
    }
    EXPECT_NEAR(sum / n, 1000.0, 25.0);
    EXPECT_GE(minB, 1u);
    EXPECT_GT(maxB, minB) << "variance produced no spread";
}

// --------------------------------------------------- lifetime engine

LifetimeEngine::Options
engineOpts(const char *leveler, const char *endurance)
{
    LifetimeEngine::Options opts;
    opts.leveler = wearlevel::parseLeveler(leveler);
    opts.endurance = wearlevel::parseEndurance(endurance);
    opts.seed = 21;
    return opts;
}

wearlevel::LifetimeResult
runToFailure(const char *leveler, const char *endurance,
             const tracefile::TransactionSource &trace)
{
    const pcm::EnergyModel energy;
    const pcm::DisturbanceModel disturbance;
    const pcm::WriteUnit unit(energy, disturbance);
    const auto codec = core::makeCodec("WLCRC-16", energy);
    LifetimeEngine engine(*codec, unit,
                          engineOpts(leveler, endurance));
    return engine.run(trace, /*loopUntilDeath=*/true);
}

wearlevel::LifetimeResult
runToFailure(const char *leveler, const char *endurance)
{
    return runToFailure(
        leveler, endurance,
        tracefile::VectorSource(
            std::make_shared<
                const std::vector<trace::WriteTransaction>>(
                wearlevel::hotspotTrace(64, 400, 21))));
}

/**
 * A gcc stream of `records` records, synthesized as it is pulled, that
 * lets one cursor pull at most `limit` of them: a replay that gathers
 * more than it writes fails with the cursor's error. Counts opens.
 */
class PullBoundSource : public tracefile::TransactionSource
{
  public:
    PullBoundSource(uint64_t records, uint64_t limit)
        : records_(records), limit_(limit)
    {}

    std::unique_ptr<tracefile::TraceCursor>
    open(const tracefile::ShardFilter &) const override
    {
        ++opens_;
        return std::make_unique<Cursor>(records_, limit_);
    }
    uint64_t records() const override { return records_; }
    std::string describe() const override { return "pull-bound"; }
    std::pair<uint64_t, uint64_t>
    addrBounds() const override
    {
        return {0, ~uint64_t{0}};
    }
    uint64_t contentDigest() const override { return records_; }
    unsigned opens() const { return opens_; }

  private:
    class Cursor : public tracefile::TraceCursor
    {
      public:
        Cursor(uint64_t records, uint64_t limit)
            : left_(records), limit_(limit)
        {}
        std::optional<trace::WriteTransaction>
        next() override
        {
            if (left_ == 0)
                return std::nullopt;
            if (pulled_++ == limit_)
                throw std::runtime_error(
                    "cursor pulled past " + std::to_string(limit_) +
                    " records");
            --left_;
            return synth_.next();
        }
        std::size_t bufferBytes() const override { return 0; }

      private:
        trace::TraceSynthesizer synth_{
            trace::WorkloadProfile::byName("gcc"), 3};
        uint64_t left_;
        uint64_t limit_;
        uint64_t pulled_ = 0;
    };

    uint64_t records_;
    uint64_t limit_;
    mutable std::atomic<unsigned> opens_{0};
};

TEST(LifetimeEngineTest, DeathIsDeterministic)
{
    const auto a = runToFailure("none", "60:0.2");
    const auto b = runToFailure("none", "60:0.2");
    ASSERT_TRUE(a.died);
    EXPECT_EQ(a.writesToFailure, b.writesToFailure);
    EXPECT_EQ(a.failedLine, b.failedLine);
    EXPECT_EQ(a.failedCell, b.failedCell);
    EXPECT_EQ(a.maxCellWear, b.maxCellWear);
    EXPECT_EQ(a.wearCovTimeline, b.wearCovTimeline);
    EXPECT_EQ(a.extraWrites, 0u) << "NullLeveler never remaps";
}

TEST(LifetimeEngineTest, WriteCapStopsAnImmortalDevice)
{
    // A huge budget with a small cap: the device survives and the
    // demand-write count equals the cap exactly.
    const auto res = runToFailure("none", "1000000:0:0:1000");
    EXPECT_FALSE(res.died);
    EXPECT_EQ(res.demandWrites, 1000u);
    EXPECT_EQ(res.writesToFailure, 1000u);
}

TEST(LifetimeEngineTest, EccSparesDelayDeath)
{
    const auto strict = runToFailure("none", "60:0.2:0");
    const auto spares = runToFailure("none", "60:0.2:4");
    ASSERT_TRUE(strict.died);
    ASSERT_TRUE(spares.died);
    EXPECT_GT(spares.writesToFailure, strict.writesToFailure)
        << "tolerating dead cells must extend the lifetime";
}

TEST(LifetimeEngineTest, StartGapOutlivesNullLeveler)
{
    const auto plain = runToFailure("none", "60");
    const auto leveled = runToFailure("start-gap:p8:r16", "60");
    ASSERT_TRUE(plain.died);
    ASSERT_TRUE(leveled.died);
    // Conservative bound: the bench shows ~4x at this shape; any
    // regression below 1.3x means the rotation stopped working.
    EXPECT_GE(static_cast<double>(leveled.writesToFailure),
              1.3 * static_cast<double>(plain.writesToFailure));
    EXPECT_GT(leveled.extraWrites, 0u);
    EXPECT_GT(leveled.remapEvents, 0u);
}

TEST(LifetimeEngineTest, PageRemapOutlivesNullLeveler)
{
    const auto plain = runToFailure("none", "60");
    const auto leveled = runToFailure("page-remap:p64:g8", "60");
    ASSERT_TRUE(plain.died);
    ASSERT_TRUE(leveled.died);
    EXPECT_GE(static_cast<double>(leveled.writesToFailure),
              1.3 * static_cast<double>(plain.writesToFailure));
    EXPECT_GT(leveled.extraWrites, 0u);
    EXPECT_GT(leveled.tableBytes, 0u);
}

TEST(LifetimeEngineTest, EachPassReopensTheSource)
{
    // A 300-record stream looped to death: one open per pass, and
    // the same result as the gathered records in memory.
    const PullBoundSource stream(300, 300);
    const auto looped = runToFailure("start-gap:p8:r16", "60:0.2",
                                     stream);
    const auto inMemory = runToFailure(
        "start-gap:p8:r16", "60:0.2",
        tracefile::VectorSource(
            std::make_shared<
                const std::vector<trace::WriteTransaction>>(
                tracefile::gather(PullBoundSource(300, 300)))));
    ASSERT_TRUE(looped.died);
    EXPECT_GT(looped.demandWrites, 300u) << "needs several passes";
    EXPECT_EQ(stream.opens(), (looped.demandWrites + 299) / 300);
    EXPECT_EQ(looped.demandWrites, inMemory.demandWrites);
    EXPECT_EQ(looped.writesToFailure, inMemory.writesToFailure);
    EXPECT_EQ(looped.extraWrites, inMemory.extraWrites);
    EXPECT_EQ(looped.remapEvents, inMemory.remapEvents);
    EXPECT_EQ(looped.failedLine, inMemory.failedLine);
    EXPECT_EQ(looped.failedCell, inMemory.failedCell);
    EXPECT_EQ(looped.deadCells, inMemory.deadCells);
    EXPECT_EQ(looped.maxCellWear, inMemory.maxCellWear);
    EXPECT_EQ(looped.finalWearCov, inMemory.finalWearCov);
    EXPECT_EQ(looped.wearCovTimeline, inMemory.wearCovTimeline);
}

TEST(LifetimeEngineTest, CovTimelineIsBoundedAndSampled)
{
    const auto res = runToFailure("none", "60:0.2");
    ASSERT_FALSE(res.wearCovTimeline.empty());
    EXPECT_LE(res.wearCovTimeline.size(), 128u);
    EXPECT_GT(res.covSampleEvery, 0u);
    for (const double cov : res.wearCovTimeline)
        EXPECT_GE(cov, 0.0);
    EXPECT_GT(res.finalWearCov, 0.0)
        << "a hot-spot trace must leave uneven wear";
}

// ----------------------------------------------- runner integration

TEST(LifetimeRunner, IdentityLevelerMatchesStockReplayStats)
{
    // A Start-Gap leveler whose period is never reached performs
    // zero moves: the demand replay must then be byte-identical in
    // every replay column to the stock (non-lifetime) path.
    runner::ExperimentSpec stock;
    stock.scheme = "WLCRC-16";
    stock.workload = "gcc";
    stock.lines = 120;
    stock.seed = 5;

    runner::ExperimentSpec idle = stock;
    idle.leveler = wearlevel::parseLeveler("start-gap:p100000");
    idle.endurance = wearlevel::parseEndurance("1000000");

    const runner::ExperimentRunner engine;
    const auto rs = engine.run({stock, idle});
    ASSERT_TRUE(rs[0].ok) << rs[0].error;
    ASSERT_TRUE(rs[1].ok) << rs[1].error;
    EXPECT_EQ(rs[1].replay.writes, rs[0].replay.writes);
    EXPECT_EQ(rs[1].replay.energyPj.mean(),
              rs[0].replay.energyPj.mean());
    EXPECT_EQ(rs[1].replay.updatedCells.mean(),
              rs[0].replay.updatedCells.mean());
    EXPECT_EQ(rs[1].replay.disturbErrors.mean(),
              rs[0].replay.disturbErrors.mean());
    EXPECT_EQ(rs[1].lifetime.extraWrites, 0u);
    EXPECT_FALSE(rs[1].lifetime.died);
}

TEST(LifetimeRunner, CappedLifetimeStreamsInsteadOfMaterialising)
{
    // A million-record source under a 2 000-write cap: the replay
    // must pull about what it writes (one replay block of slack),
    // never the whole stream into memory first.
    const auto stream = std::make_shared<PullBoundSource>(
        1000000, 2000 + trace::Replayer::batchLines);
    runner::ExperimentSpec spec;
    spec.scheme = "Baseline";
    spec.source = stream;
    spec.endurance = wearlevel::parseEndurance("1000000:0:0:2000");
    spec.lifetime = true;
    const auto res = runner::runSpecSerial(spec);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_FALSE(res.lifetime.died);
    EXPECT_EQ(res.lifetime.demandWrites, 2000u);
    EXPECT_EQ(res.replay.writes, 2000u);
    EXPECT_EQ(stream->opens(), 1u);
}

TEST(LifetimeRunner, SmallSynthesizedLifetimeMatchesStreamedReplay)
{
    // A small synthesized lifetime spec replays its stream from
    // memory across passes; the result must equal the same stream
    // re-synthesized on every pass through a SynthSource.
    runner::ExperimentSpec gathered;
    gathered.scheme = "WLCRC-16";
    gathered.workload = "gcc";
    gathered.lines = 400;
    gathered.seed = 3;
    gathered.leveler = wearlevel::parseLeveler("start-gap:p8:r16");
    gathered.endurance = wearlevel::parseEndurance("60:0.2");
    gathered.lifetime = true;
    runner::ExperimentSpec streamed = gathered;
    streamed.source = std::make_shared<tracefile::SynthSource>(
        false, "gcc", gathered.seed, gathered.lines);

    const auto a = runner::runSpecSerial(gathered);
    const auto b = runner::runSpecSerial(streamed);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    ASSERT_TRUE(a.lifetime.died);
    EXPECT_GT(a.lifetime.demandWrites, 400u) << "needs several passes";
    EXPECT_EQ(a.lifetime.demandWrites, b.lifetime.demandWrites);
    EXPECT_EQ(a.lifetime.writesToFailure, b.lifetime.writesToFailure);
    EXPECT_EQ(a.lifetime.extraWrites, b.lifetime.extraWrites);
    EXPECT_EQ(a.lifetime.remapEvents, b.lifetime.remapEvents);
    EXPECT_EQ(a.lifetime.tableBytes, b.lifetime.tableBytes);
    EXPECT_EQ(a.lifetime.failedLine, b.lifetime.failedLine);
    EXPECT_EQ(a.lifetime.failedCell, b.lifetime.failedCell);
    EXPECT_EQ(a.lifetime.deadCells, b.lifetime.deadCells);
    EXPECT_EQ(a.lifetime.maxCellWear, b.lifetime.maxCellWear);
    EXPECT_EQ(a.lifetime.finalWearCov, b.lifetime.finalWearCov);
    EXPECT_EQ(a.lifetime.wearCovTimeline, b.lifetime.wearCovTimeline);
    EXPECT_EQ(a.lifetime.covSampleEvery, b.lifetime.covSampleEvery);
    EXPECT_EQ(a.replay.writes, b.replay.writes);
    EXPECT_EQ(a.replay.energyPj.mean(), b.replay.energyPj.mean());
    EXPECT_EQ(a.replay.disturbErrors.mean(),
              b.replay.disturbErrors.mean());
}

TEST(LifetimeRunner, LifetimeWithoutEnduranceFailsThePoint)
{
    runner::ExperimentSpec spec;
    spec.scheme = "Baseline";
    spec.workload = "gcc";
    spec.lines = 50;
    spec.lifetime = true;
    const auto rs = runner::ExperimentRunner().run({spec});
    ASSERT_FALSE(rs[0].ok);
    EXPECT_NE(rs[0].error.find("endurance"), std::string::npos)
        << rs[0].error;
}

// ------------------------------------------------------ WearTracker

TEST(WearTrackerTest, HistogramAndAccessors)
{
    pcm::WearTracker t(8);
    t.recordProgram(3, 0);
    t.recordProgram(3, 0);
    t.recordProgram(3, 1);
    t.recordProgram(9, 2);

    EXPECT_EQ(t.trackedLines(), 2u);
    ASSERT_NE(t.lineWear(3), nullptr);
    EXPECT_EQ((*t.lineWear(3))[0], 2u);
    EXPECT_EQ((*t.lineWear(3))[1], 1u);
    EXPECT_EQ(t.lineWear(4), nullptr);

    const std::map<uint32_t, uint64_t> hist = t.histogram();
    // wear 1: two cells (line3 cell1, line9 cell2); wear 2: one.
    EXPECT_EQ(hist.at(1), 2u);
    EXPECT_EQ(hist.at(2), 1u);
    EXPECT_EQ(hist.count(0), 0u) << "untouched cells excluded";

    const auto sum = t.summary();
    EXPECT_EQ(sum.maxCellWrites, 2u);
    EXPECT_GT(sum.covCellWrites, 0.0);
}

TEST(WearTrackerTest, MergeEdgeCases)
{
    pcm::WearTracker a(8), b(8), narrow(4);
    a.recordProgram(1, 0);
    b.recordProgram(1, 0);
    EXPECT_THROW(a.merge(a), std::invalid_argument)
        << "self-merge would double every count";
    EXPECT_THROW(a.merge(narrow), std::invalid_argument)
        << "cells-per-line mismatch";
    a.merge(b);
    EXPECT_EQ((*a.lineWear(1))[0], 2u);
}

TEST(WearTrackerTest, ShardedMergeEqualsSingleShardReplay)
{
    // Wear masks are a deterministic function of the stream, so a
    // 4-shard merged tracker must equal the 1-shard tracker cell
    // for cell — the property --wear-csv relies on. Jobs count is
    // exercised too (it must never matter).
    const auto trackerFor = [](unsigned shards, unsigned jobs) {
        runner::ExperimentSpec spec;
        spec.scheme = "WLCRC-16";
        spec.workload = "lesl";
        spec.lines = 200;
        spec.seed = 11;
        spec.shards = shards;
        spec.device.wearEndurance = 100000;
        spec.keepWearTracker = true;
        runner::RunnerOptions opts;
        opts.jobs = jobs;
        const auto rs =
            runner::ExperimentRunner(opts).run({spec});
        EXPECT_TRUE(rs[0].ok) << rs[0].error;
        return rs[0].wearTracker;
    };

    const auto one = trackerFor(1, 1);
    const auto four = trackerFor(4, 1);
    const auto fourJ4 = trackerFor(4, 4);
    ASSERT_TRUE(one && four && fourJ4);

    EXPECT_EQ(one->histogram(), four->histogram());
    EXPECT_EQ(four->histogram(), fourJ4->histogram());
    EXPECT_EQ(one->summary().maxCellWrites,
              four->summary().maxCellWrites);
    EXPECT_EQ(one->trackedLines(), four->trackedLines());
    for (uint64_t addr = 0; addr < 64; ++addr) {
        const auto *w1 = one->lineWear(addr);
        const auto *w4 = four->lineWear(addr);
        ASSERT_EQ(w1 == nullptr, w4 == nullptr) << addr;
        if (w1) {
            EXPECT_EQ(*w1, *w4) << "line " << addr;
        }
    }
}

} // namespace
