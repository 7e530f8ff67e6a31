/**
 * @file
 * Tests for the workload substrate: value models, benchmark
 * profiles, the trace synthesizer, trace file I/O and the replayer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "compress/wlc.hh"
#include "coset/baseline_codec.hh"
#include "trace/replay.hh"
#include "trace/trace_io.hh"
#include "trace/value_model.hh"
#include "trace/workload.hh"
#include "wlcrc/factory.hh"

namespace
{

using namespace wlcrc;
using compress::Wlc;
using trace::LineType;
using trace::RandomWorkload;
using trace::TraceSynthesizer;
using trace::ValueModel;
using trace::WorkloadProfile;
using trace::WriteTransaction;

// -------------------------------------------------------- ValueModel

TEST(ValueModel, ZeroishWordsHaveLongMsbRuns)
{
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t w =
            ValueModel::generateWord(LineType::Zeroish, rng);
        EXPECT_GE(Wlc::msbRunLength(w), 9u);
    }
}

TEST(ValueModel, IntegerWordsCompressibleAtK9)
{
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t w =
            ValueModel::generateWord(LineType::Integer, rng);
        EXPECT_GE(Wlc::msbRunLength(w), 9u);
    }
}

TEST(ValueModel, Mid6WordsHaveRunsOfAtLeastSix)
{
    Rng rng(3);
    unsigned exactly6 = 0;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t w =
            ValueModel::generateWord(LineType::Mid6, rng);
        const unsigned run = Wlc::msbRunLength(w);
        EXPECT_GE(run, 6u);
        exactly6 += run == 6;
    }
    // Most Mid6 words must pin the run at exactly 6, creating the
    // k = 7 coverage cliff of Figure 4.
    EXPECT_GT(exactly6, 1000u);
}

TEST(ValueModel, FloatWordsDefeatWlc)
{
    Rng rng(4);
    unsigned shallow = 0;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t w =
            ValueModel::generateWord(LineType::Float, rng);
        shallow += Wlc::msbRunLength(w) < 4;
    }
    // Doubles' exponent bits break the MSB run almost always
    // (zero words inside float lines are allowed).
    EXPECT_GT(shallow, 1400u);
}

TEST(ValueModel, MutationPreservesClassSignature)
{
    Rng rng(5);
    for (const auto type : {LineType::Zeroish, LineType::Integer,
                            LineType::Mid6, LineType::Mid7}) {
        const unsigned min_run =
            type == LineType::Zeroish || type == LineType::Integer
                ? 9u
                : 6u;
        uint64_t w = ValueModel::generateWord(type, rng);
        for (int i = 0; i < 300; ++i) {
            w = ValueModel::mutateWord(type, w, rng);
            ASSERT_GE(Wlc::msbRunLength(w), min_run)
                << lineTypeName(type);
        }
    }
}

// ---------------------------------------------------------- profiles

TEST(WorkloadProfile, ThirteenPaperWorkloadsMinusOne)
{
    // 12 SPEC + canneal = 13 in the paper; our registry carries the
    // 12 distinct names used in the figures (libq/omne/etc).
    const auto &all = WorkloadProfile::all();
    EXPECT_EQ(all.size(), 12u);
    unsigned hmi = 0;
    for (const auto &p : all) {
        double sum = 0;
        for (double q : p.lineTypeProbs)
            sum += q;
        EXPECT_NEAR(sum, 1.0, 1e-9) << p.name;
        EXPECT_GT(p.wordChangeProb, 0.0);
        EXPECT_LE(p.wordChangeProb, 1.0);
        hmi += p.highIntensity;
    }
    EXPECT_EQ(hmi, 7u); // lesl milc wrf sopl zeus lbm gcc
}

TEST(WorkloadProfile, LookupByName)
{
    EXPECT_EQ(WorkloadProfile::byName("lesl").name, "lesl");
    EXPECT_TRUE(WorkloadProfile::byName("milc").highIntensity);
    EXPECT_FALSE(WorkloadProfile::byName("libq").highIntensity);
    EXPECT_THROW(WorkloadProfile::byName("nope"),
                 std::invalid_argument);
}

// ------------------------------------------------------- synthesizer

TEST(TraceSynthesizer, Deterministic)
{
    const auto &p = WorkloadProfile::byName("gcc");
    TraceSynthesizer a(p, 42), b(p, 42);
    for (int i = 0; i < 200; ++i) {
        const auto ta = a.next();
        const auto tb = b.next();
        EXPECT_EQ(ta.lineAddr, tb.lineAddr);
        EXPECT_EQ(ta.oldData, tb.oldData);
        EXPECT_EQ(ta.newData, tb.newData);
    }
}

TEST(TraceSynthesizer, OldNewChaining)
{
    // The old data of a write must equal the new data of the
    // previous write to the same address: a coherent memory image.
    const auto &p = WorkloadProfile::byName("mcf");
    TraceSynthesizer synth(p, 7);
    std::unordered_map<uint64_t, Line512> image;
    for (int i = 0; i < 3000; ++i) {
        const auto txn = synth.next();
        const auto it = image.find(txn.lineAddr);
        if (it != image.end()) {
            ASSERT_EQ(txn.oldData, it->second) << "write " << i;
        }
        image[txn.lineAddr] = txn.newData;
    }
}

TEST(TraceSynthesizer, EveryWriteChangesSomething)
{
    const auto &p = WorkloadProfile::byName("libq");
    TraceSynthesizer synth(p, 8);
    for (int i = 0; i < 2000; ++i) {
        const auto txn = synth.next();
        EXPECT_NE(txn.oldData, txn.newData);
    }
}

TEST(TraceSynthesizer, AddressesStayInFootprint)
{
    const auto &p = WorkloadProfile::byName("zeus");
    TraceSynthesizer synth(p, 9);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(synth.next().lineAddr, p.footprintLines);
}

TEST(RandomWorkload, FreshAddressesAndHighEntropy)
{
    RandomWorkload w(3);
    uint64_t prev_addr = ~uint64_t{0};
    unsigned zero_words = 0;
    for (int i = 0; i < 100; ++i) {
        const auto txn = w.next();
        EXPECT_NE(txn.lineAddr, prev_addr);
        prev_addr = txn.lineAddr;
        for (unsigned j = 0; j < lineWords; ++j)
            zero_words += txn.newData.word(j) == 0;
    }
    EXPECT_EQ(zero_words, 0u);
}

// ---------------------------------------------------------- trace IO

TEST(TraceIo, RoundTrip)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "wlcrc_trace_test.bin";
    const auto &p = WorkloadProfile::byName("cann");
    TraceSynthesizer synth(p, 11);
    std::vector<WriteTransaction> txns;
    {
        trace::TraceWriter writer(path.string());
        for (int i = 0; i < 500; ++i) {
            txns.push_back(synth.next());
            writer.write(txns.back());
        }
        EXPECT_EQ(writer.written(), 500u);
    }
    {
        trace::TraceReader reader(path.string());
        for (int i = 0; i < 500; ++i) {
            const auto txn = reader.read();
            ASSERT_TRUE(txn);
            EXPECT_EQ(txn->lineAddr, txns[i].lineAddr);
            EXPECT_EQ(txn->oldData, txns[i].oldData);
            EXPECT_EQ(txn->newData, txns[i].newData);
        }
        EXPECT_FALSE(reader.read());
    }
    std::filesystem::remove(path);
}

TEST(TraceIo, RejectsBadMagic)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "wlcrc_bad_magic.bin";
    {
        std::ofstream os(path, std::ios::binary);
        os << "NOTATRACE";
    }
    EXPECT_THROW(trace::TraceReader reader(path.string()),
                 std::runtime_error);
    std::filesystem::remove(path);
}

// ----------------------------------------------------------- replay

TEST(Replayer, DeviceContentsTrackLastWrite)
{
    const pcm::EnergyModel e;
    const pcm::WriteUnit unit{e, pcm::DisturbanceModel()};
    const auto codec = core::makeCodec("WLCRC-16", e);
    trace::Replayer rep(*codec, unit);
    const auto &p = WorkloadProfile::byName("omne");
    TraceSynthesizer synth(p, 13);
    std::unordered_map<uint64_t, Line512> last;
    for (int i = 0; i < 500; ++i) {
        const auto txn = synth.next();
        rep.step(txn);
        last[txn.lineAddr] = txn.newData;
    }
    for (const auto &[addr, data] : last)
        ASSERT_EQ(codec->decode(rep.device().line(addr)), data);
}

TEST(Replayer, StatsArePopulatedAndConsistent)
{
    const pcm::EnergyModel e;
    const pcm::WriteUnit unit{e, pcm::DisturbanceModel()};
    const coset::BaselineCodec codec(e);
    trace::Replayer rep(codec, unit);
    const auto &p = WorkloadProfile::byName("lesl");
    TraceSynthesizer synth(p, 17);
    rep.run(synth, 400);
    const auto &r = rep.result();
    EXPECT_EQ(r.writes, 400u);
    EXPECT_GT(r.energyPj.mean(), 0.0);
    EXPECT_GT(r.updatedCells.mean(), 0.0);
    EXPECT_NEAR(r.energyPj.mean(),
                r.dataEnergyPj.mean() + r.auxEnergyPj.mean(), 1e-6);
    // Baseline has no aux cells at all.
    EXPECT_EQ(r.auxEnergyPj.max(), 0.0);
}

TEST(ReplayResult, MergeMatchesSingleStreamOracle)
{
    // Feed one sample stream into an oracle result and, split
    // round-robin, into two partial results; merging the partials
    // must reproduce the oracle's Welford moments and counters.
    trace::ReplayResult oracle, a, b;
    Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        const double energy = 20.0 + rng.nextDouble() * 500.0;
        const double cells = rng.nextBelow(128);
        const double errors = rng.nextBelow(8);
        for (trace::ReplayResult *r :
             {&oracle, i % 2 ? &a : &b}) {
            r->energyPj.add(energy);
            r->updatedCells.add(cells);
            r->disturbErrors.add(errors);
            ++r->writes;
            if (errors > 0)
                ++r->vnrIterations;
            if (i % 3 == 0)
                ++r->compressedWrites;
        }
    }
    a.merge(b);
    EXPECT_EQ(a.writes, oracle.writes);
    EXPECT_EQ(a.compressedWrites, oracle.compressedWrites);
    EXPECT_EQ(a.vnrIterations, oracle.vnrIterations);
    EXPECT_EQ(a.energyPj.count(), oracle.energyPj.count());
    EXPECT_NEAR(a.energyPj.mean(), oracle.energyPj.mean(), 1e-9);
    EXPECT_NEAR(a.energyPj.variance(), oracle.energyPj.variance(),
                1e-6);
    EXPECT_DOUBLE_EQ(a.energyPj.min(), oracle.energyPj.min());
    EXPECT_DOUBLE_EQ(a.energyPj.max(), oracle.energyPj.max());
    EXPECT_NEAR(a.updatedCells.mean(), oracle.updatedCells.mean(),
                1e-9);
    EXPECT_NEAR(a.disturbErrors.mean(),
                oracle.disturbErrors.mean(), 1e-9);
}

TEST(ReplayResult, MergeWithEmptyIsIdentity)
{
    trace::ReplayResult r, empty;
    r.energyPj.add(5.0);
    ++r.writes;
    r.merge(empty);
    EXPECT_EQ(r.writes, 1u);
    EXPECT_DOUBLE_EQ(r.energyPj.mean(), 5.0);
    empty.merge(r);
    EXPECT_EQ(empty.writes, 1u);
    EXPECT_DOUBLE_EQ(empty.energyPj.mean(), 5.0);
}

TEST(Replayer, VnrFlagEnablesRepairLoop)
{
    // With VnR enabled the repair loop runs to convergence, so the
    // iteration count must be at least the detection-only count.
    const pcm::EnergyModel e;
    const pcm::WriteUnit unit{e, pcm::DisturbanceModel()};
    const auto codec = core::makeCodec("Baseline", e);
    trace::Replayer plain(*codec, unit, 5);
    trace::Replayer vnr(*codec, unit, 5, true);
    TraceSynthesizer s1(WorkloadProfile::byName("lesl"), 5);
    TraceSynthesizer s2(WorkloadProfile::byName("lesl"), 5);
    plain.run(s1, 200);
    vnr.run(s2, 200);
    EXPECT_GT(plain.result().vnrIterations, 0u);
    EXPECT_GE(vnr.result().vnrIterations,
              plain.result().vnrIterations);
}

TEST(Replayer, WlcCompressesMostBiasedLines)
{
    // Figure 4's headline: WLC (k = 6) compresses > 85 % of lines
    // across the benchmark suite.
    const pcm::EnergyModel e;
    const pcm::WriteUnit unit{e, pcm::DisturbanceModel()};
    const auto codec = core::makeCodec("WLCRC-16", e);
    uint64_t total = 0, compressed = 0;
    for (const auto &p : WorkloadProfile::all()) {
        trace::Replayer rep(*codec, unit);
        TraceSynthesizer synth(p, 23);
        rep.run(synth, 300);
        total += rep.result().writes;
        compressed += rep.result().compressedWrites;
    }
    EXPECT_GT(static_cast<double>(compressed) / total, 0.85);
}

} // namespace
