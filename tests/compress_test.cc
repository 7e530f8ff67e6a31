/**
 * @file
 * Unit + property tests for the compression substrate: WLC, FPC,
 * BDI, FPC+BDI and the COC bank.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "compress/bdi.hh"
#include "compress/coc.hh"
#include "compress/fpc.hh"
#include "compress/fpc_bdi.hh"
#include "compress/wlc.hh"
#include "trace/value_model.hh"

namespace
{

using namespace wlcrc;
using compress::Bdi;
using compress::Coc;
using compress::Fpc;
using compress::FpcBdi;
using compress::Wlc;
using trace::LineType;
using trace::ValueModel;

Line512
lineOfWords(uint64_t w)
{
    Line512 line;
    for (unsigned i = 0; i < lineWords; ++i)
        line.setWord(i, w);
    return line;
}

// ---------------------------------------------------------------- WLC

TEST(Wlc, MsbRunLength)
{
    EXPECT_EQ(Wlc::msbRunLength(0), 64u);
    EXPECT_EQ(Wlc::msbRunLength(~uint64_t{0}), 64u);
    EXPECT_EQ(Wlc::msbRunLength(1), 63u);
    EXPECT_EQ(Wlc::msbRunLength(uint64_t{1} << 63), 1u);
    EXPECT_EQ(Wlc::msbRunLength(uint64_t{1} << 57), 6u);
    EXPECT_EQ(Wlc::msbRunLength(~(uint64_t{1} << 57)), 6u);
}

TEST(Wlc, LineCompressibleRequiresAllWords)
{
    Line512 line; // all zero: compressible at any k
    EXPECT_TRUE(Wlc::lineCompressible(line, 9));
    line.setWord(3, uint64_t{1} << 57); // run of 6
    EXPECT_TRUE(Wlc::lineCompressible(line, 6));
    EXPECT_FALSE(Wlc::lineCompressible(line, 7));
}

TEST(Wlc, SignExtendInvertsCompression)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        // Word compressible at k = 6: 5 reclaimed bits.
        uint64_t w = rng.next();
        const unsigned run = 6 + rng.next() % 10;
        // Force an MSB run of at least `run`.
        if (w >> 63)
            w |= ~uint64_t{0} << (64 - run);
        else
            w &= ~(~uint64_t{0} << (64 - run));
        ASSERT_GE(Wlc::msbRunLength(w), run);
        // Clobber the reclaimed bits, then decompress.
        const uint64_t garbled = w ^ (0x15ull << 59);
        EXPECT_EQ(Wlc::signExtendWord(garbled, 5), w);
    }
}

// ---------------------------------------------------------------- FPC

TEST(Fpc, ClassifiesPatterns)
{
    EXPECT_EQ(Fpc::classify(0), 0u);
    EXPECT_EQ(Fpc::classify(0x7), 1u);
    EXPECT_EQ(Fpc::classify(0xfffffff9u), 1u); // -7
    EXPECT_EQ(Fpc::classify(0x75), 2u);
    EXPECT_EQ(Fpc::classify(0x7ab5), 3u);
    EXPECT_EQ(Fpc::classify(0x0000b000u), 4u);
    EXPECT_EQ(Fpc::classify(0xababababu), 6u);
    EXPECT_EQ(Fpc::classify(0xdeadbeefu), 7u);
}

TEST(Fpc, ZeroLineCompressesToPrefixesOnly)
{
    const Fpc fpc;
    const auto s = fpc.compress(Line512());
    ASSERT_TRUE(s);
    EXPECT_EQ(s->size(), 16u * 3u);
}

TEST(Fpc, RoundTripStructuredLines)
{
    const Fpc fpc;
    Rng rng(2);
    for (int i = 0; i < 500; ++i) {
        Line512 line;
        for (unsigned c = 0; c < 16; ++c) {
            uint32_t w = 0;
            switch (rng.nextBelow(6)) {
              case 0: w = 0; break;
              case 1: w = rng.next() & 0x7; break;
              case 2:
                w = static_cast<uint32_t>(
                    -static_cast<int32_t>(rng.nextBelow(100)));
                break;
              case 3: w = rng.next() & 0xffff; break;
              case 4: {
                const uint32_t b = rng.next() & 0xff;
                w = b | (b << 8) | (b << 16) | (b << 24);
                break;
              }
              default: w = static_cast<uint32_t>(rng.next()); break;
            }
            line.setBits(c * 32, 32, w);
        }
        const auto s = fpc.compress(line);
        if (!s)
            continue; // line didn't beat 512 bits: nothing to check
        ASSERT_LT(s->size(), lineBits);
        EXPECT_EQ(fpc.decompress(*s), line);
    }
}

// ---------------------------------------------------------------- BDI

TEST(Bdi, ZeroAndRepeatedLines)
{
    const Bdi bdi;
    const auto z = bdi.compress(Line512());
    ASSERT_TRUE(z);
    EXPECT_EQ(z->size(), 4u);
    EXPECT_EQ(bdi.decompress(*z), Line512());

    const Line512 rep = lineOfWords(0xdeadbeefcafebabeull);
    const auto r = bdi.compress(rep);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->size(), 4u + 64u);
    EXPECT_EQ(bdi.decompress(*r), rep);
}

TEST(Bdi, Base8Delta1)
{
    const Bdi bdi;
    Line512 line;
    for (unsigned w = 0; w < lineWords; ++w)
        line.setWord(w, 0x1000000000ull + w * 3);
    const auto s = bdi.compress(line);
    ASSERT_TRUE(s);
    EXPECT_EQ(bdi.decompress(*s), line);
    // base(64) + imm mask(8) + deltas(8x8) + header(4)
    EXPECT_EQ(s->size(), 4u + 64u + 8u + 64u);
}

TEST(Bdi, MixedImmediates)
{
    const Bdi bdi;
    Line512 line;
    // Half near a large base, half near zero: BDI's implicit
    // zero-base immediates must kick in.
    for (unsigned w = 0; w < lineWords; ++w) {
        line.setWord(w, (w % 2) ? 0x123456780000ull + w
                                : uint64_t(w) * 7);
    }
    const auto s = bdi.compress(line);
    ASSERT_TRUE(s);
    EXPECT_EQ(bdi.decompress(*s), line);
}

TEST(Bdi, IncompressibleRandomLine)
{
    const Bdi bdi;
    Rng rng(3);
    Line512 line;
    for (unsigned w = 0; w < lineWords; ++w)
        line.setWord(w, rng.next());
    EXPECT_FALSE(bdi.compress(line).has_value());
}

TEST(Bdi, TwoDistantBasesDefeatIt)
{
    const Bdi bdi;
    Rng rng(33);
    Line512 line;
    for (unsigned w = 0; w < lineWords; ++w) {
        line.setWord(w, trace::ValueModel::generateWord(
                            LineType::Integer, rng));
    }
    // Pointer-heavy integer lines mix two distant bases with
    // high-entropy middle bits: no BDI configuration fits.
    line.setWord(0, 0x0000500123456788ull);
    line.setWord(1, 0x00007f0987654320ull);
    line.setWord(2, 0x0000534aa5a5a5a0ull);
    line.setWord(3, 0x00007f3c3c3c3c38ull);
    EXPECT_FALSE(bdi.compress(line).has_value());
}

class BdiConfigs
    : public ::testing::TestWithParam<Bdi::Config>
{
};

TEST_P(BdiConfigs, RoundTripWithinDeltaRange)
{
    const auto cfg = GetParam();
    Rng rng(cfg.valueBytes * 10 + cfg.deltaBytes);
    Line512 line;
    const unsigned n = 64 / cfg.valueBytes;
    const uint64_t base = rng.next() >> 8;
    const uint64_t half =
        uint64_t{1} << (cfg.deltaBytes * 8 - 1);
    for (unsigned i = 0; i < n; ++i) {
        const uint64_t delta = rng.nextBelow(half);
        line.setBits(i * cfg.valueBytes * 8, cfg.valueBytes * 8,
                     base + delta);
    }
    const auto payload = Bdi::tryConfig(line, cfg);
    ASSERT_TRUE(payload);
    EXPECT_EQ(Bdi::undoConfig(*payload, cfg), line);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, BdiConfigs,
    ::testing::Values(Bdi::Config{8, 1}, Bdi::Config{8, 2},
                      Bdi::Config{8, 4}, Bdi::Config{4, 1},
                      Bdi::Config{4, 2}, Bdi::Config{2, 1}));

// ------------------------------------------------------------ FPC+BDI

TEST(FpcBdi, PicksBetterOfBoth)
{
    const FpcBdi both;
    const Fpc fpc;
    const Bdi bdi;
    Rng rng(5);
    for (int i = 0; i < 300; ++i) {
        const auto type =
            static_cast<LineType>(rng.nextBelow(trace::numLineTypes));
        const Line512 line = ValueModel::generateLine(type, rng);
        const auto s = both.compress(line);
        const auto f = fpc.compress(line);
        const auto b = bdi.compress(line);
        if (!s) {
            EXPECT_FALSE(f || b);
            continue;
        }
        unsigned best = lineBits;
        if (f)
            best = std::min(best, f->size());
        if (b)
            best = std::min(best, b->size());
        EXPECT_EQ(s->size(), best + 1); // +1 selector bit
        EXPECT_EQ(both.decompress(*s), line);
    }
}

// ---------------------------------------------------------------- COC

TEST(Coc, RoundTripAcrossLineTypes)
{
    const Coc coc;
    Rng rng(6);
    for (int i = 0; i < 500; ++i) {
        const auto type =
            static_cast<LineType>(rng.nextBelow(trace::numLineTypes));
        const Line512 line = ValueModel::generateLine(type, rng);
        const auto s = coc.compress(line);
        if (s) {
            EXPECT_EQ(coc.decompress(*s), line);
        }
    }
}

TEST(Coc, CoversMoreThanFpcBdi)
{
    // The coverage-oriented bank must compress (to any size) at
    // least everything FPC+BDI compresses, and strictly more lines
    // of the mid-magnitude class.
    const Coc coc;
    const FpcBdi fpcbdi;
    Rng rng(7);
    unsigned coc_ok = 0, fpcbdi_ok = 0;
    for (int i = 0; i < 400; ++i) {
        const Line512 line =
            ValueModel::generateLine(LineType::Mid6, rng);
        coc_ok += coc.compress(line).has_value();
        fpcbdi_ok += fpcbdi.compress(line).has_value();
    }
    EXPECT_GT(coc_ok, 350u);
    EXPECT_GT(coc_ok, fpcbdi_ok);
}

TEST(Coc, SignPackHandlesNegativeRuns)
{
    const Coc coc;
    Line512 line;
    Rng rng(8);
    for (unsigned w = 0; w < lineWords; ++w) {
        // Mid-magnitude negative values: MSB run of 1s.
        line.setWord(w, ~((uint64_t{1} << 57) | rng.nextBelow(1u << 20)));
    }
    const auto s = coc.compress(line);
    ASSERT_TRUE(s);
    EXPECT_LE(s->size(), 485u);
    EXPECT_EQ(coc.decompress(*s), line);
}

TEST(Coc, BankSizeMatchesSpirit)
{
    // Kim et al. use 28 compressors; our bank is the same order.
    EXPECT_GE(Coc::bankSize(), 20u);
}

} // namespace
