/**
 * @file
 * Unit tests for the common substrate: Line512, Rng, CsvTable,
 * BitBuffer and env helpers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/csv.hh"
#include "common/env.hh"
#include "common/line512.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "compress/bitbuffer.hh"

namespace
{

using wlcrc::CsvTable;
using wlcrc::Line512;
using wlcrc::lineBits;
using wlcrc::lineSymbols;
using wlcrc::lineWords;
using wlcrc::Rng;
using wlcrc::compress::BitBuffer;
using wlcrc::compress::BitReader;

TEST(Line512, DefaultIsZero)
{
    Line512 line;
    for (unsigned w = 0; w < lineWords; ++w)
        EXPECT_EQ(line.word(w), 0u);
    for (unsigned b = 0; b < lineBits; ++b)
        EXPECT_EQ(line.bit(b), 0u);
}

TEST(Line512, BitSetGet)
{
    Line512 line;
    line.setBit(0, 1);
    line.setBit(63, 1);
    line.setBit(64, 1);
    line.setBit(511, 1);
    EXPECT_EQ(line.bit(0), 1u);
    EXPECT_EQ(line.bit(63), 1u);
    EXPECT_EQ(line.bit(64), 1u);
    EXPECT_EQ(line.bit(511), 1u);
    EXPECT_EQ(line.bit(1), 0u);
    line.setBit(63, 0);
    EXPECT_EQ(line.bit(63), 0u);
    EXPECT_EQ(line.word(0), 1u);
}

TEST(Line512, SymbolMapsToBitPairs)
{
    Line512 line;
    line.setSymbol(0, 3);
    EXPECT_EQ(line.bit(0), 1u);
    EXPECT_EQ(line.bit(1), 1u);
    line.setSymbol(1, 2); // bits {3,2} = {1,0}
    EXPECT_EQ(line.bit(2), 0u);
    EXPECT_EQ(line.bit(3), 1u);
    EXPECT_EQ(line.symbol(1), 2u);
    // Symbol 32 lives in word 1.
    line.setSymbol(32, 1);
    EXPECT_EQ(line.word(1) & 3u, 1u);
}

TEST(Line512, BitsCrossWordBoundary)
{
    Line512 line;
    line.setBits(60, 8, 0xab);
    EXPECT_EQ(line.bits(60, 8), 0xabu);
    EXPECT_EQ(line.bits(60, 4), 0xbu);
    EXPECT_EQ(line.bits(64, 4), 0xau);
    // Full 64-bit read/write at an unaligned offset.
    line.setBits(100, 64, 0xdeadbeefcafef00dull);
    EXPECT_EQ(line.bits(100, 64), 0xdeadbeefcafef00dull);
    // Neighbouring bits are untouched.
    EXPECT_EQ(line.bits(60, 8), 0xabu);
}

TEST(Line512, SetBitsMasksValue)
{
    Line512 line;
    line.setBits(8, 4, 0xff); // only low 4 bits stored
    EXPECT_EQ(line.bits(8, 4), 0xfu);
    EXPECT_EQ(line.bits(12, 4), 0u);
}

TEST(Line512, XorAndNot)
{
    Line512 a, b;
    a.setWord(0, 0xff00ff00ff00ff00ull);
    b.setWord(0, 0x0ff00ff00ff00ff0ull);
    const Line512 x = a ^ b;
    EXPECT_EQ(x.word(0), 0xf0f0f0f0f0f0f0f0ull);
    const Line512 n = ~Line512();
    for (unsigned w = 0; w < lineWords; ++w)
        EXPECT_EQ(n.word(w), ~uint64_t{0});
    EXPECT_EQ((a ^ a), Line512());
}

TEST(Line512, HexRoundTripVisual)
{
    Line512 line;
    line.setWord(7, 0x0123456789abcdefull);
    const std::string hex = line.toHex();
    EXPECT_EQ(hex.substr(0, 16), "0123456789abcdef");
    EXPECT_EQ(hex.size(), 16 * 8 + 7); // 8 words + separators
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextNEqualsRepeatedNext)
{
    Rng bulk(31), single(31);
    uint64_t buf[1000];
    const std::size_t sizes[] = {0, 1, 2, 7, 128, 1000};
    for (const std::size_t n : sizes) {
        bulk.nextN(buf, n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(buf[i], single.next()) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(bulk.next(), single.next());
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(17), 17u);
        const uint64_t v = rng.range(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng rng(3);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.nextBelow(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Csv, WritesHeaderAndRows)
{
    CsvTable t({"a", "b"});
    t.addRow(1, "x");
    t.addRow(2.5, "y,z");
    std::ostringstream os;
    t.write(os);
    EXPECT_EQ(os.str(), "a,b\n1,x\n2.5,\"y,z\"\n");
}

TEST(Csv, EscapesQuotes)
{
    CsvTable t({"v"});
    t.addRow("he said \"hi\"");
    std::ostringstream os;
    t.write(os);
    EXPECT_EQ(os.str(), "v\n\"he said \"\"hi\"\"\"\n");
}

TEST(BitBuffer, AppendReadRoundTrip)
{
    BitBuffer buf;
    buf.append(0x5, 3);
    buf.append(0xdeadbeef, 32);
    buf.append(1, 1);
    EXPECT_EQ(buf.size(), 36u);
    EXPECT_EQ(buf.read(0, 3), 0x5u);
    EXPECT_EQ(buf.read(3, 32), 0xdeadbeefu);
    EXPECT_EQ(buf.read(35, 1), 1u);
}

TEST(BitBuffer, CrossesWordBoundary)
{
    BitBuffer buf;
    buf.append(~uint64_t{0}, 60);
    buf.append(0xabc, 12);
    EXPECT_EQ(buf.read(60, 12), 0xabcu);
}

TEST(BitBuffer, LineRoundTrip)
{
    BitBuffer buf;
    for (unsigned i = 0; i < 7; ++i)
        buf.append(0x123456789abcdefull * (i + 1), 61);
    const wlcrc::Line512 line = buf.toLine();
    const BitBuffer back = BitBuffer::fromLine(line, buf.size());
    EXPECT_EQ(buf, back);
}

TEST(BitBuffer, ReaderConsumesSequentially)
{
    BitBuffer buf;
    buf.append(3, 2);
    buf.append(9, 5);
    BitReader in(buf);
    EXPECT_EQ(in.take(2), 3u);
    EXPECT_EQ(in.take(5), 9u);
    EXPECT_TRUE(in.exhausted());
}

TEST(Env, ParsesAndFallsBack)
{
    ::setenv("WLCRC_TEST_ENV_U64", "123", 1);
    EXPECT_EQ(wlcrc::envU64("WLCRC_TEST_ENV_U64", 7), 123u);
    EXPECT_EQ(wlcrc::envU64("WLCRC_TEST_ENV_MISSING", 7), 7u);
    ::setenv("WLCRC_TEST_ENV_HEX", "0x20", 1);
    EXPECT_EQ(wlcrc::envU64("WLCRC_TEST_ENV_HEX", 7), 32u);
    ::setenv("WLCRC_TEST_ENV_D", "0.25", 1);
    EXPECT_DOUBLE_EQ(wlcrc::envDouble("WLCRC_TEST_ENV_D", 1.0), 0.25);
    ::setenv("WLCRC_TEST_ENV_EXP", "1.5e2", 1);
    EXPECT_DOUBLE_EQ(wlcrc::envDouble("WLCRC_TEST_ENV_EXP", 1.0),
                     150.0);
    EXPECT_EQ(wlcrc::envString("WLCRC_TEST_ENV_MISSING", "dflt"),
              "dflt");
    // Empty is treated as unset, not as malformed.
    ::setenv("WLCRC_TEST_ENV_EMPTY", "", 1);
    EXPECT_EQ(wlcrc::envU64("WLCRC_TEST_ENV_EMPTY", 7), 7u);
    EXPECT_DOUBLE_EQ(wlcrc::envDouble("WLCRC_TEST_ENV_EMPTY", 1.5),
                     1.5);
}

TEST(Env, RejectsMalformedValuesLoudly)
{
    // A typo'd knob (e.g. WLCRC_BENCH_LINES=300O) must not silently
    // run with the default.
    for (const char *bad :
         {"12x", "300O", "1 2", "-5", "--3", " -7", "x",
          "99999999999999999999999"}) {
        ::setenv("WLCRC_TEST_ENV_BAD", bad, 1);
        EXPECT_THROW(wlcrc::envU64("WLCRC_TEST_ENV_BAD", 7),
                     std::invalid_argument)
            << "value: " << bad;
    }
    for (const char *bad : {"0.5x", "1.2.3", "zero", "1e999999"}) {
        ::setenv("WLCRC_TEST_ENV_BAD", bad, 1);
        EXPECT_THROW(wlcrc::envDouble("WLCRC_TEST_ENV_BAD", 1.0),
                     std::invalid_argument)
            << "value: " << bad;
    }
    // envDouble accepts signs — only envU64 rejects them.
    ::setenv("WLCRC_TEST_ENV_NEG", "-0.5", 1);
    EXPECT_DOUBLE_EQ(wlcrc::envDouble("WLCRC_TEST_ENV_NEG", 1.0),
                     -0.5);
    // Subnormals underflow (strtod sets ERANGE) but are still valid
    // parses, not malformed input.
    ::setenv("WLCRC_TEST_ENV_SUBNORMAL", "1e-310", 1);
    EXPECT_NEAR(
        wlcrc::envDouble("WLCRC_TEST_ENV_SUBNORMAL", 1.0) * 1e300,
        1e-10, 1e-12);
}

TEST(Parse, UnsignedIntegerGrammar)
{
    using wlcrc::parseU64;
    EXPECT_EQ(parseU64("0", "n"), 0u);
    EXPECT_EQ(parseU64("7", "n"), 7u);
    EXPECT_EQ(parseU64("0x20", "n"), 32u);
    EXPECT_EQ(parseU64("0X20", "n"), 32u);
    EXPECT_EQ(parseU64("0100", "n"), 100u); // decimal, not octal
    EXPECT_EQ(parseU64("18446744073709551615", "n"), UINT64_MAX);
    for (const char *bad :
         {"", "-1", "+1", " 5", "5 ", "12x", "1e6", "0x", "0x-1",
          "18446744073709551616"})
        EXPECT_THROW(parseU64(bad, "n"), std::invalid_argument)
            << "value: '" << bad << "'";
}

TEST(Parse, RangesAndDestinationWidths)
{
    using wlcrc::parseUint;
    EXPECT_EQ(parseUint<uint16_t>("65535", "port"), 65535u);
    EXPECT_THROW(parseUint<uint16_t>("65536", "port"),
                 std::invalid_argument);
    EXPECT_THROW(parseUint<unsigned>("4294967296", "n"),
                 std::invalid_argument);
    EXPECT_THROW(wlcrc::parseU64("0", "n", 1), std::invalid_argument);
    EXPECT_THROW(wlcrc::parseU64("9", "n", 1, 8), std::invalid_argument);
    EXPECT_EQ(wlcrc::parseU64("8", "n", 1, 8), 8u);
    // The message names what was parsed and the text it got.
    try {
        wlcrc::parseU64("12x", "--lines");
        FAIL() << "no throw";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--lines"), std::string::npos) << what;
        EXPECT_NE(what.find("12x"), std::string::npos) << what;
    }
}

TEST(Parse, RealGrammar)
{
    using wlcrc::parseReal;
    using wlcrc::RealRange;
    EXPECT_DOUBLE_EQ(parseReal("-0.5", "x"), -0.5);
    EXPECT_DOUBLE_EQ(parseReal("1.5e2", "x"), 150.0);
    EXPECT_GT(parseReal("1e-310", "x"), 0.0); // subnormal, still valid
    for (const char *bad :
         {"", "nan", "inf", "-inf", "1e999999", "0.5x", " 1", "abc"})
        EXPECT_THROW(parseReal(bad, "x"), std::invalid_argument)
            << "value: '" << bad << "'";
    EXPECT_DOUBLE_EQ(parseReal("0", "x", RealRange::nonNegative), 0.0);
    EXPECT_THROW(parseReal("-1", "x", RealRange::nonNegative),
                 std::invalid_argument);
    EXPECT_THROW(parseReal("0", "x", RealRange::positive),
                 std::invalid_argument);
    EXPECT_DOUBLE_EQ(parseReal("0.25", "x", RealRange::positive), 0.25);
}

/** Walk @p args (after a program name) through @p cl. */
std::optional<int>
walk(wlcrc::CommandLine &cl, std::vector<std::string> args,
     const std::function<void()> &check = {})
{
    std::vector<char *> argv{const_cast<char *>("tool")};
    for (auto &a : args)
        argv.push_back(a.data());
    return cl.parse(static_cast<int>(argv.size()), argv.data(), check);
}

TEST(Parse, ThreadCountsAreRangeCheckedBeforeAnythingStarts)
{
    // The tools' bounds for counts that become threads, processes or
    // sockets; out-of-range values never reach the caller's field.
    for (const std::vector<std::string> &args :
         std::vector<std::vector<std::string>>{
             {"--jobs", "4097"},
             {"--loops", "-1"},
             {"--loops", "0"},
             {"--banks", "4294967296"}}) {
        unsigned jobs = 7, loops = 7, banks = 7;
        wlcrc::CommandLine cl("tool", "usage: tool\n");
        cl.uint("--jobs", jobs, 0, 4096)
            .uint("--loops", loops, 1, 4096)
            .uint("--banks", banks, 1, 4096);
        EXPECT_EQ(walk(cl, args), 2) << args[0] << " " << args[1];
        EXPECT_EQ(jobs + loops + banks, 21u);
    }
}

TEST(Parse, CommandLineWalk)
{
    std::string name;
    std::vector<std::string> tags, files;
    bool on = false;
    uint64_t n = 0;
    const auto fresh = [&] {
        name.clear();
        tags.clear();
        files.clear();
        on = false;
        n = 0;
        wlcrc::CommandLine cl("tool", "usage: tool\n");
        cl.text("--name", name)
            .list("--tag", tags)
            .flag("--on", on)
            .uint("--n", n)
            .positionals(files);
        return cl;
    };
    {
        auto cl = fresh();
        EXPECT_EQ(walk(cl, {"a", "--tag", "x", "--name", "v", "--on",
                            "--tag", "y", "b", "--n", "0x10"}),
                  std::nullopt);
        EXPECT_EQ(name, "v");
        EXPECT_EQ(tags, (std::vector<std::string>{"x", "y"}));
        EXPECT_EQ(files, (std::vector<std::string>{"a", "b"}));
        EXPECT_TRUE(on);
        EXPECT_EQ(n, 16u);
        EXPECT_TRUE(cl.given("--name"));
        EXPECT_FALSE(cl.given("--help"));
    }
    for (const std::vector<std::string> &bad :
         std::vector<std::vector<std::string>>{
             {"--name", "a", "--name", "b"}, // repeat
             {"--name"},                     // missing value
             {"--bogus"},                    // unknown flag
             {"--n", "abc"}}) {              // malformed number
        auto cl = fresh();
        EXPECT_EQ(walk(cl, bad), 2) << bad[0];
    }
    {
        // --help stops the walk: neither a later error nor the
        // check runs.
        auto cl = fresh();
        bool checked = false;
        EXPECT_EQ(walk(cl, {"--on", "--help", "--bogus"},
                       [&] { checked = true; }),
                  0);
        EXPECT_FALSE(checked);
    }
    {
        auto cl = fresh();
        EXPECT_EQ(walk(cl, {"--on"},
                       [] { throw std::invalid_argument("bad combo"); }),
                  2);
    }
    {
        // Without declared positionals a bare word is an error.
        bool sw = false;
        wlcrc::CommandLine cl("tool", "usage: tool\n");
        cl.flag("--on", sw);
        EXPECT_EQ(walk(cl, {"stray"}), 2);
    }
}

} // namespace
