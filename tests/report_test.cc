/**
 * @file
 * Reporter coverage: CSV quoting of metacharacters in grid
 * coordinates, JSON string escaping, and a full round-trip parse of
 * `wlcrc_sim --json` output through runner::parseJson — the same
 * parser the result cache and the worker protocol rely on, so the
 * round trip exercises the production decode path.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/experiment.hh"
#include "runner/json_mini.hh"
#include "runner/report.hh"
#include "subprocess.hh"

namespace
{

using namespace wlcrc;
using runner::CsvReporter;
using runner::ExperimentResult;
using runner::JsonReporter;

// ------------------------------------------------- tiny CSV parser

/** Split one RFC-4180-style CSV line into unescaped cells. */
std::vector<std::string>
parseCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"' && i + 1 < line.size() &&
                line[i + 1] == '"') {
                cell += '"';
                ++i;
            } else if (c == '"') {
                quoted = false;
            } else {
                cell += c;
            }
        } else if (c == '"' && cell.empty()) {
            quoted = true;
        } else if (c == ',') {
            cells.push_back(cell);
            cell.clear();
        } else {
            cell += c;
        }
    }
    cells.push_back(cell);
    return cells;
}

// ------------------------------------------------------- CSV tests

ExperimentResult
okResult()
{
    ExperimentResult r;
    r.ok = true;
    r.replay.writes = 4;
    r.replay.compressedWrites = 2;
    return r;
}

TEST(CsvReporter, QuotesCommasAndQuotesInNames)
{
    auto r = okResult();
    r.spec.scheme = "WLCRC,16";
    r.spec.workload = "say \"hi\",now";

    std::ostringstream os;
    CsvReporter().write(os, {r});
    const std::string text = os.str();

    // The metacharacters must be quoted on the wire...
    EXPECT_NE(text.find("\"WLCRC,16\""), std::string::npos) << text;
    EXPECT_NE(text.find("\"say \"\"hi\"\",now\""),
              std::string::npos)
        << text;

    // ...and a conforming CSV parser must get the originals back.
    std::istringstream in(text);
    std::string header_line, row_line;
    ASSERT_TRUE(std::getline(in, header_line));
    ASSERT_TRUE(std::getline(in, row_line));
    const auto header = parseCsvLine(header_line);
    const auto row = parseCsvLine(row_line);
    ASSERT_EQ(row.size(), header.size());
    EXPECT_EQ(row[0], "WLCRC,16");
    EXPECT_EQ(row[1], "say \"hi\",now");
    EXPECT_EQ(row[5], "ok");
}

TEST(CsvReporter, OneRowPerResultEvenOnError)
{
    auto good = okResult();
    ExperimentResult bad;
    bad.spec.scheme = "nope";
    bad.error = "unknown scheme";

    std::ostringstream os;
    CsvReporter().write(os, {good, bad});
    std::istringstream in(os.str());
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u); // header + 2 rows
    EXPECT_NE(lines[2].find("error"), std::string::npos);
}

// ------------------------------------------------------ JSON tests

TEST(JsonReporter, EscapesQuotesBackslashesAndControlChars)
{
    ExperimentResult r;
    r.spec.scheme = "sch\"eme\\x";
    r.error = "line1\nline2\ttabbed";

    std::ostringstream os;
    JsonReporter().write(os, {r});

    const auto doc = runner::parseJson(os.str());
    ASSERT_EQ(doc.type, runner::JsonValue::Type::Array);
    ASSERT_EQ(doc.array.size(), 1u);
    const auto &obj = doc.array[0];
    EXPECT_EQ(obj.at("scheme").asString(), "sch\"eme\\x");
    EXPECT_FALSE(obj.at("ok").asBool());
    EXPECT_EQ(obj.at("error").asString(), "line1\nline2\ttabbed");
}

TEST(JsonReporter, RoundTripsMetricsThroughAParser)
{
    auto r = okResult();
    r.spec.scheme = "WLCRC-16";
    r.spec.workload = "lesl";
    r.spec.lines = 4;
    r.spec.seed = 9;
    r.spec.shards = 2;

    std::ostringstream os;
    JsonReporter().write(os, {r});
    const auto doc = runner::parseJson(os.str());
    const auto &obj = doc.array.at(0);
    EXPECT_EQ(obj.at("report_version").asDouble(),
              static_cast<double>(runner::kReportVersion));
    EXPECT_EQ(obj.at("scheme").asString(), "WLCRC-16");
    EXPECT_EQ(obj.at("source").asString(), "lesl");
    EXPECT_EQ(obj.at("lines").asDouble(), 4.0);
    EXPECT_EQ(obj.at("seed").asDouble(), 9.0);
    EXPECT_EQ(obj.at("shards").asDouble(), 2.0);
    EXPECT_TRUE(obj.at("ok").asBool());
    EXPECT_EQ(obj.at("writes").asDouble(), 4.0);
    EXPECT_EQ(obj.at("compressed_writes").asDouble(), 2.0);
    EXPECT_EQ(obj.at("compressed_pct").asDouble(), 50.0);
}

// -------------------------------------- wlcrc_sim --json round trip

TEST(JsonReporter, WlcrcSimJsonOutputParses)
{
    int exit_code = -1;
    const std::string out = test::captureStdout(
        std::string(WLCRC_SIM_BIN) +
            " --workload lesl --scheme WLCRC-16 --scheme Baseline"
            " --lines 120 --seed 3 --shards 2 --jobs 2 --json",
        exit_code);
    ASSERT_EQ(exit_code, 0) << out;

    const auto doc = runner::parseJson(out);
    ASSERT_EQ(doc.type, runner::JsonValue::Type::Array);
    ASSERT_EQ(doc.array.size(), 2u);
    EXPECT_EQ(doc.array[0].at("scheme").asString(), "WLCRC-16");
    EXPECT_EQ(doc.array[1].at("scheme").asString(), "Baseline");
    for (const auto &obj : doc.array) {
        EXPECT_EQ(obj.at("report_version").asDouble(),
                  static_cast<double>(runner::kReportVersion));
        EXPECT_EQ(obj.at("source").asString(), "lesl");
        EXPECT_EQ(obj.at("lines").asDouble(), 120.0);
        EXPECT_EQ(obj.at("seed").asDouble(), 3.0);
        EXPECT_EQ(obj.at("shards").asDouble(), 2.0);
        EXPECT_TRUE(obj.at("ok").asBool());
        EXPECT_EQ(obj.at("writes").asDouble(), 120.0);
        EXPECT_GT(obj.at("energy_pj").asDouble(), 0.0);
        EXPECT_GE(obj.at("updated_cells").asDouble(), 0.0);
        EXPECT_FALSE(obj.has("error"));
    }
}

TEST(SimCli, RejectsRepeatedSingleValuedFlagsWithUsageError)
{
    const std::string sim = WLCRC_SIM_BIN;
    for (const char *bad :
         {"--workload gcc --workload lesl --lines 200 --scheme Baseline",
          "--workload lesl --lines 200 --lines 300",
          "--workload lesl --lines 20 --seed 1 --seed 2",
          "--workload lesl --lines 20 --backend serial --backend thread",
          "--workload lesl --lines", "--workload lesl --scheme"}) {
        EXPECT_EQ(test::exitCodeOf(sim + " " + bad + " 2>/dev/null"), 2)
            << bad;
    }
    // The sweep flags stay repeatable.
    EXPECT_EQ(test::exitCodeOf(sim +
                               " --workload lesl --lines 20"
                               " --scheme Baseline --scheme WLCRC-16"
                               " --leveler none --leveler start-gap"
                               " >/dev/null 2>&1"),
              0);
}

TEST(SimCli, RejectsMalformedNumbersWithUsageError)
{
    // Each of these used to run with a truncated or zero value.
    const std::string sim = WLCRC_SIM_BIN;
    for (const char *bad :
         {"--lines abc", "--lines 20 --shards 4x", "--lines 20 --s3 abc",
          "--lines 20 --wear 1e6", "--lines 20 --seed -1",
          "--lines 20 --decode-ahead x"}) {
        EXPECT_EQ(test::exitCodeOf(sim + " --workload lesl " + bad +
                                   " >/dev/null 2>&1"),
                  2)
            << bad;
    }
    // A leading zero is decimal, not octal.
    int rc1 = -1, rc2 = -1;
    const std::string base = sim + " --workload lesl --scheme Baseline";
    EXPECT_EQ(test::captureStdout(base + " --lines 0100 2>/dev/null", rc1),
              test::captureStdout(base + " --lines 100 2>/dev/null", rc2));
    EXPECT_EQ(rc1, 0);
    EXPECT_EQ(rc2, 0);
}

} // namespace
