/**
 * @file
 * Golden-output regression harness for the figure bench suite.
 *
 * Every bench binary is executed at a small fixed scale
 * (WLCRC_BENCH_LINES=120, WLCRC_BENCH_RANDOM_LINES=240, 2 replay
 * shards) and its stdout is compared byte-for-byte against a
 * checked-in golden CSV under tests/golden/ — so any codec, model
 * or harness change that drifts a figure's numbers fails ctest
 * instead of silently corrupting the artifact evaluation. Each
 * binary additionally runs with WLCRC_BENCH_JOBS=1 and =4 and the
 * two outputs must be identical, extending the runner's
 * parallelism-independence guarantee to the whole figure suite.
 *
 * The throughput bench reports wall-clock columns; those cells are
 * masked ('*') before comparison, pinning its deterministic
 * behaviour (kernel set, line counts, checksums) only.
 *
 * Execution backends and result caching extend the same guarantee:
 * every bench must match its golden under WLCRC_BENCH_BACKEND=serial
 * too, the process backend (spawned wlcrc_workers) is pinned to
 * the golden for a representative scheme sweep, and a cached re-run
 * must be byte-identical while replaying zero points.
 *
 * Refreshing goldens after an intended change:
 *     WLCRC_UPDATE_GOLDEN=1 ctest -R bench_golden
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "subprocess.hh"

namespace
{

/** One bench binary under golden test. */
struct BenchCase
{
    const char *name;     //!< bench/<name>.cc, binary bench_<name>
    bool maskTiming;      //!< mask wall-clock columns before diffing
};

/** Names each ctest after its bench; GetParam()'s default dump would
 *  print the name pointer's bytes, which move from build to build. */
void
PrintTo(const BenchCase &bench, std::ostream *os)
{
    *os << bench.name;
}

const BenchCase kBenches[] = {
    {"fig01_granularity_motivation", false},
    {"fig02_cosets_random", false},
    {"fig03_cosets_biased", false},
    {"fig04_compression_coverage", false},
    {"fig05_restricted_cosets", false},
    {"fig08_write_energy", false},
    {"fig09_endurance", false},
    {"fig10_disturbance", false},
    {"fig11_granularity_energy", false},
    {"fig12_granularity_endurance", false},
    {"fig13_granularity_disturbance", false},
    {"fig14_energy_sensitivity", false},
    {"ablation_wlcrc", false},
    {"multi_objective", false},
    {"hw_overhead", false},
    {"lifetime_sweep", false},
    {"codec_throughput", true},
    {"encode_hot_path", true},
};

/** Columns that are wall-clock measurements, never compared. */
const std::set<std::string> kVolatileColumns = {
    "ns_per_op", "ops_per_s", "writes_per_sec", "speedup"};

/** Capture a command's stdout; stderr is discarded. */
std::string
capture(const std::string &cmd, int &exit_code)
{
    return wlcrc::test::captureStdout(cmd + " 2>/dev/null",
                                      exit_code);
}

/** Naive comma split — bench CSV cells never contain commas. */
std::vector<std::string>
splitCells(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    for (const char c : line) {
        if (c == ',') {
            cells.push_back(cell);
            cell.clear();
        } else {
            cell += c;
        }
    }
    cells.push_back(cell);
    return cells;
}

/**
 * Replace every cell of a volatile column with '*'. Comment lines
 * and tables without volatile columns pass through untouched, so
 * this is the identity for the deterministic benches.
 */
std::string
maskVolatileColumns(const std::string &text)
{
    std::istringstream in(text);
    std::ostringstream out;
    std::string line;
    std::set<std::size_t> volatile_idx;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            volatile_idx.clear(); // next table re-parses its header
            out << line << '\n';
            continue;
        }
        auto cells = splitCells(line);
        bool is_header = false;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (kVolatileColumns.count(cells[i])) {
                if (!is_header)
                    volatile_idx.clear();
                is_header = true;
                volatile_idx.insert(i);
            }
        }
        if (!is_header) {
            for (const std::size_t i : volatile_idx)
                if (i < cells.size())
                    cells[i] = "*";
        }
        for (std::size_t i = 0; i < cells.size(); ++i)
            out << (i ? "," : "") << cells[i];
        out << '\n';
    }
    return out.str();
}

std::string
benchCommand(const std::string &name, unsigned jobs,
             const std::string &extraEnv = {})
{
    std::ostringstream cmd;
    cmd << "WLCRC_BENCH_LINES=120 WLCRC_BENCH_RANDOM_LINES=240"
        << " WLCRC_BENCH_SHARDS=2 WLCRC_BENCH_PROGRESS=0"
        << " WLCRC_BENCH_JOBS=" << jobs;
    if (!extraEnv.empty())
        cmd << " " << extraEnv;
    cmd << " " << WLCRC_BENCH_DIR << "/bench_" << name;
    return cmd.str();
}

std::string
goldenPath(const std::string &name)
{
    return std::string(WLCRC_GOLDEN_DIR) + "/" + name + ".csv";
}

/** Golden file contents ("" when absent). */
std::string
readGolden(const std::string &name)
{
    std::ifstream golden(goldenPath(name), std::ios::binary);
    std::stringstream buf;
    buf << golden.rdbuf();
    return buf.str();
}

class bench_golden : public ::testing::TestWithParam<BenchCase>
{
};

TEST_P(bench_golden, OutputMatchesGoldenAndIsJobCountInvariant)
{
    const BenchCase &bench = GetParam();

    int exit1 = -1, exit4 = -1;
    std::string out1 = capture(benchCommand(bench.name, 1), exit1);
    std::string out4 = capture(benchCommand(bench.name, 4), exit4);
    ASSERT_EQ(exit1, 0) << "bench_" << bench.name
                        << " (jobs=1) failed:\n"
                        << out1;
    ASSERT_EQ(exit4, 0) << "bench_" << bench.name
                        << " (jobs=4) failed:\n"
                        << out4;
    ASSERT_FALSE(out1.empty());

    if (bench.maskTiming) {
        out1 = maskVolatileColumns(out1);
        out4 = maskVolatileColumns(out4);
    }

    // Parallelism independence: the report is a function of the
    // spec grid, never of the worker count.
    EXPECT_EQ(out1, out4)
        << "bench_" << bench.name
        << " output depends on WLCRC_BENCH_JOBS";

    const std::string path = goldenPath(bench.name);
    if (std::getenv("WLCRC_UPDATE_GOLDEN")) {
        std::ofstream golden(path, std::ios::binary);
        ASSERT_TRUE(golden.is_open())
            << "cannot write golden file " << path;
        golden << out1;
        return;
    }

    std::ifstream golden(path, std::ios::binary);
    ASSERT_TRUE(golden.is_open())
        << "missing golden file " << path
        << " — regenerate with: WLCRC_UPDATE_GOLDEN=1 ctest -R "
           "bench_golden";
    std::stringstream expected;
    expected << golden.rdbuf();
    EXPECT_EQ(out1, expected.str())
        << "bench_" << bench.name
        << " drifted from its golden CSV. If the change is "
           "intended, refresh with: WLCRC_UPDATE_GOLDEN=1 ctest -R "
           "bench_golden";
}

// Backends relocate replay work without changing stdout: every
// bench must reproduce its golden CSV under the serial backend too
// (the thread-backend comparison is the golden test above).
TEST_P(bench_golden, SerialBackendMatchesGolden)
{
    if (std::getenv("WLCRC_UPDATE_GOLDEN"))
        GTEST_SKIP() << "goldens being refreshed";
    const BenchCase &bench = GetParam();
    const std::string expected = readGolden(bench.name);
    ASSERT_FALSE(expected.empty())
        << "missing golden file " << goldenPath(bench.name);

    int exit_code = -1;
    std::string out = capture(
        benchCommand(bench.name, 1, "WLCRC_BENCH_BACKEND=serial"),
        exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    if (bench.maskTiming)
        out = maskVolatileColumns(out);
    EXPECT_EQ(out, expected)
        << "bench_" << bench.name
        << " output depends on the execution backend";
}

// The two benches that once took arguments read their knobs from the
// environment alone now: a flag or a path is a usage error, never
// silently ignored or taken for a file to write.
TEST(BenchArgs, TimingBenchesRejectAnyArgument)
{
    for (const char *name : {"encode_hot_path", "trace_io"}) {
        const std::string bin =
            std::string(WLCRC_BENCH_DIR) + "/bench_" + name;
        for (const char *arg : {"--lines 10", "x"}) {
            EXPECT_EQ(wlcrc::test::exitCodeOf(bin + " " + arg +
                                              " 2>/dev/null"),
                      2)
                << name << " " << arg;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Figures, bench_golden, ::testing::ValuesIn(kBenches),
    [](const ::testing::TestParamInfo<BenchCase> &info) {
        return std::string(info.param.name);
    });

// The process backend spawns real wlcrc_workers; pin a full
// scheme×workload sweep to the same golden bytes. One
// representative bench keeps suite runtime sane — backend_test
// covers the protocol itself at unit scale.
TEST(bench_backends, Fig08ProcessBackendMatchesGolden)
{
    if (std::getenv("WLCRC_UPDATE_GOLDEN"))
        GTEST_SKIP() << "goldens being refreshed";
    const std::string expected = readGolden("fig08_write_energy");
    ASSERT_FALSE(expected.empty());

    int exit_code = -1;
    const std::string out = capture(
        benchCommand("fig08_write_energy", 4,
                     "WLCRC_BENCH_BACKEND=process "
                     "WLCRC_WORKER_BIN=" WLCRC_WORKER_BIN),
        exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    EXPECT_EQ(out, expected);
}

// Lifetime replays always execute single-sharded (a leveler's
// mapping spans the whole address space), but they still cross the
// process boundary like any other spec: the sweep must reproduce
// its golden bytes under spawned wlcrc_workers too.
TEST(bench_backends, LifetimeSweepProcessBackendMatchesGolden)
{
    if (std::getenv("WLCRC_UPDATE_GOLDEN"))
        GTEST_SKIP() << "goldens being refreshed";
    const std::string expected = readGolden("lifetime_sweep");
    ASSERT_FALSE(expected.empty());

    int exit_code = -1;
    const std::string out = capture(
        benchCommand("lifetime_sweep", 4,
                     "WLCRC_BENCH_BACKEND=process "
                     "WLCRC_WORKER_BIN=" WLCRC_WORKER_BIN),
        exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    EXPECT_EQ(out, expected);
}

// A cached lifetime sweep must re-run without replaying a single
// point: death detection, remap accounting and the CoV timeline all
// round-trip through the result cache.
TEST(bench_backends, LifetimeSweepCachedRerunIsAllHits)
{
    if (std::getenv("WLCRC_UPDATE_GOLDEN"))
        GTEST_SKIP() << "goldens being refreshed";
    const std::string dir =
        ::testing::TempDir() + "wlcrc_lifetime_cache";
    std::system(("rm -rf '" + dir + "'").c_str());
    const std::string env =
        "WLCRC_BENCH_CACHE_DIR='" + dir + "'";

    int exit1 = -1, exit2 = -1, exit3 = -1;
    const std::string cold =
        capture(benchCommand("lifetime_sweep", 4, env), exit1);
    const std::string warm =
        capture(benchCommand("lifetime_sweep", 4, env), exit2);
    ASSERT_EQ(exit1, 0);
    ASSERT_EQ(exit2, 0);
    EXPECT_EQ(cold, warm);
    EXPECT_EQ(cold, readGolden("lifetime_sweep"));

    const std::string summary = wlcrc::test::captureStdout(
        benchCommand("lifetime_sweep", 4, env) +
            " 2>&1 1>/dev/null",
        exit3);
    ASSERT_EQ(exit3, 0) << summary;
    EXPECT_NE(summary.find(" 0 replayed"), std::string::npos)
        << summary;
}

// A cached re-run must serve every point (0 replayed) and still be
// byte-identical — the acceptance property of the result cache.
TEST(bench_backends, Fig08CachedRerunIsByteIdenticalAndAllHits)
{
    if (std::getenv("WLCRC_UPDATE_GOLDEN"))
        GTEST_SKIP() << "goldens being refreshed";
    const std::string dir =
        ::testing::TempDir() + "wlcrc_bench_cache";
    std::system(("rm -rf '" + dir + "'").c_str());
    const std::string env =
        "WLCRC_BENCH_CACHE_DIR='" + dir + "'";

    int exit1 = -1, exit2 = -1, exit3 = -1;
    const std::string cold =
        capture(benchCommand("fig08_write_energy", 4, env), exit1);
    const std::string warm =
        capture(benchCommand("fig08_write_energy", 4, env), exit2);
    ASSERT_EQ(exit1, 0);
    ASSERT_EQ(exit2, 0);
    EXPECT_EQ(cold, warm);
    EXPECT_EQ(cold, readGolden("fig08_write_energy"));

    // Third (fully cached, cheap) run with stderr captured: the
    // summary must report zero replayed points.
    const std::string summary = wlcrc::test::captureStdout(
        benchCommand("fig08_write_energy", 4, env) +
            " 2>&1 1>/dev/null",
        exit3);
    ASSERT_EQ(exit3, 0) << summary;
    EXPECT_NE(summary.find(" 0 replayed"), std::string::npos)
        << summary;
}

} // namespace
