/**
 * @file
 * wlcrc_worker — distributed-sweep worker process.
 *
 * Connects to a wlcrc_sim head node (--backend remote / --listen),
 * pulls grid points over the WRK1 protocol and replays each one
 * through the stock in-process path (runner/remote.hh has the
 * protocol; docs/distributed.md the topology). Run one per core on
 * every machine that should take part in a sweep, or let the head
 * spawn them locally.
 *
 * Writes NOTHING to stdout (except --help): the head's stdout is
 * the byte-compared report stream, and a locally spawned worker
 * shares the terminal. Status goes to stderr.
 *
 * A missing or repeated flag value is a usage error (exit 2).
 *
 * The --kill-after / --hang-after flags are fault injection for the
 * test suite and CI chaos job — a worker that dies or hangs
 * mid-point must never change a sweep's bytes, only its wall time.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.hh"
#include "runner/remote.hh"

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: wlcrc_worker --connect HOST:PORT [options]\n"
        "\n"
        "Serve grid points for a wlcrc_sim head node (WRK1\n"
        "protocol, docs/distributed.md). Exits when the head\n"
        "sends Fin or the connection drops.\n"
        "\n"
        "  --connect HOST:PORT  head node to pull work from\n"
        "                       (bare PORT means 127.0.0.1)\n"
        "  --loops N            concurrent pull loops, each its\n"
        "                       own connection (default 1)\n"
        "  --simd KERNEL        encode kernel: auto scalar avx2\n"
        "                       neon (default $WLCRC_SIMD, else\n"
        "                       auto)\n"
        "  --kill-after N       fault injection: SIGKILL self on\n"
        "                       receiving the Nth point\n"
        "  --hang-after N       fault injection: hang forever on\n"
        "                       receiving the Nth point\n"
        "  --help               this text\n");
}

struct Options
{
    wlcrc::runner::WorkerOptions worker;
    unsigned loops = 1;
    std::string simd; //!< empty = $WLCRC_SIMD, as the head exports
    bool help = false;
};

Options
parse(int argc, char **argv)
{
    Options o;
    std::set<std::string> seen;
    auto value = [&](int &i, const char *flag) -> std::string {
        // One value per flag: a repeat is a usage error, never a
        // silent override.
        if (!seen.insert(flag).second)
            throw std::runtime_error(std::string(flag) +
                                     " given twice");
        if (i + 1 >= argc)
            throw std::runtime_error(std::string(flag) +
                                     " needs a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            o.help = true;
        } else if (arg == "--connect") {
            const auto [host, port] = wlcrc::runner::parseHostPort(
                value(i, "--connect"));
            o.worker.host = host;
            o.worker.port = port;
        } else if (arg == "--loops") {
            o.loops = static_cast<unsigned>(
                std::stoul(value(i, "--loops")));
            if (o.loops == 0)
                throw std::runtime_error("--loops must be >= 1");
        } else if (arg == "--simd") {
            o.simd = value(i, "--simd");
        } else if (arg == "--kill-after") {
            o.worker.killAfter =
                std::stoi(value(i, "--kill-after"));
        } else if (arg == "--hang-after") {
            o.worker.hangAfter =
                std::stoi(value(i, "--hang-after"));
        } else {
            throw std::runtime_error("unknown option " + arg);
        }
    }
    if (!o.help && !seen.count("--connect"))
        throw std::runtime_error("--connect HOST:PORT is required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace wlcrc;

    Options opts;
    try {
        opts = parse(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wlcrc_worker: %s\n", e.what());
        usage(stderr);
        return 2;
    }
    if (opts.help) {
        usage(stdout);
        return 0;
    }
    try {
        if (!opts.simd.empty())
            simd::setKernelFromText(opts.simd);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wlcrc_worker: %s\n", e.what());
        return 2;
    }

    // Each loop is an independent connection so the head's queue,
    // reissue and death accounting see N workers, not one.
    std::vector<std::thread> threads;
    std::vector<runner::WorkerStats> stats(opts.loops);
    std::vector<std::string> errors(opts.loops);
    for (unsigned i = 0; i < opts.loops; ++i) {
        threads.emplace_back([&, i] {
            try {
                stats[i] = runner::runWorkerLoop(opts.worker);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        });
    }
    runner::WorkerStats total;
    bool failed = false;
    for (unsigned i = 0; i < opts.loops; ++i) {
        threads[i].join();
        total.pointsRun += stats[i].pointsRun;
        total.failures += stats[i].failures;
        if (!errors[i].empty()) {
            failed = true;
            std::fprintf(stderr, "wlcrc_worker: loop %u: %s\n", i,
                         errors[i].c_str());
        }
    }
    std::fprintf(stderr,
                 "wlcrc_worker: served %llu point%s (%llu failed "
                 "in-band)\n",
                 static_cast<unsigned long long>(total.pointsRun),
                 total.pointsRun == 1 ? "" : "s",
                 static_cast<unsigned long long>(total.failures));
    return failed ? 1 : 0;
}
