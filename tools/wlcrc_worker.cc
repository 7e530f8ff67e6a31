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
 * Flags and numbers follow common/parse.hh (docs/cli.md, "Flags and
 * numbers"): a missing value, a repeated flag or a malformed or
 * out-of-range number is a usage error (exit 2).
 *
 * The --kill-after / --hang-after flags are fault injection for the
 * test suite and CI chaos job — a worker that dies or hangs
 * mid-point must never change a sweep's bytes, only its wall time.
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/parse.hh"
#include "common/simd.hh"
#include "runner/remote.hh"

namespace
{

const char *const kUsage =
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
    "  --help               this text\n";

} // namespace

int
main(int argc, char **argv)
{
    using namespace wlcrc;

    runner::WorkerOptions worker;
    unsigned loops = 1;
    CommandLine cl("wlcrc_worker", kUsage);
    cl.helpAlias("-h")
        .value("--connect",
               [&](const std::string &v) {
                   std::tie(worker.host, worker.port) =
                       runner::parseHostPort(v);
               })
        .uint("--loops", loops, 1, 4096)
        // Unset, the worker keeps $WLCRC_SIMD, as the head exports.
        .value("--simd", simd::setKernelFromText)
        .uint("--kill-after", worker.killAfter)
        .uint("--hang-after", worker.hangAfter);
    const auto check = [&] {
        usageCheck(cl.given("--connect"),
                   "--connect HOST:PORT is required");
    };
    if (const auto status = cl.parse(argc, argv, check))
        return *status;

    // Each loop is an independent connection so the head's queue,
    // reissue and death accounting see N workers, not one.
    std::vector<std::thread> threads;
    std::vector<runner::WorkerStats> stats(loops);
    std::vector<std::string> errors(loops);
    for (unsigned i = 0; i < loops; ++i) {
        threads.emplace_back([&, i] {
            try {
                stats[i] = runner::runWorkerLoop(worker);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        });
    }
    runner::WorkerStats total;
    bool failed = false;
    for (unsigned i = 0; i < loops; ++i) {
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
