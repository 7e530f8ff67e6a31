/**
 * @file
 * wlcrc_sim: the command-line front end of the trace-driven
 * simulator — the workflow of the paper's Section VII in one binary,
 * executed by the parallel experiment runner (src/runner).
 *
 * Modes:
 *   --workload <name>      synthesize the named benchmark workload
 *   --random               random-data workload (Figures 1a/2)
 *   --trace-in <file>      replay an existing binary trace; the
 *                          format (WLCTRC01 / 02 / 03) is
 *                          auto-detected and the file is streamed —
 *                          never loaded whole — so traces larger
 *                          than RAM replay fine
 *   --trace-out <file>     also persist the synthesized trace as
 *                          WLCTRC03
 *   --trace-codec <C>      its block codec: lz (default) or raw
 *
 * Options:
 *   --scheme <name>        encoding scheme (default WLCRC-16);
 *                          may be repeated
 *   --lines <N>            write transactions to simulate
 *   --seed <S>             RNG seed
 *   --jobs <N>             worker threads (default: all cores)
 *   --shards <N>           shards per scheme run (default 1);
 *                          results depend on the shard count but
 *                          never on --jobs
 *   --partition <mode>     how shards slice the address space:
 *                          modulo (default) or range (contiguous
 *                          spans of the trace's address range;
 *                          needs --trace-in). Part of the result,
 *                          like --shards
 *   --decode-ahead <N>     stage N compressed blocks ahead of the
 *                          replay on a background decode thread
 *                          (sets $WLCRC_DECODE_AHEAD, so spawned
 *                          wlcrc_workers inherit it; 0 = decode
 *                          synchronously; results are identical
 *                          either way)
 *   --backend <name>       execution backend: thread (default),
 *                          serial, remote (this process becomes
 *                          the head node of a distributed sweep) or
 *                          process (a remote head that spawns --jobs
 *                          local wlcrc_workers); results identical
 *                          for all
 *   --listen <port>        (remote) listen on 127.0.0.1:<port> for
 *                          wlcrc_worker connections, 0..65535; 0
 *                          picks an ephemeral port. The bound port
 *                          is printed to stderr either way
 *   --workers <N>          (remote) spawn N local wlcrc_worker
 *                          processes ($WLCRC_WORKER_BIN, default:
 *                          wlcrc_worker next to this binary)
 *   --reissue-sec <S>      (remote) straggler deadline: an issued
 *                          point unanswered for S seconds is
 *                          reissued to another worker (default 30)
 *   --cache-remote <H:P>   consult a remote head node's result
 *                          cache instead of a local directory
 *                          (wins over --cache-dir/$WLCRC_CACHE_DIR)
 *   --cache-dir <dir>      result cache directory (also via
 *                          $WLCRC_CACHE_DIR); unchanged points are
 *                          served without replaying
 *   --no-cache             ignore $WLCRC_CACHE_DIR for this run
 *   --vnr                  run Verify-n-Restore after each write
 *   --wear <endurance>     track per-cell wear and project lifetime
 *   --wear-csv <file>      dump the merged per-cell wear histogram
 *                          (requires --wear; disables caching for
 *                          the run, since a cache entry cannot
 *                          carry the tracker)
 *   --leveler <cfg>        wear-leveling scheme between replayer
 *                          and device: none, start-gap[:pN][:rN] or
 *                          page-remap[:pN][:gN]; may be repeated
 *                          to sweep schemes
 *   --endurance <cfg>      per-cell endurance budgets,
 *                          mean[:cov[:ecc[:cap]]]
 *   --lifetime             loop the stream until first uncorrectable
 *                          cell death (requires --endurance)
 *   --s3 <pJ> --s4 <pJ>    override intermediate-state SET energies
 *   --simd <kernel>        encode kernel: auto (default), scalar,
 *                          avx2 or neon; results are bit-identical
 *                          for every choice (also via $WLCRC_SIMD;
 *                          exported to spawned wlcrc_workers)
 *   --json                 report JSON instead of CSV
 *   --progress             stderr progress/ETA line while running
 *   --help                 print usage and exit 0
 *
 * Flags and numbers follow common/parse.hh (docs/cli.md, "Flags and
 * numbers"): a missing value, a repeated value flag other than
 * --scheme and --leveler, or a malformed or out-of-range number is a
 * usage error (exit 2).
 *
 * Output: one row/object per scheme with the paper's three metrics.
 * With a cache, a summary line "wlcrc_sim: cache <dir>: N points:
 * H hits, R replayed, S stored" goes to stderr.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/parse.hh"
#include "common/simd.hh"
#include "runner/backend.hh"
#include "runner/grid.hh"
#include "runner/remote.hh"
#include "runner/report.hh"
#include "runner/result_cache.hh"
#include "runner/runner.hh"
#include "tracefile/source.hh"
#include "tracefile/writer.hh"
#include "wearlevel/config.hh"

namespace
{

using namespace wlcrc;

struct Options
{
    std::vector<std::string> schemes;
    std::string workload;
    std::string traceIn;
    std::string traceOut;
    tracefile::WriterOptions traceWriter; //!< --trace-codec
    std::string partition = "modulo";
    uint64_t decodeAhead = 0;
    std::string backend = "thread";
    std::string cacheDir; // resolved from flag/env in main()
    std::string cacheRemote;
    uint16_t listenPort = 0;
    unsigned workers = 0;
    double reissueSec = 30.0;
    std::vector<std::string> levelers;
    std::string endurance;
    std::string wearCsv;
    bool lifetime = false;
    bool noCache = false;
    bool random = false;
    bool vnr = false;
    bool json = false;
    bool progress = false;
    uint64_t lines = 10000;
    uint64_t seed = 1;
    uint64_t wearEndurance = 0;
    unsigned jobs = 0;
    unsigned shards = 1;
    double s3 = 307.0, s4 = 547.0;
    std::string simd;
};

const char *const kUsage =
    "usage: wlcrc_sim [--scheme S]... (--workload W | --random | "
    "--trace-in F)\n"
    "          [--trace-out F] [--trace-codec raw|lz]\n"
    "          [--lines N] [--seed S] [--jobs N] [--shards N] "
    "[--partition modulo|range] [--decode-ahead N]\n"
    "          [--backend thread|serial|process|remote] "
    "[--cache-dir D] [--no-cache]\n"
    "          [--listen PORT] [--workers N] "
    "[--reissue-sec S] [--cache-remote HOST:PORT]\n"
    "          [--vnr] [--wear ENDURANCE] [--wear-csv F] "
    "[--s3 pJ] [--s4 pJ] [--json] [--progress]\n"
    "          [--simd auto|scalar|avx2|neon]\n"
    "          [--leveler CFG]... [--endurance CFG] "
    "[--lifetime] [--help]\n";

/** Declare wlcrc_sim's flags, bound to @p o's fields. */
void
declare(CommandLine &cl, Options &o)
{
    cl.list("--scheme", o.schemes)
        .text("--workload", o.workload)
        .text("--trace-in", o.traceIn)
        .text("--trace-out", o.traceOut)
        .value("--trace-codec",
               [&o](const std::string &v) {
                   o.traceWriter.codec = tracefile::parseCodecName(v);
               })
        .choice("--partition", o.partition, {"modulo", "range"})
        .uint("--decode-ahead", o.decodeAhead)
        .choice("--backend", o.backend,
                {"thread", "serial", "process", "remote"})
        .text("--cache-dir", o.cacheDir)
        .text("--cache-remote", o.cacheRemote)
        .uint("--listen", o.listenPort)
        .uint("--workers", o.workers, 1, 4096)
        .real("--reissue-sec", o.reissueSec, RealRange::positive)
        .flag("--no-cache", o.noCache)
        .flag("--random", o.random)
        .flag("--vnr", o.vnr)
        .flag("--json", o.json)
        .flag("--progress", o.progress)
        .uint("--lines", o.lines)
        .uint("--seed", o.seed)
        .uint("--jobs", o.jobs, 0, 4096)
        .uint("--shards", o.shards, 1, 4096)
        .uint("--wear", o.wearEndurance)
        .text("--wear-csv", o.wearCsv)
        .list("--leveler", o.levelers)
        .text("--endurance", o.endurance)
        .flag("--lifetime", o.lifetime)
        .text("--simd", o.simd)
        .real("--s3", o.s3, RealRange::nonNegative)
        .real("--s4", o.s4, RealRange::nonNegative);
}

/** @throws std::invalid_argument on a bad combination of flags. */
void
check(const CommandLine &cl, Options &o)
{
    if (o.schemes.empty())
        o.schemes.push_back("WLCRC-16");
    usageCheck(!o.workload.empty() + o.random + !o.traceIn.empty() == 1,
               "pass exactly one of --workload, --random and "
               "--trace-in");
    const bool headFlags = cl.given("--listen") ||
                           cl.given("--workers") ||
                           cl.given("--reissue-sec");
    usageCheck(o.backend != "remote" || cl.given("--listen") ||
                   cl.given("--workers"),
               "--backend remote needs someone to do the work: pass "
               "--workers N (spawn local wlcrc_worker processes) "
               "and/or --listen PORT (external workers connect there)");
    usageCheck(o.backend == "remote" || !headFlags,
               "--listen/--workers/--reissue-sec configure the head "
               "node; pass --backend remote");
    usageCheck(o.partition != "range" || !o.traceIn.empty(),
               "--partition range slices a stored trace's address "
               "span; it needs --trace-in");
    usageCheck(o.traceIn.empty() || o.traceOut.empty(),
               "--trace-out only persists a synthesized stream; to "
               "re-frame an existing trace use `wlcrc_trace convert`");
    usageCheck(!o.lifetime || !o.endurance.empty(),
               "--lifetime needs per-cell budgets; pass --endurance "
               "mean[:cov[:ecc[:cap]]]");
    usageCheck(o.wearCsv.empty() || o.wearEndurance != 0,
               "--wear-csv dumps the tracker --wear enables; pass "
               "--wear ENDURANCE too");
}

/**
 * Persist the synthesized stream for --trace-out as a WLCTRC03
 * container. This only writes the file; the runner
 * synthesizes the identical stream from the seed on its own, so the
 * reported source stays the workload name.
 */
void
persistTrace(const Options &o)
{
    tracefile::TraceFileWriter writer(o.traceOut, o.traceWriter);
    auto cursor =
        tracefile::SynthSource(o.random, o.workload, o.seed, o.lines)
            .open({});
    while (auto t = cursor->next())
        writer.write(*t);
    writer.close();
}

/**
 * The wlcrc_worker a head spawns: $WLCRC_WORKER_BIN (so tests and CI
 * can point at a specific build), else the one next to @p argv0.
 */
std::string
workerBinary(const std::string &argv0)
{
    std::string bin = envString("WLCRC_WORKER_BIN", "");
    if (!bin.empty())
        return bin;
    const auto slash = argv0.rfind('/');
    return (slash == std::string::npos ? std::string(".")
                                       : argv0.substr(0, slash)) +
           "/wlcrc_worker";
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    CommandLine cl("wlcrc_sim", kUsage);
    declare(cl, o);
    if (const auto status =
            cl.parse(argc, argv, [&] { check(cl, o); }))
        return *status;
    try {
        if (!o.simd.empty()) {
            // Resolve now (validates the name, throws on typos) and
            // export the concrete kernel so spawned wlcrc_workers
            // inherit the same choice.
            simd::setKernelFromText(o.simd);
            ::setenv("WLCRC_SIMD",
                     simd::kernelName(simd::activeKernel()), 1);
        }
        if (cl.given("--decode-ahead")) {
            // Export, so spawned wlcrc_workers stage the same depth.
            ::setenv("WLCRC_DECODE_AHEAD",
                     std::to_string(o.decodeAhead).c_str(), 1);
        }
        runner::DeviceConfig device;
        device.s3 = o.s3;
        device.s4 = o.s4;
        device.vnr = o.vnr;
        device.wearEndurance = o.wearEndurance;

        runner::ExperimentGrid grid;
        grid.schemes(o.schemes)
            .lines(o.lines)
            .seed(o.seed)
            .shards(o.shards)
            .partition(o.partition == "range"
                           ? tracefile::Partition::range
                           : tracefile::Partition::modulo)
            .deviceConfigs({device});
        if (!o.traceIn.empty())
            grid.sources({tracefile::openTraceSource(o.traceIn)});
        else if (o.random)
            grid.randomSource();
        else
            grid.workloads({o.workload});
        if (!o.levelers.empty()) {
            std::vector<wearlevel::LevelerConfig> axis;
            for (const auto &l : o.levelers)
                axis.push_back(wearlevel::parseLeveler(l));
            grid.levelers(std::move(axis));
        }
        if (!o.endurance.empty())
            grid.endurances(
                {wearlevel::parseEndurance(o.endurance)});
        if (o.lifetime)
            grid.lifetime();
        if (!o.traceOut.empty())
            persistTrace(o);

        runner::RunnerOptions ropts;
        ropts.jobs = o.jobs;
        if (o.progress)
            ropts.progress = runner::stderrProgress("wlcrc_sim");

        // --cache-dir wins over $WLCRC_CACHE_DIR; --no-cache
        // disables both (the env var lets CI and wrapper scripts
        // turn caching on without touching every command line);
        // --cache-remote wins over everything.
        std::string cacheDir = o.cacheDir;
        if (cacheDir.empty())
            cacheDir = envString("WLCRC_CACHE_DIR", "");
        if (o.noCache)
            cacheDir.clear();
        std::shared_ptr<runner::CacheStore> localStore;
        if (!cacheDir.empty())
            localStore =
                std::make_shared<runner::DirCacheStore>(cacheDir);

        // "process" is the same head with no flags of its own: an
        // ephemeral port and one spawned worker per job.
        std::shared_ptr<runner::RemoteBackend> remote;
        if (o.backend == "remote" || o.backend == "process") {
            runner::RemoteBackendOptions bopts;
            bopts.port = o.listenPort;
            bopts.reissueSec = o.reissueSec;
            if (o.workers > 0 || o.backend == "process") {
                bopts.workerBinary = workerBinary(argv[0]);
                bopts.spawnWorkers = o.workers;
            }
            // The head serves its own cache store to the cluster,
            // so head-local and worker-shared caching are one
            // namespace of entries.
            bopts.serveCache = localStore;
            remote = std::make_shared<runner::RemoteBackend>(
                std::move(bopts));
            std::fprintf(stderr,
                         "wlcrc_sim: head listening on "
                         "127.0.0.1:%u\n",
                         static_cast<unsigned>(remote->port()));
            ropts.backend = remote;
        } else if (o.backend != "thread") {
            ropts.backend = runner::makeBackend(o.backend);
        }

        runner::RunStats stats;
        std::string cacheLabel = cacheDir;
        if (!o.cacheRemote.empty()) {
            const auto [host, port] =
                runner::parseHostPort(o.cacheRemote);
            ropts.cacheStore =
                std::make_shared<runner::RemoteCacheStore>(host,
                                                           port);
            ropts.stats = &stats;
            cacheLabel = "remote " + o.cacheRemote;
        } else if (localStore) {
            ropts.cacheStore = localStore;
            ropts.stats = &stats;
        }

        const runner::ExperimentRunner engine(ropts);
        std::vector<runner::ExperimentSpec> specs = grid.expand();
        // A wear-histogram dump needs the merged per-cell tracker
        // on each result; such specs run in-process and uncached.
        if (!o.wearCsv.empty())
            for (auto &s : specs)
                s.keepWearTracker = true;
        const auto results = engine.run(specs);
        if (remote) {
            // Fin to the workers before reporting: the sweep is
            // over, and CI greps these fault counters.
            remote->stop();
            std::string faults;
            for (const auto &[name, n] : remote->errorCounts())
                faults += " " + name + "=" + std::to_string(n);
            if (!faults.empty())
                std::fprintf(stderr,
                             "wlcrc_sim: remote faults:%s\n",
                             faults.c_str());
        }
        if (ropts.stats)
            std::fprintf(stderr, "wlcrc_sim: cache %s: %s\n",
                         cacheLabel.c_str(),
                         stats.summary().c_str());

        for (const auto &r : results) {
            if (!r.ok) {
                std::fprintf(stderr, "error: %s: %s\n",
                             r.spec.label().c_str(),
                             r.error.c_str());
                return 1;
            }
        }
        if (!o.wearCsv.empty()) {
            std::ofstream out(o.wearCsv,
                              std::ios::binary | std::ios::trunc);
            if (!out)
                throw std::runtime_error("cannot write " +
                                         o.wearCsv);
            for (const auto &r : results) {
                out << "# " << r.spec.label() << "\n"
                    << "writes,cells\n";
                if (r.wearTracker)
                    for (const auto &[writes, cells] :
                         r.wearTracker->histogram())
                        out << writes << "," << cells << "\n";
            }
            std::fprintf(stderr,
                         "wlcrc_sim: wear histogram -> %s\n",
                         o.wearCsv.c_str());
        }
        if (o.json)
            runner::JsonReporter().write(std::cout, results);
        else
            runner::CsvReporter().write(std::cout, results);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
    return 0;
}
