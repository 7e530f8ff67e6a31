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
 *                          format (WLCTRC01 / WLCTRC02) is
 *                          auto-detected and the file is streamed —
 *                          never loaded whole — so traces larger
 *                          than RAM replay fine
 *   --trace-out <file>     also persist the synthesized trace
 *   --trace-format v1|v2|v3 container written by --trace-out
 *                          (default v1; v3 compresses blocks with
 *                          --trace-codec, default lz; `wlcrc_trace
 *                          convert` re-frames any direction)
 *   --trace-codec <C>      v3 block codec: raw, lz or zstd
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
 *                          wlcrc_worker connections; 0 or absent
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
 * A missing value or a repeated value flag other than --scheme and
 * --leveler is a usage error (exit 2).
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
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/simd.hh"
#include "runner/backend.hh"
#include "runner/grid.hh"
#include "runner/remote.hh"
#include "runner/report.hh"
#include "runner/result_cache.hh"
#include "runner/runner.hh"
#include "tracefile/block_codec.hh"
#include "tracefile/source.hh"
#include "tracefile/writer.hh"
#include "trace/trace_io.hh"
#include "trace/workload.hh"
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
    std::string traceFormat = "v1";
    std::string traceCodec;
    std::string partition = "modulo";
    std::string decodeAhead;
    std::string backend = "thread";
    std::string cacheDir; // resolved from flag/env in main()
    std::string cacheRemote;
    unsigned listenPort = 0;
    unsigned workers = 0;
    double reissueSec = 30.0;
    bool remoteFlags = false; //!< any --listen/--workers/--reissue-sec
    std::vector<std::string> levelers;
    std::string endurance;
    std::string wearCsv;
    bool lifetime = false;
    bool noCache = false;
    bool random = false;
    bool vnr = false;
    bool json = false;
    bool progress = false;
    bool help = false;
    uint64_t lines = 10000;
    uint64_t seed = 1;
    uint64_t wearEndurance = 0;
    unsigned jobs = 0;
    unsigned shards = 1;
    double s3 = 307.0, s4 = 547.0;
    std::string simd;
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--scheme S]... (--workload W | --random | "
        "--trace-in F)\n"
        "          [--trace-out F] [--trace-format v1|v2|v3] "
        "[--trace-codec raw|lz|zstd]\n"
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
        "[--lifetime] [--help]\n",
        argv0);
}

/**
 * @return the options, or nullopt after printing why they are bad.
 * @throws std::invalid_argument on a missing value or a repeated
 *         single-valued flag.
 */
std::optional<Options>
parse(int argc, char **argv)
{
    Options o;
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        // --scheme and --leveler sweep and may repeat; every other
        // value flag may appear once: a repeat is a usage error,
        // never a silent override.
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        auto next = [&]() -> const char * {
            if (!seen.insert(a).second)
                throw std::invalid_argument(a + " given twice");
            return value();
        };
        if (a == "--scheme") {
            o.schemes.push_back(value());
        } else if (a == "--workload") {
            o.workload = next();
        } else if (a == "--trace-in") {
            o.traceIn = next();
        } else if (a == "--trace-out") {
            o.traceOut = next();
        } else if (a == "--trace-format") {
            o.traceFormat = next();
        } else if (a == "--trace-codec") {
            o.traceCodec = next();
        } else if (a == "--partition") {
            o.partition = next();
        } else if (a == "--decode-ahead") {
            o.decodeAhead = next();
        } else if (a == "--backend") {
            o.backend = next();
        } else if (a == "--cache-dir") {
            o.cacheDir = next();
        } else if (a == "--cache-remote") {
            o.cacheRemote = next();
        } else if (a == "--listen") {
            // Validated strictly: a silently truncated port (or a
            // non-numeric straggler deadline below) would steer
            // the whole cluster somewhere unintended.
            const char *v = next();
            char *end = nullptr;
            const unsigned long port = std::strtoul(v, &end, 10);
            if (end == v || *end != '\0' || port == 0 ||
                port > 65535) {
                std::fprintf(stderr,
                             "--listen needs a port in 1..65535, "
                             "got \"%s\"\n",
                             v);
                return std::nullopt;
            }
            o.listenPort = static_cast<unsigned>(port);
            o.remoteFlags = true;
        } else if (a == "--workers") {
            const char *v = next();
            char *end = nullptr;
            const unsigned long n = std::strtoul(v, &end, 10);
            if (end == v || *end != '\0' || n == 0 || n > 4096) {
                std::fprintf(stderr,
                             "--workers needs a count in 1..4096, "
                             "got \"%s\"\n",
                             v);
                return std::nullopt;
            }
            o.workers = static_cast<unsigned>(n);
            o.remoteFlags = true;
        } else if (a == "--reissue-sec") {
            const char *v = next();
            char *end = nullptr;
            const double sec = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(sec > 0.0)) {
                std::fprintf(stderr,
                             "--reissue-sec needs a positive "
                             "number of seconds, got \"%s\"\n",
                             v);
                return std::nullopt;
            }
            o.reissueSec = sec;
            o.remoteFlags = true;
        } else if (a == "--no-cache") {
            o.noCache = true;
        } else if (a == "--help") {
            o.help = true;
        } else if (a == "--random") {
            o.random = true;
        } else if (a == "--vnr") {
            o.vnr = true;
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--progress") {
            o.progress = true;
        } else if (a == "--lines") {
            o.lines = std::strtoull(next(), nullptr, 0);
        } else if (a == "--seed") {
            o.seed = std::strtoull(next(), nullptr, 0);
        } else if (a == "--jobs") {
            o.jobs = std::strtoul(next(), nullptr, 0);
        } else if (a == "--shards") {
            o.shards = std::strtoul(next(), nullptr, 0);
        } else if (a == "--wear") {
            o.wearEndurance = std::strtoull(next(), nullptr, 0);
        } else if (a == "--wear-csv") {
            o.wearCsv = next();
        } else if (a == "--leveler") {
            o.levelers.push_back(value());
        } else if (a == "--endurance") {
            o.endurance = next();
        } else if (a == "--lifetime") {
            o.lifetime = true;
        } else if (a == "--simd") {
            o.simd = next();
        } else if (a == "--s3") {
            o.s3 = std::strtod(next(), nullptr);
        } else if (a == "--s4") {
            o.s4 = std::strtod(next(), nullptr);
        } else {
            usage(argv[0]);
            return std::nullopt;
        }
    }
    if (o.help)
        return o; // no stream/scheme validation applies
    if (o.schemes.empty())
        o.schemes.push_back("WLCRC-16");
    const int sources = !o.workload.empty() + o.random +
                        !o.traceIn.empty();
    if (sources != 1 ||
        (o.traceFormat != "v1" && o.traceFormat != "v2" &&
         o.traceFormat != "v3") ||
        (o.partition != "modulo" && o.partition != "range") ||
        (o.backend != "thread" && o.backend != "serial" &&
         o.backend != "process" && o.backend != "remote")) {
        usage(argv[0]);
        return std::nullopt;
    }
    if (o.backend == "remote" && o.listenPort == 0 &&
        o.workers == 0) {
        std::fprintf(stderr,
                     "--backend remote needs someone to do the "
                     "work: pass --workers N (spawn local "
                     "wlcrc_worker processes) and/or --listen PORT "
                     "(external workers connect there)\n");
        usage(argv[0]);
        return std::nullopt;
    }
    if (o.backend != "remote" && o.remoteFlags) {
        std::fprintf(stderr,
                     "--listen/--workers/--reissue-sec configure "
                     "the head node; pass --backend remote\n");
        usage(argv[0]);
        return std::nullopt;
    }
    if (!o.traceCodec.empty() && o.traceFormat != "v3") {
        std::fprintf(stderr, "--trace-codec applies to "
                             "--trace-format v3 only\n");
        usage(argv[0]);
        return std::nullopt;
    }
    if (o.partition == "range" && o.traceIn.empty()) {
        std::fprintf(stderr,
                     "--partition range slices a stored trace's "
                     "address span; it needs --trace-in\n");
        usage(argv[0]);
        return std::nullopt;
    }
    if (!o.traceIn.empty() && !o.traceOut.empty()) {
        std::fprintf(stderr,
                     "--trace-out only persists a synthesized "
                     "stream; to re-frame an existing trace use "
                     "`wlcrc_trace convert`\n");
        usage(argv[0]);
        return std::nullopt;
    }
    if (o.lifetime && o.endurance.empty()) {
        std::fprintf(stderr,
                     "--lifetime needs per-cell budgets; pass "
                     "--endurance mean[:cov[:ecc[:cap]]]\n");
        usage(argv[0]);
        return std::nullopt;
    }
    if (!o.wearCsv.empty() && o.wearEndurance == 0) {
        std::fprintf(stderr,
                     "--wear-csv dumps the tracker --wear enables; "
                     "pass --wear ENDURANCE too\n");
        usage(argv[0]);
        return std::nullopt;
    }
    return o;
}

/**
 * Persist the synthesized stream for --trace-out, as a legacy
 * WLCTRC01 dump or an indexed WLCTRC02/03 container. This only writes
 * the file; the runner synthesizes the identical stream from the
 * seed on its own, so the reported source stays the workload name.
 */
void
persistTrace(const Options &o)
{
    auto emit = [&](auto &&write) {
        trace::synthesize(o.random, o.workload, o.seed, o.lines, write);
    };
    if (o.traceFormat == "v2" || o.traceFormat == "v3") {
        tracefile::WriterOptions wopts;
        if (o.traceFormat == "v3") {
            wopts.format = tracefile::TraceFormat::v3;
            if (!o.traceCodec.empty())
                wopts.codec =
                    tracefile::parseCodecName(o.traceCodec);
        }
        tracefile::TraceFileWriter writer(o.traceOut, wopts);
        emit([&](const trace::WriteTransaction &t) {
            writer.write(t);
        });
        writer.close();
    } else {
        trace::TraceWriter writer(o.traceOut);
        emit([&](const trace::WriteTransaction &t) {
            writer.write(t);
        });
        writer.close();
    }
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
    std::optional<Options> opts;
    try {
        opts = parse(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wlcrc_sim: %s\n", e.what());
        return 2;
    }
    if (!opts)
        return 2;
    if (opts->help) {
        usage(argv[0]);
        return 0;
    }

    try {
        if (!opts->simd.empty()) {
            // Resolve now (validates the name, throws on typos) and
            // export the concrete kernel so spawned wlcrc_workers
            // inherit the same choice.
            simd::setKernelFromText(opts->simd);
            ::setenv("WLCRC_SIMD",
                     simd::kernelName(simd::activeKernel()), 1);
        }
        if (!opts->decodeAhead.empty()) {
            // Validate here (envU64 would otherwise throw deep in a
            // cursor open) and export, so spawned wlcrc_workers
            // stage the same depth.
            char *end = nullptr;
            std::strtoull(opts->decodeAhead.c_str(), &end, 10);
            if (end != opts->decodeAhead.c_str() +
                           opts->decodeAhead.size() ||
                opts->decodeAhead.empty())
                throw std::invalid_argument(
                    "--decode-ahead wants a block count, got '" +
                    opts->decodeAhead + "'");
            ::setenv("WLCRC_DECODE_AHEAD",
                     opts->decodeAhead.c_str(), 1);
        }
        runner::DeviceConfig device;
        device.s3 = opts->s3;
        device.s4 = opts->s4;
        device.vnr = opts->vnr;
        device.wearEndurance = opts->wearEndurance;

        runner::ExperimentGrid grid;
        grid.schemes(opts->schemes)
            .lines(opts->lines)
            .seed(opts->seed)
            .shards(opts->shards)
            .partition(opts->partition == "range"
                           ? tracefile::Partition::range
                           : tracefile::Partition::modulo)
            .deviceConfigs({device});
        if (!opts->traceIn.empty())
            grid.sources({tracefile::openTraceSource(opts->traceIn)});
        else if (opts->random)
            grid.randomSource();
        else
            grid.workloads({opts->workload});
        if (!opts->levelers.empty()) {
            std::vector<wearlevel::LevelerConfig> axis;
            for (const auto &l : opts->levelers)
                axis.push_back(wearlevel::parseLeveler(l));
            grid.levelers(std::move(axis));
        }
        if (!opts->endurance.empty())
            grid.endurances(
                {wearlevel::parseEndurance(opts->endurance)});
        if (opts->lifetime)
            grid.lifetime();
        if (!opts->traceOut.empty())
            persistTrace(*opts);

        runner::RunnerOptions ropts;
        ropts.jobs = opts->jobs;
        if (opts->progress)
            ropts.progress = runner::stderrProgress("wlcrc_sim");

        // --cache-dir wins over $WLCRC_CACHE_DIR; --no-cache
        // disables both (the env var lets CI and wrapper scripts
        // turn caching on without touching every command line);
        // --cache-remote wins over everything.
        std::string cacheDir = opts->cacheDir;
        if (cacheDir.empty())
            cacheDir = envString("WLCRC_CACHE_DIR", "");
        if (opts->noCache)
            cacheDir.clear();
        std::shared_ptr<runner::CacheStore> localStore;
        if (!cacheDir.empty())
            localStore =
                std::make_shared<runner::DirCacheStore>(cacheDir);

        // "process" is the same head with no flags of its own: an
        // ephemeral port and one spawned worker per job.
        std::shared_ptr<runner::RemoteBackend> remote;
        if (opts->backend == "remote" || opts->backend == "process") {
            runner::RemoteBackendOptions bopts;
            bopts.port =
                static_cast<uint16_t>(opts->listenPort);
            bopts.reissueSec = opts->reissueSec;
            if (opts->workers > 0 || opts->backend == "process") {
                bopts.workerBinary = workerBinary(argv[0]);
                bopts.spawnWorkers = opts->workers;
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
        } else if (opts->backend != "thread") {
            ropts.backend = runner::makeBackend(opts->backend);
        }

        runner::RunStats stats;
        std::string cacheLabel = cacheDir;
        if (!opts->cacheRemote.empty()) {
            const auto [host, port] =
                runner::parseHostPort(opts->cacheRemote);
            ropts.cacheStore =
                std::make_shared<runner::RemoteCacheStore>(host,
                                                           port);
            ropts.stats = &stats;
            cacheLabel = "remote " + opts->cacheRemote;
        } else if (localStore) {
            ropts.cacheStore = localStore;
            ropts.stats = &stats;
        }

        const runner::ExperimentRunner engine(ropts);
        std::vector<runner::ExperimentSpec> specs = grid.expand();
        // A wear-histogram dump needs the merged per-cell tracker
        // on each result; such specs run in-process and uncached.
        if (!opts->wearCsv.empty())
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
        if (!opts->wearCsv.empty()) {
            std::ofstream out(opts->wearCsv,
                              std::ios::binary | std::ios::trunc);
            if (!out)
                throw std::runtime_error("cannot write " +
                                         opts->wearCsv);
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
                         opts->wearCsv.c_str());
        }
        if (opts->json)
            runner::JsonReporter().write(std::cout, results);
        else
            runner::CsvReporter().write(std::cout, results);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
    return 0;
}
