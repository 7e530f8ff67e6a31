/**
 * @file
 * wlcrc_serve: the live write-stream service (docs/serve.md) — a TCP
 * daemon that encodes framed WriteTransaction streams from many
 * concurrent clients through bank-sharded device state, with live
 * telemetry and optional WLCTRC02 capture of every accepted stream.
 *
 * Options:
 *   --port <P>             listen port on 127.0.0.1, 0..65535
 *                          (default 0 = ephemeral; the bound port is
 *                          printed as
 *                          "wlcrc_serve: listening on 127.0.0.1:P")
 *   --scheme <name>        encoding scheme (default WLCRC-16)
 *   --banks <N>            device banks / encode workers (default 4);
 *                          bank = lineAddr % banks, seeded like the
 *                          offline runner's shards
 *   --seed <S>             master device seed (default 1)
 *   --queue-capacity <N>   per-bank admission ring (default 1024);
 *                          full ring = backpressure on the client
 *   --capture <dir>        write each connection's accepted stream
 *                          to <dir>/stream-<id>.wlctrc
 *   --capture-format <F>   capture container revision: v2
 *                          (uncompressed, default) or v3
 *                          (per-block compressed)
 *   --capture-codec <C>    v3 block codec: lz (default), zstd (if
 *                          built in) or raw
 *   --max-writes <N>       stop after admitting N writes
 *   --run-seconds <S>      stop after S seconds of wall time
 *   --max-conns <N>        stop after N connections closed
 *   --vnr                  Verify-n-Restore per write
 *   --wear <endurance>     track per-cell wear; final report adds
 *                          the wear block + projected lifetime
 *   --s3 <pJ> --s4 <pJ>    intermediate-state SET energy overrides
 *   --help                 print usage and exit 0
 *
 * A malformed --port, a missing value or a repeated value flag is a
 * usage error (exit 2).
 *
 * SIGINT/SIGTERM drain gracefully: connections are shut down, every
 * admitted write is encoded, capture files get valid CRC'd footers,
 * and the final exact telemetry report is printed as JSON on stdout.
 */

#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "serve/server.hh"
#include "tracefile/block_codec.hh"

namespace
{

using namespace wlcrc;

wlcrc::serve::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server)
        g_server->requestStop(); // an atomic store; signal-safe
}

struct Options
{
    serve::ServerConfig cfg;
    bool help = false;
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--port P] [--scheme S] [--banks N] [--seed S]\n"
        "          [--queue-capacity N] [--capture DIR] "
        "[--max-writes N]\n"
        "          [--capture-format v2|v3] "
        "[--capture-codec raw|lz|zstd]\n"
        "          [--run-seconds S] [--max-conns N] [--vnr] "
        "[--wear ENDURANCE]\n"
        "          [--s3 pJ] [--s4 pJ] [--help]\n",
        argv0);
}

/** Strict 0..65535 (0 = ephemeral). @throws std::invalid_argument. */
uint16_t
parsePort(const std::string &v)
{
    unsigned port = 0;
    const char *end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, port);
    if (v.empty() || ec != std::errc() || ptr != end || port > 65535)
        throw std::invalid_argument("--port must be 0..65535, got \"" +
                                    v + "\"");
    return static_cast<uint16_t>(port);
}

/**
 * @return the options, or nullopt after printing why they are bad.
 * @throws std::invalid_argument on a bad --port, a missing value or
 *         a repeated value flag.
 */
std::optional<Options>
parse(int argc, char **argv)
{
    Options o;
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        // Every flag but the two switches takes one value and may
        // appear once: a repeat is a usage error, never a silent
        // override.
        auto next = [&]() -> const char * {
            if (!seen.insert(a).second)
                throw std::invalid_argument(a + " given twice");
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--port") {
            o.cfg.port = parsePort(next());
        } else if (a == "--scheme") {
            o.cfg.engine.scheme = next();
        } else if (a == "--banks") {
            o.cfg.engine.banks = std::strtoul(next(), nullptr, 0);
        } else if (a == "--seed") {
            o.cfg.engine.seed = std::strtoull(next(), nullptr, 0);
        } else if (a == "--queue-capacity") {
            o.cfg.engine.queueCapacity =
                std::strtoull(next(), nullptr, 0);
        } else if (a == "--capture") {
            o.cfg.captureDir = next();
        } else if (a == "--capture-format") {
            const std::string f = next();
            if (f == "v2") {
                o.cfg.captureOptions.format =
                    tracefile::TraceFormat::v2;
            } else if (f == "v3") {
                o.cfg.captureOptions.format =
                    tracefile::TraceFormat::v3;
            } else {
                std::fprintf(stderr,
                             "--capture-format must be v2 or v3\n");
                return std::nullopt;
            }
        } else if (a == "--capture-codec") {
            const char *v = next();
            try {
                o.cfg.captureOptions.codec =
                    tracefile::parseCodecName(v);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "--capture-codec: %s\n", e.what());
                return std::nullopt;
            }
        } else if (a == "--max-writes") {
            o.cfg.maxWrites = std::strtoull(next(), nullptr, 0);
        } else if (a == "--run-seconds") {
            o.cfg.runSeconds = std::strtod(next(), nullptr);
        } else if (a == "--max-conns") {
            o.cfg.maxConns = std::strtoul(next(), nullptr, 0);
        } else if (a == "--vnr") {
            o.cfg.engine.vnr = true;
        } else if (a == "--wear") {
            o.cfg.engine.wearEndurance =
                std::strtoull(next(), nullptr, 0);
        } else if (a == "--s3") {
            o.cfg.engine.s3 = std::strtod(next(), nullptr);
        } else if (a == "--s4") {
            o.cfg.engine.s4 = std::strtod(next(), nullptr);
        } else if (a == "--help") {
            o.help = true;
        } else {
            usage(argv[0]);
            return std::nullopt;
        }
    }
    if (o.help)
        return o;
    if (o.cfg.captureOptions.format == tracefile::TraceFormat::v3 &&
        !tracefile::codecAvailable(o.cfg.captureOptions.codec)) {
        std::fprintf(stderr,
                     "--capture-codec %s: not built into this "
                     "binary\n",
                     tracefile::codecName(o.cfg.captureOptions.codec));
        return std::nullopt;
    }
    if (o.cfg.engine.banks == 0 ||
        o.cfg.engine.queueCapacity == 0) {
        std::fprintf(stderr,
                     "--banks and --queue-capacity must be > 0\n");
        usage(argv[0]);
        return std::nullopt;
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    std::optional<Options> opts;
    try {
        opts = parse(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wlcrc_serve: %s\n", e.what());
        return 2;
    }
    if (!opts)
        return 2;
    if (opts->help) {
        usage(argv[0]);
        return 0;
    }
    try {
        serve::Server server(opts->cfg);
        server.start();
        g_server = &server;
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        // The banner is the machine-readable port handshake the load
        // tool, tests and CI parse — keep the format stable.
        std::printf("wlcrc_serve: listening on 127.0.0.1:%u\n",
                    static_cast<unsigned>(server.port()));
        std::fflush(stdout);
        server.wait();
        std::printf("%s\n", server.snapshotJson(true).c_str());
        std::fprintf(stderr, "wlcrc_serve: stopped (%s)\n",
                     server.stopReason().c_str());
        g_server = nullptr;
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wlcrc_serve: %s\n", e.what());
        return 1;
    }
}
