/**
 * @file
 * wlcrc_serve: the live write-stream service (docs/serve.md) — a TCP
 * daemon that encodes framed WriteTransaction streams from many
 * concurrent clients through bank-sharded device state, with live
 * telemetry and optional WLCTRC03 capture of every accepted stream.
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
 *   --capture-codec <C>    capture block codec: lz (default) or raw
 *   --max-writes <N>       stop after admitting N writes
 *   --run-seconds <S>      stop after S seconds of wall time
 *   --max-conns <N>        stop after N connections closed
 *   --vnr                  Verify-n-Restore per write
 *   --wear <endurance>     track per-cell wear; final report adds
 *                          the wear block + projected lifetime
 *   --s3 <pJ> --s4 <pJ>    intermediate-state SET energy overrides
 *   --help                 print usage and exit 0
 *
 * Flags and numbers follow common/parse.hh (docs/cli.md, "Flags and
 * numbers"): a missing value, a repeated value flag or a malformed
 * or out-of-range number is a usage error (exit 2).
 *
 * SIGINT/SIGTERM drain gracefully: connections are shut down, every
 * admitted write is encoded, capture files get valid CRC'd footers,
 * and the final exact telemetry report is printed as JSON on stdout.
 */

#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/parse.hh"
#include "serve/server.hh"

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

const char *const kUsage =
    "usage: wlcrc_serve [--port P] [--scheme S] [--banks N] "
    "[--seed S]\n"
    "          [--queue-capacity N] [--capture DIR] "
    "[--max-writes N]\n"
    "          [--capture-codec raw|lz]\n"
    "          [--run-seconds S] [--max-conns N] [--vnr] "
    "[--wear ENDURANCE]\n"
    "          [--s3 pJ] [--s4 pJ] [--help]\n";

} // namespace

int
main(int argc, char **argv)
{
    serve::ServerConfig cfg;
    CommandLine cl("wlcrc_serve", kUsage);
    cl.uint("--port", cfg.port)
        .text("--scheme", cfg.engine.scheme)
        .uint("--banks", cfg.engine.banks, 1, 4096)
        .uint("--seed", cfg.engine.seed)
        .uint("--queue-capacity", cfg.engine.queueCapacity, 1)
        .text("--capture", cfg.captureDir)
        .value("--capture-codec",
               [&cfg](const std::string &v) {
                   cfg.captureOptions.codec =
                       tracefile::parseCodecName(v);
               })
        .uint("--max-writes", cfg.maxWrites)
        .real("--run-seconds", cfg.runSeconds, RealRange::nonNegative)
        .uint("--max-conns", cfg.maxConns)
        .flag("--vnr", cfg.engine.vnr)
        .uint("--wear", cfg.engine.wearEndurance)
        .real("--s3", cfg.engine.s3, RealRange::nonNegative)
        .real("--s4", cfg.engine.s4, RealRange::nonNegative);
    if (const auto status = cl.parse(argc, argv))
        return *status;
    try {
        serve::Server server(cfg);
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
