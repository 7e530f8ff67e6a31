/**
 * @file
 * wlcrc_load: the load harness for wlcrc_serve — N concurrent
 * connections streaming framed WriteTransactions from synthesizer
 * profiles or an existing WLCTRC corpus, with target-rate pacing and
 * a latency/throughput summary.
 *
 * Stream partitioning (the default): every connection derives the
 * SAME global stream from --seed and keeps only the records whose
 * addr %% connections equals its index — exactly how the offline
 * runner's shard cursors partition a trace. With the server started
 * with --banks equal to --connections and the same stream, bank i
 * receives exactly connection i's records in order, so a captured
 * session replays offline to bit-identical statistics
 * (docs/serve.md). --independent trades that equivalence for raw
 * stress: each connection synthesizes its own stream (childSeed per
 * connection, disjoint address windows).
 *
 * Options:
 *   --host <H>             server address (default 127.0.0.1)
 *   --port <P>             server port (required)
 *   --connections <N>      concurrent connections (default 4)
 *   --lines <N>            TOTAL writes across all connections
 *                          (default 10000; partitioned by address)
 *   --workload <name> | --random | --trace-in <file>
 *                          stream source (exactly one)
 *   --seed <S>             synthesis seed (default 1)
 *   --rate <W>             per-connection writes/second pacing
 *                          (default 0 = as fast as possible)
 *   --frame-records <N>    records per Write frame (default 64)
 *   --ack-every <N>        request an Ack every N frames (default
 *                          32; 0 = never) — the RTT sample includes
 *                          any backpressure stall
 *   --independent          per-connection independent streams (see
 *                          above; breaks capture-replay equivalence)
 *   --stats                don't stream: send one StatsReq, print
 *                          the telemetry JSON and exit
 *   --help                 print usage and exit 0
 *
 * Output: a summary with per-run totals, writes/s and ack RTT
 * percentiles. Exit status 0 only if every connection closed with a
 * clean ByeAck.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.hh"
#include "common/rng.hh"
#include "serve/client.hh"
#include "tracefile/format.hh"
#include "tracefile/source.hh"

namespace
{

using namespace wlcrc;

struct Options
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    unsigned connections = 4;
    uint64_t lines = 10000;
    std::string workload;
    bool random = false;
    std::string traceIn;
    uint64_t seed = 1;
    double rate = 0;
    std::size_t frameRecords = 64;
    uint64_t ackEvery = 32;
    bool independent = false;
    bool statsOnly = false;
};

const char *const kUsage =
    "usage: wlcrc_load --port P [--host H] [--connections N] "
    "[--lines N]\n"
    "          (--workload W | --random | --trace-in F) "
    "[--seed S]\n"
    "          [--rate W] [--frame-records N] [--ack-every N]\n"
    "          [--independent] [--stats] [--help]\n";

/** Per-connection outcome. */
struct ConnResult
{
    uint64_t sent = 0;
    uint64_t acked = 0;       //!< admitted count from the last Ack
    std::vector<double> rttUs;
    bool clean = false;
    std::string error;
};

/**
 * Stream connection @p conn's share of the writes: the records of
 * @p source whose address residue is @p conn (the shard idiom), or,
 * with no @p source (--independent), a stream of its own, seeded
 * childSeed(seed, conn) and shifted into its own address window.
 */
void
runConnection(const Options &o,
              const tracefile::TransactionSource *source,
              unsigned conn, ConnResult &out)
{
    using clock = std::chrono::steady_clock;
    try {
        std::unique_ptr<tracefile::TraceCursor> cursor;
        uint64_t addrOffset = 0;
        if (source) {
            cursor = source->open({o.connections, conn});
        } else {
            addrOffset = uint64_t{conn} << 32;
            const uint64_t lines =
                o.lines / o.connections +
                (conn < o.lines % o.connections ? 1 : 0);
            cursor = tracefile::SynthSource(o.random, o.workload,
                                            childSeed(o.seed, conn),
                                            lines)
                         .open({});
        }

        serve::Client client;
        client.connect(o.host, o.port);
        client.hello(conn);

        std::vector<trace::WriteTransaction> frame;
        frame.reserve(o.frameRecords);
        uint64_t framesSent = 0;
        const auto start = clock::now();
        const auto flush = [&](bool streamDone) {
            if (frame.empty())
                return;
            const bool wantAck =
                o.ackEvery &&
                (framesSent % o.ackEvery == 0 || streamDone);
            const auto t0 = clock::now();
            client.sendWrites(frame.data(), frame.size(), wantAck);
            if (wantAck) {
                out.acked = client.readAck();
                out.rttUs.push_back(
                    std::chrono::duration<double, std::micro>(
                        clock::now() - t0)
                        .count());
            }
            out.sent += frame.size();
            ++framesSent;
            frame.clear();
            if (o.rate > 0) {
                // Pace against the ideal schedule, not the previous
                // send — bursts after a stall catch back up.
                const double dueSec =
                    static_cast<double>(out.sent) / o.rate;
                const auto due =
                    start + std::chrono::duration_cast<
                                clock::duration>(
                                std::chrono::duration<double>(
                                    dueSec));
                std::this_thread::sleep_until(due);
            }
        };
        while (auto txn = cursor->next()) {
            txn->lineAddr += addrOffset;
            frame.push_back(*txn);
            if (frame.size() >= o.frameRecords)
                flush(false);
        }
        flush(true);
        (void)client.bye();
        out.clean = true;
    } catch (const std::exception &e) {
        out.error = e.what();
    }
}

double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1));
    return v[idx];
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    CommandLine cl("wlcrc_load", kUsage);
    cl.text("--host", o.host)
        .uint("--port", o.port, 1)
        .uint("--connections", o.connections, 1, 4096)
        .uint("--lines", o.lines)
        .text("--workload", o.workload)
        .flag("--random", o.random)
        .text("--trace-in", o.traceIn)
        .uint("--seed", o.seed)
        .real("--rate", o.rate, RealRange::nonNegative)
        // A Write frame's payload must fit the protocol's cap.
        .uint("--frame-records", o.frameRecords, 1,
              serve::maxFramePayload / tracefile::recordBytes)
        .uint("--ack-every", o.ackEvery)
        .flag("--independent", o.independent)
        .flag("--stats", o.statsOnly);
    const auto check = [&] {
        usageCheck(cl.given("--port"), "--port is required");
        const int sources =
            !o.workload.empty() + o.random + !o.traceIn.empty();
        usageCheck(o.statsOnly || sources == 1,
                   "pass exactly one of --workload, --random and "
                   "--trace-in");
    };
    if (const auto status = cl.parse(argc, argv, check))
        return *status;
    try {
        if (o.statsOnly) {
            serve::Client client;
            client.connect(o.host, o.port);
            std::printf("%s\n", client.stats().c_str());
            return 0;
        }

        std::shared_ptr<tracefile::TransactionSource> source;
        if (!o.traceIn.empty())
            source = tracefile::openTraceSource(o.traceIn);
        else if (!o.independent)
            source = std::make_shared<tracefile::SynthSource>(
                o.random, o.workload, o.seed, o.lines);

        std::vector<ConnResult> results(o.connections);
        std::vector<std::thread> threads;
        threads.reserve(o.connections);
        const auto start = std::chrono::steady_clock::now();
        for (unsigned c = 0; c < o.connections; ++c)
            threads.emplace_back([&, c] {
                runConnection(o, source.get(), c, results[c]);
            });
        for (auto &t : threads)
            t.join();
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();

        uint64_t sent = 0;
        unsigned cleanConns = 0;
        std::vector<double> rtt;
        for (unsigned c = 0; c < o.connections; ++c) {
            const ConnResult &r = results[c];
            sent += r.sent;
            cleanConns += r.clean;
            rtt.insert(rtt.end(), r.rttUs.begin(), r.rttUs.end());
            if (!r.clean)
                std::fprintf(stderr,
                             "wlcrc_load: connection %u: %s\n", c,
                             r.error.c_str());
        }
        double rttSum = 0;
        for (const double v : rtt)
            rttSum += v;
        std::printf(
            "wlcrc_load: %u/%u connections clean, %llu writes in "
            "%.3f s (%.0f writes/s)\n",
            cleanConns, o.connections,
            static_cast<unsigned long long>(sent), elapsed,
            elapsed > 0 ? static_cast<double>(sent) / elapsed : 0.0);
        if (!rtt.empty())
            std::printf(
                "wlcrc_load: ack rtt us: mean %.1f p50 %.1f "
                "p95 %.1f max %.1f (%zu samples)\n",
                rttSum / static_cast<double>(rtt.size()),
                percentile(rtt, 0.50), percentile(rtt, 0.95),
                percentile(rtt, 1.0), rtt.size());
        return cleanConns == o.connections ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wlcrc_load: %s\n", e.what());
        return 1;
    }
}
