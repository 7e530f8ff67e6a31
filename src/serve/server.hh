/**
 * @file
 * Server: the live write-stream service around BankEngine — the
 * per-connection reader, telemetry snapshots and the graceful-drain
 * lifecycle, on the shared connection core (net/conn_server.hh).
 * tools/wlcrc_serve is a thin CLI around this class; tests and the
 * serve bench embed it in-process.
 *
 * Threads: the ConnServer accept loop, one reader thread per
 * connection, one encode worker per bank (BankEngine). A reader
 * decodes frames, optionally captures accepted records to a
 * per-stream WLCTRC03 file, and submits them to the engine;
 * backpressure propagates from a full bank queue through the
 * blocked reader to the client's TCP window. Telemetry requests are
 * answered on the requesting connection's own thread from the
 * engine's seqlock snapshots, so a STATS never stalls encode.
 * ConnServer alone closes connection fds, after their reader
 * returns; a connection accepted once a stop was requested is
 * closed unserved.
 *
 * Shutdown (requestStop(), a signal, --run-seconds, --max-writes or
 * --max-conns): stopAccepting(), shutdownConns(SHUT_RDWR), join the
 * readers (each drains its admitted writes and closes its capture
 * file with a valid CRC'd footer), stop the engine, then report
 * exact merged results.
 */

#ifndef WLCRC_SERVE_SERVER_HH
#define WLCRC_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/conn_server.hh"
#include "runner/experiment.hh"
#include "serve/engine.hh"
#include "tracefile/writer.hh"

namespace wlcrc::serve
{

/** Full service configuration (engine + lifecycle knobs). */
struct ServerConfig
{
    EngineConfig engine;
    uint16_t port = 0;       //!< 0 = ephemeral (see Server::port())
    /** Directory for per-stream capture files; "" = off. */
    std::string captureDir;
    /**
     * Writer options of capture files: WLCTRC03, lz by default,
     * which shrinks long captures severalfold at a per-block
     * compress cost the reader thread absorbs. Either codec replays
     * byte-identically (the capture-replay equivalence tests).
     */
    tracefile::WriterOptions captureOptions;
    uint64_t maxWrites = 0;  //!< stop after admitting this many (0 = off)
    double runSeconds = 0;   //!< stop after this much wall time (0 = off)
    /**
     * Accept this many connections, then stop once they have all
     * closed (0 = off). It is the ConnServer's accept limit.
     */
    unsigned maxConns = 0;
};

/** Per-connection telemetry (registry entry + engine ticket). */
struct ConnState
{
    std::atomic<uint32_t> streamId{0};
    std::atomic<bool> hasHello{false};
    std::atomic<bool> open{true};
    std::atomic<bool> clean{false};
    std::atomic<uint64_t> frames{0};
    ConnTicket ticket;
    std::string lastError;    //!< set once, before open -> false
};

/** The live write-stream service. */
class Server
{
  public:
    /** @throws std::runtime_error on bad scheme / capture dir. */
    explicit Server(const ServerConfig &cfg);

    /** Joins everything (requestStop() + wait() if still running). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind + listen, start the engine and the accept loop.
     * @throws std::runtime_error if the socket cannot be bound.
     */
    void start();

    /** Bound TCP port (the ephemeral one when configured with 0). */
    uint16_t port() const { return net_.port(); }

    /**
     * Ask the server to stop. Async-signal-safe (an atomic store),
     * so the CLI's SIGINT/SIGTERM handlers call it directly.
     */
    void requestStop() { stopFlag_.store(true); }

    /**
     * Block until a stop condition fires (requestStop, run-seconds,
     * max-writes, max-conns), then drain: close the listener, shut
     * down connections, join readers, stop the engine. On return
     * every capture file is closed and finalResult() is exact.
     */
    void wait();

    /**
     * Telemetry snapshot as JSON (docs/serve.md). Non-blocking with
     * respect to encode: built from seqlock snapshots and relaxed
     * counters. @p final marks the post-drain exact report (only
     * valid after wait() returned; repeated calls agree byte for
     * byte, its uptime ending at the drain).
     */
    std::string snapshotJson(bool final = false) const;

    /**
     * Exact merged result (BankEngine::finalResult); only valid
     * after wait() returned. Repeated calls agree.
     */
    runner::ExperimentResult finalResult() const;

    /** Why the server stopped ("signal", "max-writes", ...). */
    const std::string &stopReason() const { return stopReason_; }

    /** Writes admitted so far (for monitors/tests). */
    uint64_t accepted() const { return engine_.totalAccepted(); }

  private:
    void runConnection(int fd);
    std::string connSummaryJson(const ConnState &conn) const;
    void shutdownAll();

    ServerConfig cfg_;
    BankEngine engine_;
    std::chrono::steady_clock::time_point startTime_;
    std::chrono::steady_clock::time_point stopTime_; //!< end of drain

    mutable std::mutex connMutex_;
    std::vector<std::shared_ptr<ConnState>> conns_;
    std::atomic<uint64_t> closed_{0};

    std::atomic<bool> stopFlag_{false};
    bool drained_ = false;
    std::string stopReason_;

    /** Last: destroyed first, while everything it runs is alive. */
    net::ConnServer net_;
};

} // namespace wlcrc::serve

#endif // WLCRC_SERVE_SERVER_HH
