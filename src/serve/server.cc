#include "server.hh"

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/socket.h>

#include "common/simd.hh"
#include "runner/report.hh"
#include "runner/spec_codec.hh"
#include "serve/protocol.hh"
#include "tracefile/format.hh"
#include "tracefile/writer.hh"

namespace wlcrc::serve
{

namespace
{

/** CoV of a running stat (0 when the mean is 0 or no samples). */
double
covOf(const stats::RunningStat &s)
{
    return s.mean() != 0.0 ? s.stddev() / s.mean() : 0.0;
}

} // namespace

Server::Server(const ServerConfig &cfg)
    : cfg_(cfg), engine_(cfg.engine),
      net_([this](int fd, uint64_t) { runConnection(fd); },
           cfg.maxConns)
{
    if (!cfg_.captureDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cfg_.captureDir, ec);
        if (ec)
            throw std::runtime_error("cannot create capture dir " +
                                     cfg_.captureDir + ": " +
                                     ec.message());
    }
}

Server::~Server()
{
    requestStop();
    if (!drained_)
        wait();
}

void
Server::start()
{
    startTime_ = std::chrono::steady_clock::now();
    engine_.start();
    net_.start(cfg_.port);
}

void
Server::runConnection(int fd)
{
    if (stopFlag_.load())
        return; // accepted mid-drain: closed unserved
    auto conn = std::make_shared<ConnState>();
    {
        std::lock_guard lock(connMutex_);
        conns_.push_back(conn);
    }
    std::vector<uint8_t> payload;
    std::unique_ptr<tracefile::TraceFileWriter> capture;
    bool helloSeen = false;
    bool clean = false;
    std::string err;
    try {
        for (;;) {
            FrameHeader h;
            const RecvStatus st = recvFrame(fd, h, payload);
            if (st == RecvStatus::CleanEof) {
                // EOF without Bye: an error mid-stream, a harmless
                // probe before any frame.
                if (helloSeen)
                    err = "disconnect";
                else
                    clean = true;
                break;
            }
            if (st != RecvStatus::Ok) {
                err = recvErrorName(st);
                break;
            }
            const auto type = static_cast<FrameType>(h.type);
            if (type == FrameType::Hello) {
                if (payload.size() < 8) {
                    err = "bad-length";
                    break;
                }
                if (tracefile::getLe32(payload.data()) !=
                    protocolVersion) {
                    err = "bad-version";
                    break;
                }
                const uint32_t sid =
                    tracefile::getLe32(payload.data() + 4);
                conn->streamId.store(sid);
                conn->hasHello.store(true);
                helloSeen = true;
                if (!cfg_.captureDir.empty())
                    capture =
                        std::make_unique<tracefile::TraceFileWriter>(
                            cfg_.captureDir + "/stream-" +
                            std::to_string(sid) + ".wlctrc",
                            cfg_.captureOptions);
            } else if (type == FrameType::Write) {
                if (!helloSeen) {
                    err = "no-hello";
                    break;
                }
                if (payload.empty() ||
                    payload.size() % tracefile::recordBytes != 0) {
                    err = "bad-length";
                    break;
                }
                const std::size_t n =
                    payload.size() / tracefile::recordBytes;
                bool stopped = false;
                for (std::size_t i = 0; i < n; ++i) {
                    const trace::WriteTransaction txn =
                        tracefile::decodeRecord(
                            payload.data() +
                            i * tracefile::recordBytes);
                    if (!engine_.submit(txn, &conn->ticket)) {
                        stopped = true;
                        break;
                    }
                    // Captured exactly when admitted, in admission
                    // order — the file is the bank-order truth the
                    // offline equivalence replay relies on.
                    if (capture)
                        capture->write(txn);
                }
                if (stopped) {
                    err = "server-stop";
                    break;
                }
                conn->frames.fetch_add(1,
                                       std::memory_order_relaxed);
                if (h.flags & flagAck) {
                    uint8_t ack[8];
                    tracefile::putLe64(
                        ack, conn->ticket.accepted.load(
                                 std::memory_order_relaxed));
                    if (!sendFrame(fd, FrameType::Ack, 0,
                                   ack, sizeof ack)) {
                        err = "disconnect";
                        break;
                    }
                }
                if (cfg_.maxWrites &&
                    engine_.totalAccepted() >= cfg_.maxWrites)
                    requestStop();
            } else if (type == FrameType::StatsReq) {
                const std::string json = snapshotJson(false);
                if (!sendFrame(fd, FrameType::StatsReply, 0,
                               json.data(), json.size())) {
                    err = "disconnect";
                    break;
                }
            } else if (type == FrameType::Bye) {
                engine_.drainWait(conn->ticket);
                conn->clean.store(true); // before the summary
                const std::string json = connSummaryJson(*conn);
                sendFrame(fd, FrameType::ByeAck, 0,
                          json.data(), json.size());
                clean = true;
                break;
            } else {
                err = "bad-type";
                break;
            }
        }
    } catch (const std::exception &e) {
        err = "internal";
        (void)e;
    }
    if (!err.empty())
        sendFrame(fd, FrameType::Error, 0, err.data(),
                  err.size()); // best effort
    // Every admitted write must be encoded before the connection is
    // reported closed, so per-connection telemetry is final and the
    // capture (already complete) matches what was encoded.
    engine_.drainWait(conn->ticket);
    if (capture)
        capture->close();
    conn->lastError = err;
    conn->clean.store(clean);
    conn->open.store(false);
    if (!err.empty())
        net_.count(err);
    closed_.fetch_add(1);
}

void
Server::wait()
{
    using clock = std::chrono::steady_clock;
    for (;;) {
        if (stopFlag_.load()) {
            if (stopReason_.empty())
                stopReason_ = cfg_.maxWrites &&
                                      engine_.totalAccepted() >=
                                          cfg_.maxWrites
                                  ? "max-writes"
                                  : "stop-requested";
            break;
        }
        if (cfg_.runSeconds > 0 &&
            std::chrono::duration<double>(clock::now() -
                                          startTime_)
                    .count() >= cfg_.runSeconds) {
            stopReason_ = "run-seconds";
            break;
        }
        if (cfg_.maxConns && closed_.load() >= cfg_.maxConns) {
            stopReason_ = "max-conns";
            break;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(20));
    }
    stopFlag_.store(true);
    shutdownAll();
}

void
Server::shutdownAll()
{
    if (drained_)
        return;
    // Stop accepting, then unblock every reader; each drains its
    // admitted writes, closes its capture file and exits. Only then
    // stop the encode workers: nothing is left to admit, and the
    // queues drain to empty before the join.
    net_.stopAccepting();
    net_.shutdownConns(SHUT_RDWR);
    net_.join();
    engine_.stop();
    stopTime_ = std::chrono::steady_clock::now();
    drained_ = true;
}

runner::ExperimentResult
Server::finalResult() const
{
    return engine_.finalResult();
}

std::string
Server::connSummaryJson(const ConnState &conn) const
{
    std::ostringstream os;
    os << "{\"stream\":" << conn.streamId.load()
       << ",\"accepted\":"
       << conn.ticket.accepted.load(std::memory_order_relaxed)
       << ",\"encoded\":"
       << conn.ticket.encoded.load(std::memory_order_relaxed)
       << ",\"frames\":"
       << conn.frames.load(std::memory_order_relaxed)
       << ",\"clean\":" << (conn.clean.load() ? "true" : "false")
       << ",\"error\":\"" << runner::jsonEscape(conn.lastError)
       << "\"}";
    return os.str();
}

std::string
Server::snapshotJson(bool final) const
{
    const auto banks = engine_.snapshot();
    const trace::ReplayResult merged = engine_.mergedResult();
    // The final report covers the run up to the drain, so repeated
    // calls print the same bytes.
    const double uptime =
        std::chrono::duration<double>(
            (final ? stopTime_ : std::chrono::steady_clock::now()) -
            startTime_)
            .count();
    const uint64_t encoded = engine_.totalEncoded();

    std::ostringstream os;
    os << "{\"serve_version\":1,\"final\":"
       << (final ? "true" : "false") << ",\"scheme\":\""
       << runner::jsonEscape(cfg_.engine.scheme)
       << "\",\"banks\":" << engine_.banks()
       << ",\"seed\":" << cfg_.engine.seed
       << ",\"queue_capacity\":" << cfg_.engine.queueCapacity
       << ",\"uptime_sec\":" << runner::formatDouble(uptime)
       << ",\"accepted\":" << engine_.totalAccepted()
       << ",\"encoded\":" << encoded << ",\"writes_per_sec\":"
       << runner::formatDouble(
              uptime > 0 ? static_cast<double>(encoded) / uptime
                         : 0.0)
       << ",\"energy_cov\":"
       << runner::formatDouble(covOf(merged.energyPj))
       << ",\"disturb_cov\":"
       << runner::formatDouble(covOf(merged.disturbErrors));
    if (!stopReason_.empty())
        os << ",\"stop_reason\":\""
           << runner::jsonEscape(stopReason_) << "\"";

    os << ",\"banks_detail\":[";
    for (std::size_t b = 0; b < banks.size(); ++b) {
        const auto &s = banks[b];
        os << (b ? "," : "") << "{\"bank\":" << b
           << ",\"writes\":" << s.replay.writes
           << ",\"queue_depth\":" << s.queueDepth
           << ",\"stalls\":" << s.stalls;
        if (cfg_.engine.wearEndurance)
            os << ",\"wear_cov\":"
               << runner::formatDouble(s.wearCov);
        os << "}";
    }
    os << "]";

    os << ",\"connections\":[";
    {
        std::lock_guard lock(connMutex_);
        bool first = true;
        for (const auto &conn : conns_) {
            if (!conn->hasHello.load())
                continue; // stats-only probes are not streams
            if (!first)
                os << ",";
            first = false;
            os << "{\"stream\":" << conn->streamId.load()
               << ",\"accepted\":"
               << conn->ticket.accepted.load(
                      std::memory_order_relaxed)
               << ",\"encoded\":"
               << conn->ticket.encoded.load(
                      std::memory_order_relaxed)
               << ",\"frames\":"
               << conn->frames.load(std::memory_order_relaxed)
               << ",\"open\":"
               << (conn->open.load() ? "true" : "false")
               << ",\"clean\":"
               << (conn->clean.load() ? "true" : "false")
               << ",\"error\":\""
               << runner::jsonEscape(conn->open.load()
                                         ? std::string()
                                         : conn->lastError)
               << "\"}";
        }
    }
    os << "]";

    os << ",\"errors\":{";
    bool first = true;
    for (const auto &[name, count] : net_.errorCounts()) {
        os << (first ? "" : ",") << "\""
           << runner::jsonEscape(name) << "\":" << count;
        first = false;
    }
    os << "}";

    // The standard result object (runner/report.hh): for the final
    // snapshot it is the exact merged replay the offline runner can
    // reproduce from a capture; live it merges the seqlock views.
    // Live snapshots never touch the wear trackers (the workers own
    // them); the per-bank wear_cov rows above carry the live signal
    // and the final report adds the exact merged wear block.
    runner::ExperimentResult res;
    if (final) {
        res = finalResult();
    } else {
        res.spec = engine_.spec();
        res.spec.lines = encoded;
        res.spec.device.wearEndurance = 0;
        res.replay = merged;
        res.simdKernel = simd::kernelName(simd::activeKernel());
        res.ok = true;
    }
    os << ",\"result\":";
    runner::writeResultObject(os, res);
    os << "}";
    return os.str();
}

} // namespace wlcrc::serve
