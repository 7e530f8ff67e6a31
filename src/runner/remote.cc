#include "remote.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/parse.hh"
#include "net/conn_server.hh"
#include "net/frame.hh"
#include "runner/json_mini.hh"
#include "runner/report.hh"
#include "runner/spec_codec.hh"
#include "tracefile/format.hh"

namespace wlcrc::runner
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * A parked Pull re-checks its socket for a hangup this often, so a
 * worker that leaves while idle is dropped within one slice.
 */
constexpr std::chrono::milliseconds kParkSlice{100};

/**
 * stop() lets connection threads send their Fin farewell for this
 * long before it shuts down the sockets of any still running.
 */
constexpr std::chrono::seconds kFinGrace{1};

bool
sendF(int fd, WorkFrame type, const void *payload = nullptr,
      std::size_t payloadBytes = 0)
{
    return net::sendFrame(fd, workMagic,
                          static_cast<uint8_t>(type), 0, payload,
                          payloadBytes);
}

net::RecvStatus
recvF(int fd, net::FrameHeader &h, std::vector<uint8_t> &payload)
{
    return net::recvFrame(fd, workMagic, maxWorkPayload, h, payload);
}

void
sendError(int fd, const char *name)
{
    sendF(fd, WorkFrame::Error, name, std::strlen(name));
}

/** Whether the peer on @p fd hung up (zero-timeout poll). */
bool
peerHungUp(int fd)
{
    pollfd p{fd, POLLRDHUP, 0};
    return ::poll(&p, 1, 0) > 0 &&
           (p.revents & (POLLRDHUP | POLLHUP | POLLERR));
}

/** u64 pointId prefix + text body (Work and Result payloads). */
std::vector<uint8_t>
idTextPayload(uint64_t id, const std::string &text)
{
    std::vector<uint8_t> p(8 + text.size());
    tracefile::putLe64(p.data(), id);
    std::memcpy(p.data() + 8, text.data(), text.size());
    return p;
}

} // namespace

std::pair<std::string, uint16_t>
parseHostPort(const std::string &text)
{
    std::string host = "127.0.0.1";
    std::string portText = text;
    if (const auto colon = text.rfind(':');
        colon != std::string::npos) {
        host = text.substr(0, colon);
        portText = text.substr(colon + 1);
    }
    if (host.empty())
        throw std::invalid_argument("bad host:port \"" + text + "\"");
    return {host, parseUint<uint16_t>(portText,
                                      "port of \"" + text + "\"", 1)};
}

// ---------------------------------------------------------------
// Head node
// ---------------------------------------------------------------

struct RemoteBackend::Impl
{
    explicit Impl(RemoteBackendOptions o)
        : opts(std::move(o)),
          server([this](int fd, uint64_t id) {
              connectionLoop(fd, id);
          })
    {
        server.start(opts.port);
    }

    RemoteBackendOptions opts;

    std::mutex mutex;
    /** run()'s wait loop: results, drops, stop(). */
    std::condition_variable cv;
    /**
     * Parked Pulls: a point became Pending, or stop(). Separate from
     * `cv` so a Result does not wake every idle worker's thread.
     */
    std::condition_variable workCv;
    bool finFlag = false;

    /**
     * Serializes every taskDone invocation (connection threads and
     * run()'s inline path) and is never held together with `mutex`,
     * so a callback may block or call back into the backend (e.g.
     * errorCounts()) without stalling or deadlocking the queue.
     */
    std::mutex callbackMutex;
    /** Result callbacks copied out of the lock but not yet run. */
    unsigned callbacksInFlight = 0;

    /** One grid point of the active run. */
    struct Point
    {
        const ExperimentSpec *spec = nullptr;
        std::string text; //!< canonicalSpec(), crosses the wire
        enum class State
        {
            Pending,
            Issued,
            Done
        } state = State::Pending;
        Clock::time_point issuedAt{};
        uint64_t holder = 0; //!< conn id, meaningful while Issued
        unsigned charges = 0; //!< holder-caused requeues so far
        ExperimentResult result;
    };

    /** Queue state of the run in flight; lives on run()'s stack. */
    struct Run
    {
        std::vector<Point> points;
        std::deque<std::size_t> pending;
        std::size_t done = 0;
        const std::function<void()> *taskDone = nullptr;
    };
    Run *active = nullptr;

    /**
     * Protocol state of one connection. It lives on its connection
     * thread's stack; the fd belongs to `server`.
     */
    struct Conn
    {
        uint64_t id = 0;
        bool hello = false;
        std::set<std::size_t> held; //!< point ids issued here
    };
    std::vector<Conn *> conns; //!< registered connections

    std::vector<pid_t> spawned; //!< live (not yet reaped) workers
    unsigned respawnOwed = 0;   //!< one per charged requeue
    bool stopped = false;

    /**
     * Listener, connection threads and fds, and the named error
     * counts. Declared last: destroyed first, while everything its
     * handlers touch is alive.
     */
    net::ConnServer server;

    /**
     * Mark @p p Done with @p res. Lock held; returns the progress
     * callback for the caller to hand to runCallback() once the
     * lock is released (empty when the run registered none).
     */
    std::function<void()>
    completeLocked(Point &p, ExperimentResult res)
    {
        p.result = std::move(res);
        p.state = Point::State::Done;
        ++active->done;
        if (!active->taskDone || !*active->taskDone)
            return {};
        ++callbacksInFlight;
        return *active->taskDone;
    }

    /**
     * Run a callback from completeLocked(). It runs outside the
     * queue lock — it may block or call back into the backend — and
     * run() waits for callbacksInFlight to drain, so a callback
     * never outlives the run() call that registered it. The caller
     * notifies `cv` afterwards.
     */
    void
    runCallback(const std::function<void()> &done)
    {
        if (!done)
            return;
        {
            std::lock_guard cb(callbackMutex);
            done();
        }
        std::lock_guard lock(mutex);
        --callbacksInFlight;
    }

    /** Put point @p id (back) on the queue and wake parked Pulls. */
    void
    enqueueLocked(std::size_t id)
    {
        active->points[id].state = Point::State::Pending;
        active->pending.push_back(id);
        workCv.notify_all();
    }

    /**
     * Charge point @p id one attempt for a requeue its holder
     * caused, and owe the pool one respawn. Within kPointAttempts
     * the point goes back on the queue; the last charge completes
     * it in-band as a poison point. Lock held; returns the callback
     * for runCallback().
     */
    std::function<void()>
    chargeLocked(std::size_t id)
    {
        Point &p = active->points[id];
        ++respawnOwed;
        if (++p.charges < kPointAttempts) {
            enqueueLocked(id);
            return {};
        }
        server.count("poison-point");
        ExperimentResult res;
        res.spec = *p.spec;
        res.error = "remote backend: point lost " +
                    std::to_string(kPointAttempts) + " workers";
        return completeLocked(p, std::move(res));
    }

    /**
     * Put every Issued point older than the deadline back on the
     * queue. Called with the lock held from run()'s periodic wait
     * wake-ups, its only caller: parked Pulls wait on workCv.
     */
    void
    scanStragglersLocked()
    {
        if (!active)
            return;
        const auto now = Clock::now();
        const std::chrono::duration<double> deadline(
            opts.reissueSec);
        for (std::size_t i = 0; i < active->points.size(); ++i) {
            Point &p = active->points[i];
            if (p.state != Point::State::Issued ||
                now - p.issuedAt <= deadline)
                continue;
            enqueueLocked(i);
            server.count("reissued");
            for (Conn *c : conns)
                if (c->id == p.holder)
                    c->held.erase(i);
        }
    }

    /**
     * Issue the next Pending point to @p c. Lock held. @return its
     * Work payload, empty when nothing is pending.
     */
    std::vector<uint8_t>
    issueLocked(Conn &c)
    {
        if (!active)
            return {};
        while (!active->pending.empty()) {
            const std::size_t idx = active->pending.front();
            active->pending.pop_front();
            Point &p = active->points[idx];
            // A queue entry can go stale: a reissued point's first
            // result arrived and won while its requeued entry still
            // sat here. Issuing it again would flip a Done point
            // back to Issued and double-count its completion.
            if (p.state != Point::State::Pending)
                continue;
            p.state = Point::State::Issued;
            p.issuedAt = Clock::now();
            p.holder = c.id;
            c.held.insert(idx);
            return idTextPayload(idx, p.text);
        }
        return {};
    }

    /**
     * Long-poll: answer a Pull with Work as soon as a point is
     * Pending. The wait runs in kParkSlice slices on workCv, and the
     * socket is checked for a hangup before every attempt to take a
     * point, so a worker that leaves while parked is dropped holding
     * nothing (no charge, no "worker-died"). @return false to drop
     * the connection: the peer hung up, or stop() was called (the
     * exit path then sends Fin).
     */
    bool
    handlePull(int fd, Conn &c)
    {
        std::vector<uint8_t> work;
        while (work.empty()) {
            const bool gone = peerHungUp(fd);
            std::unique_lock lock(mutex);
            if (gone || finFlag)
                return false;
            work = issueLocked(c);
            if (work.empty())
                workCv.wait_for(lock, kParkSlice);
        }
        // Sent outside the lock: a worker that stopped reading must
        // block its own connection thread only, never the whole
        // head. A failed send leaves the point Issued here; the
        // disconnect path requeues it.
        sendF(fd, WorkFrame::Work, work.data(), work.size());
        return true;
    }

    /** @return false to drop the connection. */
    bool
    handleResult(int fd, Conn &c, const std::vector<uint8_t> &payload)
    {
        if (payload.size() < 8) {
            server.count("malformed-result");
            sendError(fd, "malformed-result");
            return false;
        }
        const uint64_t id = tracefile::getLe64(payload.data());
        const std::string json(payload.begin() + 8, payload.end());

        std::optional<JsonValue> doc;
        try {
            doc.emplace(parseJson(json));
        } catch (const std::exception &) {
        }

        bool malformed = false;
        std::function<void()> done;
        {
            std::lock_guard lock(mutex);
            c.held.erase(static_cast<std::size_t>(id));
            if (!active || id >= active->points.size()) {
                // Straggler of a finished run racing Fin: harmless.
                server.count("duplicate-result");
                return true;
            }
            Point &p =
                active->points[static_cast<std::size_t>(id)];
            if (p.state == Point::State::Done) {
                // The point was reissued and someone else won.
                // Results are deterministic, so dropping this copy
                // is safe.
                server.count("duplicate-result");
                return true;
            }
            ExperimentResult res;
            malformed = !doc;
            if (doc) {
                try {
                    res = readResultObject(*doc, *p.spec);
                } catch (const std::exception &) {
                    malformed = true;
                }
            }
            if (malformed) {
                server.count("malformed-result");
                if (p.state == Point::State::Issued &&
                    p.holder == c.id)
                    done = chargeLocked(static_cast<std::size_t>(id));
            } else {
                // A reissued point sits in the queue as a Pending
                // entry; its original worker's result winning here
                // must retire that entry, or handlePull would
                // issue the already-Done point again.
                if (p.state == Point::State::Pending) {
                    auto &q = active->pending;
                    q.erase(std::remove(
                                q.begin(), q.end(),
                                static_cast<std::size_t>(id)),
                            q.end());
                }
                // A well-formed ok=false is authoritative — the
                // replay itself failed, identical on any worker —
                // not a worker fault to retry around.
                if (!res.ok)
                    server.count("worker-reported-error");
                done = completeLocked(p, std::move(res));
            }
        }
        runCallback(done);
        cv.notify_all();
        if (malformed) {
            sendError(fd, "malformed-result");
            return false;
        }
        return true;
    }

    /** @return false to drop the connection. */
    bool
    handleCacheGet(int fd, const std::vector<uint8_t> &payload)
    {
        const std::string hash(payload.begin(), payload.end());
        try {
            checkCacheHash(hash);
        } catch (const std::exception &) {
            server.count("bad-cache-hash");
            sendError(fd, "bad-cache-hash");
            return false;
        }
        std::optional<std::string> entry;
        if (opts.serveCache) {
            try {
                entry = opts.serveCache->get(hash);
            } catch (const std::exception &) {
                entry.reset(); // dead store: serve a miss
            }
        }
        if (entry)
            return sendF(fd, WorkFrame::CacheHit, entry->data(),
                         entry->size());
        return sendF(fd, WorkFrame::CacheMiss);
    }

    /** @return false to drop the connection. */
    bool
    handleCachePut(int fd, const std::vector<uint8_t> &payload)
    {
        const std::string hash(
            payload.begin(),
            payload.begin() +
                std::min<std::size_t>(16, payload.size()));
        try {
            checkCacheHash(hash);
        } catch (const std::exception &) {
            server.count("bad-cache-hash");
            sendError(fd, "bad-cache-hash");
            return false;
        }
        const std::string entry(payload.begin() + 16,
                                payload.end());
        if (!opts.serveCache) {
            sendError(fd, "no-cache");
            return true;
        }
        try {
            opts.serveCache->put(hash, entry);
        } catch (const std::exception &) {
            // A full disk costs the entry, never the connection.
            server.count("cache-put-failed");
            sendError(fd, "cache-put-failed");
            return true;
        }
        return sendF(fd, WorkFrame::PutAck);
    }

    void
    connectionLoop(int fd, uint64_t id)
    {
        Conn c;
        c.id = id;
        {
            std::lock_guard lock(mutex);
            if (finFlag)
                return; // accepted mid-stop: closed unserved
            conns.push_back(&c);
        }
        net::FrameHeader h;
        std::vector<uint8_t> payload;
        for (;;) {
            const net::RecvStatus st = recvF(fd, h, payload);
            if (st != net::RecvStatus::Ok) {
                if (st != net::RecvStatus::CleanEof) {
                    server.count(net::recvErrorName(st));
                    sendError(fd, net::recvErrorName(st));
                }
                break;
            }
            if (!c.hello &&
                h.type != static_cast<uint8_t>(WorkFrame::Hello)) {
                server.count("bad-hello");
                sendError(fd, "bad-hello");
                break;
            }
            bool keep = true;
            switch (static_cast<WorkFrame>(h.type)) {
            case WorkFrame::Hello:
                if (payload.size() != 4 ||
                    tracefile::getLe32(payload.data()) !=
                        workProtocolVersion) {
                    server.count("bad-hello");
                    sendError(fd, "bad-hello");
                    keep = false;
                    break;
                }
                c.hello = true;
                break;
            case WorkFrame::Pull:
                keep = handlePull(fd, c);
                break;
            case WorkFrame::Result:
                keep = handleResult(fd, c, payload);
                break;
            case WorkFrame::CacheGet:
                keep = handleCacheGet(fd, payload);
                break;
            case WorkFrame::CachePut:
                keep = handleCachePut(fd, payload);
                break;
            default:
                server.count("bad-frame-type");
                sendError(fd, "bad-frame-type");
                keep = false;
                break;
            }
            if (!keep)
                break;
        }
        // This thread is the fd's only writer, so the shutdown
        // farewell is sent here (not from stop(), which would race
        // our own sends): best-effort — a worker that already hung
        // up sees plain EOF instead, which it equally accepts.
        bool fin = false;
        {
            std::lock_guard lock(mutex);
            fin = finFlag;
        }
        if (fin)
            sendF(fd, WorkFrame::Fin);
        dropConn(c);
    }

    /**
     * Charge a closing connection's issued points and unregister
     * it; `server` closes the fd once connectionLoop() returns.
     */
    void
    dropConn(Conn &c)
    {
        std::vector<std::function<void()>> done;
        {
            std::lock_guard lock(mutex);
            if (active) {
                for (const std::size_t id : c.held) {
                    const Point &p = active->points[id];
                    if (p.state == Point::State::Issued &&
                        p.holder == c.id) {
                        server.count("worker-died");
                        done.push_back(chargeLocked(id));
                    }
                }
            }
            c.held.clear();
            std::erase(conns, &c);
        }
        for (const auto &d : done)
            runCallback(d);
        cv.notify_all();
    }

    /**
     * Fork one local worker. Lock held: it covers `spawned` against
     * a stop() (destructor) racing an in-flight run(). A failed
     * fork spawns nothing; superviseLocked() then sees one worker
     * fewer, and run() fails in-band once none is left.
     */
    void
    spawnOneLocked()
    {
        const std::string connectArg =
            "127.0.0.1:" + std::to_string(server.port());
        const pid_t pid = ::fork();
        if (pid < 0)
            return;
        if (pid == 0) {
            // The head's own stdout is the byte-compared report
            // stream — a child must not share it even though
            // wlcrc_worker is stdout-silent by design.
            ::dup2(STDERR_FILENO, STDOUT_FILENO);
            ::execlp(opts.workerBinary.c_str(),
                     opts.workerBinary.c_str(), "--connect",
                     connectArg.c_str(), static_cast<char *>(nullptr));
            ::_exit(127);
        }
        spawned.push_back(pid);
    }

    void
    spawnWorkers(unsigned jobs)
    {
        std::lock_guard lock(mutex);
        if (opts.workerBinary.empty() || !spawned.empty())
            return;
        unsigned n = opts.spawnWorkers;
        if (n == 0)
            n = jobs ? jobs : std::thread::hardware_concurrency();
        for (unsigned i = 0; i < std::max(1u, n); ++i)
            spawnOneLocked();
    }

    /**
     * Reap spawned workers that exited and respawn one per charged
     * requeue (so respawns stay within points x kPointAttempts).
     * Lock held. @return whether anyone can still serve the queue:
     * a spawned worker alive or an open connection. A head that
     * spawns nothing always answers yes — external workers may
     * connect at any time.
     */
    bool
    superviseLocked()
    {
        if (opts.workerBinary.empty())
            return true;
        std::erase_if(spawned, [](pid_t pid) {
            return ::waitpid(pid, nullptr, WNOHANG) != 0;
        });
        for (; respawnOwed > 0; --respawnOwed)
            spawnOneLocked();
        return !spawned.empty() || !conns.empty();
    }

    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs, unsigned jobs,
        const std::function<void()> &taskDone)
    {
        std::vector<ExperimentResult> results(specs.size());

        Run r;
        std::vector<std::size_t> slot; // point k -> specs index
        std::vector<std::size_t> inline_;
        bool stoppedNow = false;
        {
            std::lock_guard lock(mutex);
            stoppedNow = finFlag;
        }
        for (std::size_t i = 0; i < specs.size(); ++i) {
            // After stop() no worker will ever answer; everything
            // degrades to the inline path rather than hanging.
            if (!stoppedNow && processSerializable(specs[i])) {
                Point p;
                p.spec = &specs[i];
                p.text = canonicalSpec(specs[i]);
                r.points.push_back(std::move(p));
                slot.push_back(i);
            } else {
                inline_.push_back(i);
            }
        }
        for (std::size_t k = 0; k < r.points.size(); ++k)
            r.pending.push_back(k);
        r.taskDone = &taskDone;

        if (!r.points.empty()) {
            {
                std::lock_guard lock(mutex);
                active = &r;
            }
            workCv.notify_all(); // publish: parked Pulls take points
            spawnWorkers(jobs);
        }

        // Hook-bearing / in-memory specs run here while the
        // cluster chews on the serializable ones.
        for (const std::size_t i : inline_) {
            results[i] = runSpecSerial(specs[i]);
            if (taskDone) {
                std::lock_guard cb(callbackMutex);
                taskDone();
            }
        }

        if (!r.points.empty()) {
            std::unique_lock lock(mutex);
            // Draining callbacksInFlight before returning keeps
            // the caller's taskDone (and whatever it captures)
            // alive for every invocation.
            bool live = true;
            while (((r.done < r.points.size() && live) ||
                    callbacksInFlight > 0) &&
                   !finFlag) {
                scanStragglersLocked();
                if (live && !superviseLocked()) {
                    live = false;
                    server.count("no-live-workers");
                    continue;
                }
                cv.wait_for(lock,
                            std::chrono::milliseconds(100));
            }
            active = nullptr;
            respawnOwed = 0; // respawns serve this run only
            for (std::size_t k = 0; k < r.points.size(); ++k) {
                Point &p = r.points[k];
                if (p.state == Point::State::Done) {
                    results[slot[k]] = std::move(p.result);
                } else {
                    ExperimentResult &res = results[slot[k]];
                    res.spec = *p.spec;
                    res.ok = false;
                    res.error =
                        live ? "remote backend stopped before the "
                               "point completed"
                             : "remote backend: no live workers "
                               "(spawned workers exited or never "
                               "started)";
                }
            }
        }
        return results;
    }

    void
    stop()
    {
        std::vector<pid_t> pids;
        {
            std::lock_guard lock(mutex);
            if (stopped)
                return;
            stopped = true;
            finFlag = true;
            pids.swap(spawned);
        }
        cv.notify_all();
        workCv.notify_all(); // parked Pulls leave; their exits say Fin

        // Half-close only: the read shutdown breaks each
        // connection thread's recv (and reads as a hangup to a
        // parked Pull), while the intact write side lets that
        // thread — the fd's sole writer — send the Fin farewell
        // itself on its way out. stop() never writes, so frames
        // cannot interleave. Each thread gets kFinGrace to say Fin
        // and return; then SHUT_RDWR frees any still stuck mid-send
        // to a peer that stopped reading.
        server.stopAccepting();
        server.shutdownConns(SHUT_RD);
        if (!server.waitIdle(kFinGrace))
            server.shutdownConns(SHUT_RDWR);
        server.join();

        // Spawned workers exit on Fin / the dropped connection; a
        // hung one (fault injection) gets a SIGKILL after a short
        // grace so stop() always returns.
        const auto deadline =
            Clock::now() + std::chrono::seconds(5);
        for (const pid_t pid : pids) {
            for (;;) {
                const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
                if (r == pid || (r < 0 && errno == ECHILD))
                    break;
                if (Clock::now() >= deadline) {
                    ::kill(pid, SIGKILL);
                    ::waitpid(pid, nullptr, 0);
                    break;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            }
        }
    }
};

RemoteBackend::RemoteBackend(RemoteBackendOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts)))
{}

RemoteBackend::~RemoteBackend()
{
    impl_->stop();
}

std::size_t
RemoteBackend::taskCount(
    const std::vector<ExperimentSpec> &specs) const
{
    return specs.size();
}

std::vector<ExperimentResult>
RemoteBackend::run(const std::vector<ExperimentSpec> &specs,
                   unsigned jobs,
                   const std::function<void()> &taskDone) const
{
    return impl_->run(specs, jobs, taskDone);
}

uint16_t
RemoteBackend::port() const
{
    return impl_->server.port();
}

void
RemoteBackend::stop()
{
    impl_->stop();
}

std::map<std::string, uint64_t>
RemoteBackend::errorCounts() const
{
    return impl_->server.errorCounts();
}

// ---------------------------------------------------------------
// Worker
// ---------------------------------------------------------------

WorkerStats
runWorkerLoop(const WorkerOptions &opts)
{
    const int fd = net::connectTcp(opts.host, opts.port);
    uint8_t hello[4];
    tracefile::putLe32(hello, workProtocolVersion);
    if (!sendF(fd, WorkFrame::Hello, hello, sizeof hello)) {
        ::close(fd);
        throw std::runtime_error("worker: head hung up on Hello");
    }

    WorkerStats stats;
    net::FrameHeader h;
    std::vector<uint8_t> payload;
    int works = 0;
    for (;;) {
        if (!sendF(fd, WorkFrame::Pull))
            break;
        const net::RecvStatus st = recvF(fd, h, payload);
        if (st != net::RecvStatus::Ok)
            break;
        const auto type = static_cast<WorkFrame>(h.type);
        if (type == WorkFrame::Fin || type == WorkFrame::Error)
            break;
        if (type != WorkFrame::Work || payload.size() < 8)
            break; // head speaking a different dialect: bail out
        ++works;
        if (opts.killAfter >= 0 && works >= opts.killAfter)
            ::raise(SIGKILL); // fault injection: die mid-point
        if (opts.hangAfter >= 0 && works >= opts.hangAfter)
            for (;;) // fault injection: hold the point forever
                std::this_thread::sleep_for(
                    std::chrono::hours(1));

        const uint64_t id = tracefile::getLe64(payload.data());
        const std::string text(payload.begin() + 8,
                               payload.end());
        ExperimentResult res;
        try {
            res = runSpecSerial(parseSpec(text));
        } catch (const std::exception &e) {
            res.ok = false;
            res.error = e.what();
        }
        std::ostringstream os;
        writeResultObject(os, res);
        const std::vector<uint8_t> reply =
            idTextPayload(id, os.str());
        ++stats.pointsRun;
        if (!res.ok)
            ++stats.failures;
        if (!sendF(fd, WorkFrame::Result, reply.data(),
                   reply.size()))
            break;
    }
    ::close(fd);
    return stats;
}

// ---------------------------------------------------------------
// Remote cache client
// ---------------------------------------------------------------

RemoteCacheStore::RemoteCacheStore(const std::string &host,
                                   uint16_t port)
{
    fd_ = net::connectTcp(host, port);
    uint8_t hello[4];
    tracefile::putLe32(hello, workProtocolVersion);
    if (!sendF(fd_, WorkFrame::Hello, hello, sizeof hello)) {
        ::close(fd_);
        fd_ = -1;
        throw std::runtime_error(
            "remote cache: head hung up on Hello");
    }
}

RemoteCacheStore::~RemoteCacheStore()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::optional<std::string>
RemoteCacheStore::get(const std::string &hashHex)
{
    checkCacheHash(hashHex);
    std::lock_guard lock(mutex_);
    if (!sendF(fd_, WorkFrame::CacheGet, hashHex.data(),
               hashHex.size()))
        throw std::runtime_error("remote cache: send failed");
    net::FrameHeader h;
    if (recvF(fd_, h, payload_) != net::RecvStatus::Ok)
        throw std::runtime_error("remote cache: recv failed");
    switch (static_cast<WorkFrame>(h.type)) {
    case WorkFrame::CacheHit:
        return std::string(payload_.begin(), payload_.end());
    case WorkFrame::CacheMiss:
        return std::nullopt;
    default:
        throw std::runtime_error(
            "remote cache: unexpected reply (" +
            std::string(payload_.begin(), payload_.end()) + ")");
    }
}

void
RemoteCacheStore::put(const std::string &hashHex,
                      const std::string &entry)
{
    checkCacheHash(hashHex);
    std::vector<uint8_t> payload(16 + entry.size());
    std::memcpy(payload.data(), hashHex.data(), 16);
    std::memcpy(payload.data() + 16, entry.data(), entry.size());
    std::lock_guard lock(mutex_);
    if (!sendF(fd_, WorkFrame::CachePut, payload.data(),
               payload.size()))
        throw std::runtime_error("remote cache: send failed");
    net::FrameHeader h;
    if (recvF(fd_, h, payload_) != net::RecvStatus::Ok)
        throw std::runtime_error("remote cache: recv failed");
    if (static_cast<WorkFrame>(h.type) != WorkFrame::PutAck)
        throw std::runtime_error(
            "remote cache: put rejected (" +
            std::string(payload_.begin(), payload_.end()) + ")");
}

} // namespace wlcrc::runner
