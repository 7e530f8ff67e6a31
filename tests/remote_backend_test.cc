/**
 * @file
 * Distributed-backend equivalence and fault injection. The identity
 * half pins the contract that RemoteBackend only relocates work:
 * the same grid — synthesized, trace-sourced, leveled, lifetime —
 * produces byte-identical reports under serial, thread, process and
 * remote execution, at one worker and at four. The fault half
 * proves the sweep's bytes survive a hostile cluster: workers
 * SIGKILLed mid-point, workers hanging past the reissue deadline,
 * in-band ok=false results, clients speaking garbage, and points
 * that kill every worker they reach — each mapped to a named error
 * counter, never to a wrong or missing row, and never to a hang.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include "net/frame.hh"
#include "runner/backend.hh"
#include "runner/grid.hh"
#include "runner/remote.hh"
#include "runner/report.hh"
#include "runner/runner.hh"
#include "runner/spec_codec.hh"
#include "subprocess.hh"
#include "tracefile/format.hh"
#include "tracefile/source.hh"
#include "tracefile/writer.hh"
#include "wearlevel/config.hh"
#include "wlcrc/factory.hh"

namespace
{

using namespace wlcrc;
using runner::ExperimentGrid;
using runner::ExperimentResult;
using runner::ExperimentRunner;
using runner::ExperimentSpec;
using runner::RemoteBackend;
using runner::RemoteBackendOptions;
using runner::RunnerOptions;
using runner::ThreadBackend;
using runner::WorkFrame;

std::string
csvOf(const std::vector<ExperimentResult> &results)
{
    std::ostringstream os;
    runner::CsvReporter().write(os, results);
    return os.str();
}

ExperimentGrid
smallGrid()
{
    return ExperimentGrid()
        .schemes({"Baseline", "WLCRC-16"})
        .workloads({"lesl", "gcc"})
        .lines(60)
        .seed(3)
        .shards(3);
}

std::string
runWith(std::shared_ptr<const runner::ExecutionBackend> backend,
        const ExperimentGrid &grid, unsigned jobs = 2)
{
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.backend = std::move(backend);
    return csvOf(ExperimentRunner(opts).run(grid));
}

/** Head that spawns its own local workers. */
std::shared_ptr<RemoteBackend>
spawningHead(unsigned workers, double reissueSec = 30.0,
             const std::string &workerBinary = WLCRC_WORKER_BIN)
{
    RemoteBackendOptions opts;
    opts.workerBinary = workerBinary;
    opts.spawnWorkers = workers;
    opts.reissueSec = reissueSec;
    return std::make_shared<RemoteBackend>(std::move(opts));
}

/** Head with no workers of its own — tests attach their own. */
std::shared_ptr<RemoteBackend>
bareHead(double reissueSec = 30.0)
{
    RemoteBackendOptions opts;
    opts.reissueSec = reissueSec;
    return std::make_shared<RemoteBackend>(std::move(opts));
}

/** Launch an external wlcrc_worker against @p head. */
pid_t
spawnWorker(const RemoteBackend &head,
            const std::string &extraFlags = "")
{
    return test::spawnBackground(
        "exec " + std::string(WLCRC_WORKER_BIN) +
        " --connect 127.0.0.1:" + std::to_string(head.port()) +
        " " + extraFlags + " 2>/dev/null");
}

/**
 * Raw WRK1 client socket for hostile-peer tests. Receives time out
 * after 20 s, so a reply that never comes fails the test rather
 * than hanging the suite.
 */
int
rawConnect(uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_TRUE(test::connectLoopback(fd, port));
    timeval tv{};
    tv.tv_sec = 20;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    return fd;
}

void
sendHello(int fd)
{
    uint8_t v[4];
    tracefile::putLe32(v, runner::workProtocolVersion);
    net::sendFrame(fd, runner::workMagic,
                   static_cast<uint8_t>(WorkFrame::Hello), 0, v,
                   sizeof v);
}

void
sendPull(int fd)
{
    net::sendFrame(fd, runner::workMagic,
                   static_cast<uint8_t>(WorkFrame::Pull), 0, nullptr,
                   0);
}

/** Block for one frame; its type, or 0 when none arrived. */
uint8_t
recvType(int fd, std::vector<uint8_t> &payload)
{
    net::FrameHeader h;
    return net::recvFrame(fd, runner::workMagic,
                          runner::maxWorkPayload, h, payload) ==
                   net::RecvStatus::Ok
               ? h.type
               : 0;
}

/** Block for the answer to a sent Pull; {pointId, spec text}. */
std::pair<uint64_t, std::string>
recvWork(int fd)
{
    std::vector<uint8_t> payload;
    if (recvType(fd, payload) ==
            static_cast<uint8_t>(WorkFrame::Work) &&
        payload.size() >= 8)
        return {tracefile::getLe64(payload.data()),
                std::string(payload.begin() + 8, payload.end())};
    ADD_FAILURE() << "the Pull was not answered with Work";
    return {UINT64_MAX, ""};
}

/** One Pull, answered (the head long-polls) with Work. */
std::pair<uint64_t, std::string>
pullWork(int fd)
{
    sendPull(fd);
    return recvWork(fd);
}

/**
 * Prove the head is serving @p fd's connection: a CacheGet round
 * trip (a head without a served cache always misses).
 */
void
expectServed(int fd)
{
    const std::string hash = "0123456789abcdef";
    net::sendFrame(fd, runner::workMagic,
                   static_cast<uint8_t>(WorkFrame::CacheGet), 0,
                   hash.data(), hash.size());
    std::vector<uint8_t> payload;
    EXPECT_EQ(recvType(fd, payload),
              static_cast<uint8_t>(WorkFrame::CacheMiss));
}

/** Whether any byte arrives on @p fd within @p ms. */
bool
replyWithin(int fd, int ms)
{
    pollfd p{fd, POLLIN, 0};
    return ::poll(&p, 1, ms) > 0;
}

/** A one-point sweep small enough to replay in the test itself. */
std::vector<ExperimentSpec>
onePoint()
{
    ExperimentSpec s;
    s.scheme = "Baseline";
    s.workload = "lesl";
    s.lines = 40;
    return {s};
}

/** Honestly replay @p specText and send its Result for @p id. */
void
sendResultFor(int fd, uint64_t id, const std::string &specText)
{
    const runner::ExperimentResult r =
        runner::runSpecSerial(runner::parseSpec(specText));
    std::ostringstream os;
    runner::writeResultObject(os, r);
    const std::string json = os.str();
    std::vector<uint8_t> p(8 + json.size());
    tracefile::putLe64(p.data(), id);
    std::memcpy(p.data() + 8, json.data(), json.size());
    net::sendFrame(fd, runner::workMagic,
                   static_cast<uint8_t>(WorkFrame::Result), 0,
                   p.data(), p.size());
}

/** head.run(@p specs) on its own thread; collect with joinRun(). */
std::future<std::vector<ExperimentResult>>
startRun(RemoteBackend &head, std::vector<ExperimentSpec> specs,
         unsigned jobs = 1)
{
    return std::async(std::launch::async,
                      [&head, specs = std::move(specs), jobs] {
                          return head.run(specs, jobs, {});
                      });
}

/**
 * Collect a startRun() that cannot hang the suite: if it has not
 * returned within a minute, fail the test and stop() the head,
 * which fails whatever is left in-band and releases run().
 */
std::vector<ExperimentResult>
joinRun(RemoteBackend &head,
        std::future<std::vector<ExperimentResult>> &sweep)
{
    if (sweep.wait_for(std::chrono::minutes(1)) !=
        std::future_status::ready) {
        ADD_FAILURE() << "run() did not return; stopping the head";
        head.stop();
    }
    return sweep.get();
}

/**
 * Stops the head when it goes out of scope. Declared after a
 * startRun() future, it releases run() before the future's
 * destructor waits for it, should the test bail out early.
 */
struct StopAtExit
{
    RemoteBackend &head;
    ~StopAtExit() { head.stop(); }
};

/** head.run(@p specs), bounded as joinRun() is. */
std::vector<ExperimentResult>
runOrStop(RemoteBackend &head, const std::vector<ExperimentSpec> &specs,
          unsigned jobs)
{
    auto sweep = startRun(head, specs, jobs);
    return joinRun(head, sweep);
}

using Counts = std::map<std::string, uint64_t>;

/** Wait (bounded) until @p counter appears in the head's counts. */
bool
waitForCounter(const RemoteBackend &head, const std::string &name,
               int maxMs = 5000)
{
    for (int waited = 0; waited < maxMs; waited += 10) {
        if (head.errorCounts().count(name))
            return true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(10));
    }
    return false;
}

// ----------------------------------------------------------------
// Byte-identity matrix
// ----------------------------------------------------------------

TEST(RemoteBackend, MatchesEveryOtherBackendOnTheSameGrid)
{
    const auto grid = smallGrid();
    const std::string thread =
        runWith(std::make_shared<ThreadBackend>(), grid);
    EXPECT_EQ(runWith(std::make_shared<runner::SerialBackend>(),
                      grid),
              thread);
    EXPECT_EQ(runWith(runner::makeBackend("process",
                                          WLCRC_WORKER_BIN),
                      grid),
              thread);
    EXPECT_EQ(runWith(spawningHead(1), grid), thread)
        << "one remote worker";
    EXPECT_EQ(runWith(spawningHead(4), grid), thread)
        << "four remote workers";
}

TEST(RemoteBackend, ReplaysTraceFilesByteIdentically)
{
    namespace fs = std::filesystem;
    const fs::path path =
        fs::path(::testing::TempDir()) / "wlcrc_remote.trc";
    {
        tracefile::TraceFileWriter w(path.string(), {16});
        trace::WriteTransaction t{};
        for (uint64_t i = 0; i < 80; ++i) {
            t.lineAddr = (i * 7) % 23;
            t.newData.setWord(0, i * 0x9e3779b97f4a7c15ULL);
            w.write(t);
        }
        w.close();
    }
    const auto grid =
        ExperimentGrid()
            .schemes({"Baseline", "WLCRC-16"})
            .sources({tracefile::openTraceSource(path.string())})
            .seed(5)
            .shards(4);
    EXPECT_EQ(runWith(spawningHead(4), grid),
              runWith(std::make_shared<ThreadBackend>(), grid));
}

TEST(RemoteBackend, LeveledLifetimeSweepIsByteIdentical)
{
    const auto grid =
        ExperimentGrid()
            .schemes({"Baseline", "WLCRC-16"})
            .workloads({"gcc"})
            .lines(150)
            .seed(3)
            .levelers({wearlevel::parseLeveler("none"),
                       wearlevel::parseLeveler("start-gap:p8:r16")})
            .endurances({wearlevel::parseEndurance("80:0.2")})
            .lifetime();
    const std::string thread =
        runWith(std::make_shared<ThreadBackend>(), grid);
    EXPECT_EQ(runWith(spawningHead(1), grid), thread);
    EXPECT_EQ(runWith(spawningHead(4), grid), thread);
}

TEST(RemoteBackend, JsonReportsAreByteIdentical)
{
    const auto grid = smallGrid();
    RunnerOptions opts;
    opts.jobs = 2;
    auto jsonOf = [&](std::shared_ptr<const runner::ExecutionBackend>
                          backend) {
        opts.backend = std::move(backend);
        std::ostringstream os;
        runner::JsonReporter().write(
            os, ExperimentRunner(opts).run(grid));
        return os.str();
    };
    EXPECT_EQ(jsonOf(spawningHead(2)),
              jsonOf(std::make_shared<ThreadBackend>()));
}

TEST(RemoteBackend, FallsBackInlineForClosureSpecs)
{
    std::vector<runner::SchemeDef> defs = {
        {"factory-baseline", [](const pcm::EnergyModel &e) {
             return core::makeCodec("Baseline", e);
         }}};
    const auto grid = ExperimentGrid()
                          .schemeDefs(defs)
                          .workloads({"lesl"})
                          .lines(50)
                          .seed(2)
                          .shards(2);
    EXPECT_EQ(runWith(spawningHead(2), grid),
              runWith(std::make_shared<ThreadBackend>(), grid));
}

TEST(RemoteBackend, MakeBackendWiresTheRemoteName)
{
    const auto backend =
        runner::makeBackend("remote", WLCRC_WORKER_BIN);
    EXPECT_EQ(backend->name(), std::string("remote"));
    EXPECT_EQ(runWith(backend, smallGrid()),
              runWith(std::make_shared<ThreadBackend>(),
                      smallGrid()));
    EXPECT_THROW(runner::makeBackend("remote"),
                 std::invalid_argument);
}

TEST(RemoteBackend, HeadCliRunIsByteIdenticalToThreadCli)
{
    // End to end through wlcrc_sim: a remote-head sweep's stdout
    // must equal the stock thread backend's, byte for byte.
    const std::string base =
        std::string(WLCRC_SIM_BIN) +
        " --scheme Baseline --scheme WLCRC-16 --workload lesl"
        " --lines 60 --seed 3 --shards 3";
    int rcThread = 0, rcRemote = 0;
    const std::string threadOut = test::captureStdout(
        base + " 2>/dev/null", rcThread);
    const std::string remoteOut = test::captureStdout(
        "WLCRC_WORKER_BIN=" + std::string(WLCRC_WORKER_BIN) + " " +
            base + " --backend remote --workers 2 2>/dev/null",
        rcRemote);
    EXPECT_EQ(rcThread, 0);
    EXPECT_EQ(rcRemote, 0);
    EXPECT_EQ(remoteOut, threadOut);
    EXPECT_FALSE(remoteOut.empty());
}

TEST(RemoteBackend, CliListenZeroPicksAnEphemeralPort)
{
    // --listen 0 is the documented way to let the kernel pick the
    // head's port; the banner names the port it got.
    const std::string errFile =
        ::testing::TempDir() + "wlcrc_listen0.err";
    const std::string base =
        std::string(WLCRC_SIM_BIN) +
        " --workload lesl --lines 50 --scheme Baseline";
    int rcThread = 0, rcRemote = 0;
    const std::string threadOut = test::captureStdout(
        base + " --backend thread 2>/dev/null", rcThread);
    const std::string remoteOut = test::captureStdout(
        "WLCRC_WORKER_BIN=" + std::string(WLCRC_WORKER_BIN) + " " +
            base + " --backend remote --listen 0 --workers 1 2>" +
            errFile,
        rcRemote);
    std::stringstream err;
    err << std::ifstream(errFile).rdbuf();
    const std::string banner = "head listening on 127.0.0.1:";
    const auto at = err.str().find(banner);
    ASSERT_NE(at, std::string::npos) << err.str();
    EXPECT_GT(std::stoul(err.str().substr(at + banner.size())), 0u);
    EXPECT_EQ(rcThread, 0);
    EXPECT_EQ(rcRemote, 0) << err.str();
    EXPECT_EQ(remoteOut, threadOut);
    EXPECT_FALSE(remoteOut.empty());
}

TEST(RemoteBackend, SimdChoiceReachesSpawnedWorkers)
{
    // wlcrc_sim --simd exports the kernel; a spawned worker must
    // replay with it, not re-resolve its own default.
    const std::string base =
        "WLCRC_WORKER_BIN=" + std::string(WLCRC_WORKER_BIN) + " " +
        WLCRC_SIM_BIN +
        " --scheme Baseline --scheme WLCRC-16 --workload lesl"
        " --lines 60 --json --simd scalar";
    for (const std::string backend :
         {"--backend process", "--backend remote --workers 2"}) {
        int rc = 0;
        const std::string out = test::captureStdout(
            base + " " + backend + " 2>/dev/null", rc);
        EXPECT_EQ(rc, 0) << backend;
        const auto count = [&](const std::string &needle) {
            std::size_t n = 0;
            for (auto at = out.find(needle); at != std::string::npos;
                 at = out.find(needle, at + 1))
                ++n;
            return n;
        };
        EXPECT_EQ(count("\"simd\":"), 2u) << backend << "\n" << out;
        EXPECT_EQ(count("\"simd\":\"scalar\""), 2u)
            << backend << "\n" << out;
    }
}

// ----------------------------------------------------------------
// Fault injection
// ----------------------------------------------------------------

TEST(RemoteFaults, WorkerKilledMidPointIsReissuedToAnother)
{
    const auto grid = smallGrid();
    const std::string expect =
        runWith(std::make_shared<ThreadBackend>(), grid);

    auto head = bareHead();
    // The saboteur SIGKILLs itself on its first Work frame. It is
    // the only worker until the head has actually counted its death
    // — so it is guaranteed to receive (and die holding) a point —
    // and only then does the rescue thread attach the healthy
    // worker that must absorb the requeued work.
    const pid_t saboteur =
        spawnWorker(*head, "--kill-after 1");
    pid_t healthy = -1;
    std::thread rescue([&] {
        waitForCounter(*head, "worker-died", /*maxMs=*/20000);
        healthy = spawnWorker(*head);
    });

    EXPECT_EQ(runWith(head, grid), expect);
    rescue.join();
    const auto counts = head->errorCounts();
    ASSERT_TRUE(counts.count("worker-died"));
    EXPECT_GE(counts.at("worker-died"), 1u);

    head->stop();
    test::reap(saboteur);
    test::reap(healthy);
}

TEST(RemoteFaults, HungWorkerPastDeadlineIsReissued)
{
    const auto grid = smallGrid();
    const std::string expect =
        runWith(std::make_shared<ThreadBackend>(), grid);

    auto head = bareHead(/*reissueSec=*/0.3);
    // The saboteur hangs on its first Work frame. It stays the
    // only worker until the head has actually reissued its held
    // point — a fast healthy worker could otherwise drain the
    // whole queue before the saboteur's first successful Pull —
    // and only then does the rescue thread attach the healthy
    // worker that must absorb the requeued work.
    const pid_t hung = spawnWorker(*head, "--hang-after 1");
    pid_t healthy = -1;
    std::thread rescue([&] {
        waitForCounter(*head, "reissued", /*maxMs=*/20000);
        healthy = spawnWorker(*head);
    });

    EXPECT_EQ(runWith(head, grid), expect);
    rescue.join();
    const auto counts = head->errorCounts();
    ASSERT_TRUE(counts.count("reissued"));
    EXPECT_GE(counts.at("reissued"), 1u);

    head->stop();
    test::killAndReap(hung); // still asleep on its held point
    test::reap(healthy);
}

TEST(RemoteFaults, WorkerErrorResultsAreAuthoritativeNotRetried)
{
    ExperimentSpec good;
    good.scheme = "Baseline";
    good.workload = "lesl";
    good.lines = 40;
    ExperimentSpec bad = good;
    bad.scheme = "no-such-scheme";

    auto head = spawningHead(2);
    RunnerOptions opts;
    opts.jobs = 2;
    opts.backend = head;
    const auto results = ExperimentRunner(opts).run({good, bad});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("no-such-scheme"),
              std::string::npos)
        << results[1].error;
    const auto counts = head->errorCounts();
    ASSERT_TRUE(counts.count("worker-reported-error"));
    EXPECT_EQ(counts.at("worker-reported-error"), 1u);
    EXPECT_FALSE(counts.count("worker-died"));
    EXPECT_FALSE(counts.count("reissued"));
}

TEST(RemoteFaults, GarbageBytesAreCountedAndConnectionDropped)
{
    auto head = bareHead();
    const int fd = rawConnect(head->port());
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(net::writeAll(fd, junk, sizeof junk - 1));
    EXPECT_TRUE(waitForCounter(*head, "bad-magic"));
    // The head answers with a named Error frame before closing.
    char buf[256];
    std::string reply;
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n <= 0)
            break;
        reply.append(buf, static_cast<std::size_t>(n));
    }
    EXPECT_NE(reply.find("bad-magic"), std::string::npos);
    ::close(fd);

    // ...and the head still serves a full sweep afterwards.
    const pid_t worker = spawnWorker(*head);
    EXPECT_EQ(runWith(head, smallGrid()),
              runWith(std::make_shared<ThreadBackend>(),
                      smallGrid()));
    head->stop();
    test::reap(worker);
}

TEST(RemoteFaults, PullBeforeHelloIsRejected)
{
    auto head = bareHead();
    const int fd = rawConnect(head->port());
    net::sendFrame(fd, runner::workMagic,
                   static_cast<uint8_t>(WorkFrame::Pull), 0,
                   nullptr, 0);
    EXPECT_TRUE(waitForCounter(*head, "bad-hello"));
    ::close(fd);
}

TEST(RemoteFaults, UnknownFrameTypeAfterHelloIsRejected)
{
    auto head = bareHead();
    const int fd = rawConnect(head->port());
    sendHello(fd);
    net::sendFrame(fd, runner::workMagic, 250, 0, nullptr, 0);
    EXPECT_TRUE(waitForCounter(*head, "bad-frame-type"));
    ::close(fd);
}

TEST(RemoteFaults, OversizedFrameIsRejected)
{
    auto head = bareHead();
    const int fd = rawConnect(head->port());
    sendHello(fd);
    // A header promising 512 MiB must be refused outright, not
    // buffered: send the header alone and watch the counter.
    uint8_t header[net::frameHeaderBytes];
    net::FrameHeader h;
    h.type = static_cast<uint8_t>(WorkFrame::Result);
    h.payloadBytes = 512u << 20;
    net::encodeFrameHeader(header, runner::workMagic, h);
    ASSERT_TRUE(net::writeAll(fd, header, sizeof header));
    EXPECT_TRUE(waitForCounter(*head, "oversized-frame"));
    ::close(fd);
}

TEST(RemoteFaults, TruncatedFrameIsCounted)
{
    auto head = bareHead();
    const int fd = rawConnect(head->port());
    sendHello(fd);
    uint8_t header[net::frameHeaderBytes];
    net::FrameHeader h;
    h.type = static_cast<uint8_t>(WorkFrame::Result);
    h.payloadBytes = 64; // promised, never sent
    net::encodeFrameHeader(header, runner::workMagic, h);
    ASSERT_TRUE(net::writeAll(fd, header, sizeof header));
    ::shutdown(fd, SHUT_WR);
    EXPECT_TRUE(waitForCounter(*head, "truncated-frame"));
    ::close(fd);
}

TEST(RemoteFaults, AcceptSurvivesFdExhaustion)
{
    auto head = bareHead();
    // Serve one connection first, so the accept loop and a handler
    // have run before the process is starved: under UBSan a thread's
    // first virtual call probes memory through a pipe, which fails
    // (a false "invalid vptr") with no descriptor free. It stays
    // open, so no server-side close can free a descriptor.
    const int warm = rawConnect(head->port());
    sendHello(warm);
    expectServed(warm);

    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    {
        // No descriptor is free once the socket exists, so the
        // head's accept() of this very connection fails with EMFILE
        // and leaves it queued.
        test::NoFreeFd limit(fd);
        ASSERT_TRUE(limit.exhausted);
        ASSERT_TRUE(test::connectLoopback(fd, head->port()));
        EXPECT_TRUE(waitForCounter(*head, "accept-failed"));
    }
    // Descriptors are back: the next retry must serve the queued
    // connection.
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sendHello(fd);
    expectServed(fd);
    EXPECT_GE(head->errorCounts()["accept-failed"], 1u);
    ::close(fd);
    ::close(warm);
}

TEST(RemoteFaults, MalformedResultRequeuesThePoint)
{
    auto head = bareHead();

    RunnerOptions opts;
    opts.jobs = 1;
    opts.backend = head;
    const auto grid = ExperimentGrid()
                          .schemes({"Baseline"})
                          .workloads({"lesl"})
                          .lines(40)
                          .seed(1);
    std::vector<ExperimentResult> results;
    std::thread sweep([&] {
        results = ExperimentRunner(opts).run(grid);
    });

    // A hostile client pulls the point and answers with garbage
    // JSON; the head must requeue it for the honest worker. The
    // Pull long-polls until the sweep's point is issued to us.
    const int fd = rawConnect(head->port());
    sendHello(fd);
    std::vector<uint8_t> reply(8);
    tracefile::putLe64(reply.data(), pullWork(fd).first);
    const char junk[] = "this is not json";
    reply.insert(reply.end(), junk, junk + sizeof junk - 1);
    net::sendFrame(fd, runner::workMagic,
                   static_cast<uint8_t>(WorkFrame::Result), 0,
                   reply.data(), reply.size());
    EXPECT_TRUE(waitForCounter(*head, "malformed-result"));
    ::close(fd);

    const pid_t worker = spawnWorker(*head);
    sweep.join();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok);
    head->stop();
    test::reap(worker);
}

TEST(RemoteFaults, LateResultOfReissuedPointRetiresItsQueueEntry)
{
    // Regression: reissuing a point queues a fresh Pending entry;
    // when the original slow-but-alive worker's result then
    // arrives and wins, that entry goes stale. Handing it out
    // anyway flipped the Done point back to Issued — completion
    // was double-counted and a finished row could be reported as
    // "remote backend stopped".
    auto head = bareHead(/*reissueSec=*/0.3);

    ExperimentSpec s0;
    s0.scheme = "Baseline";
    s0.workload = "lesl";
    s0.lines = 40;
    ExperimentSpec s1 = s0;
    s1.workload = "gcc";
    const std::vector<ExperimentSpec> specs{s0, s1};

    std::atomic<unsigned> completed{0};
    std::vector<ExperimentResult> results;
    std::thread sweep([&] {
        results = head->run(specs, 1, [&] { ++completed; });
    });

    // The slow worker pulls both points, then stalls past the
    // reissue deadline while keeping its connection open.
    const int slow = rawConnect(head->port());
    sendHello(slow);
    const auto w0 = pullWork(slow);
    const auto w1 = pullWork(slow);
    ASSERT_NE(w0.first, w1.first);
    for (int waited = 0;; waited += 10) {
        const auto counts = head->errorCounts();
        const auto it = counts.find("reissued");
        if (it != counts.end() && it->second >= 2)
            break;
        ASSERT_LT(waited, 10000) << "points never reissued";
        std::this_thread::sleep_for(
            std::chrono::milliseconds(10));
    }

    // Its late (but first) result must win — and must retire the
    // point's requeued queue entry along the way.
    sendResultFor(slow, w0.first, w0.second);
    for (int waited = 0; completed.load() < 1; waited += 10) {
        ASSERT_LT(waited, 10000) << "late result not accepted";
        std::this_thread::sleep_for(
            std::chrono::milliseconds(10));
    }

    // A fresh worker pulling now must be handed the other point,
    // never the completed one out of the stale entry.
    const int fresh = rawConnect(head->port());
    sendHello(fresh);
    const auto wb = pullWork(fresh);
    EXPECT_EQ(wb.first, w1.first)
        << "head reissued a completed point from a stale entry";
    sendResultFor(fresh, wb.first, wb.second);

    sweep.join();
    ::close(slow);
    ::close(fresh);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_TRUE(results[1].ok) << results[1].error;
    EXPECT_EQ(completed.load(), 2u);
    const auto counts = head->errorCounts();
    EXPECT_FALSE(counts.count("duplicate-result"));
    head->stop();
}

TEST(RemoteFaults, PoisonPointFailsInBandAfterItsAttemptBudget)
{
    // A fake worker that disconnects whenever it is handed point P
    // and honestly answers every other point: P must exhaust its
    // budget and fail in-band while the rest of the sweep completes.
    const auto specs = smallGrid().expand();
    const auto expect = ExperimentRunner(RunnerOptions{}).run(specs);
    const uint64_t poison = 1;
    auto head = bareHead();

    std::thread fake([&] {
        int fd = rawConnect(head->port());
        sendHello(fd);
        for (std::size_t works = 0;
             works < specs.size() - 1 + runner::kPointAttempts;
             ++works) {
            const auto [id, text] = pullWork(fd);
            if (id == poison) {
                ::close(fd);
                fd = rawConnect(head->port());
                sendHello(fd);
            } else {
                sendResultFor(fd, id, text);
            }
        }
        ::close(fd);
    });
    const auto results = runOrStop(*head, specs, 1);
    fake.join();

    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (i == poison) {
            EXPECT_FALSE(results[i].ok);
            EXPECT_NE(results[i].error.find("point lost 3 workers"),
                      std::string::npos)
                << results[i].error;
        } else {
            EXPECT_EQ(csvOf({results[i]}), csvOf({expect[i]}))
                << "point " << i;
        }
    }
    const auto counts = head->errorCounts();
    EXPECT_EQ(counts.at("worker-died"), runner::kPointAttempts);
    EXPECT_EQ(counts.at("poison-point"), 1u);
    head->stop();
}

TEST(RemoteFaults, EveryWorkerDyingFailsEveryPointAsPoison)
{
    // Every spawned worker SIGKILLs itself on its first point, so
    // each point takes down kPointAttempts workers (each one
    // respawned) and then fails in-band — run() must return.
    namespace fs = std::filesystem;
    const fs::path wrapper =
        fs::path(::testing::TempDir()) / "wlcrc_poison_worker.sh";
    {
        std::ofstream out(wrapper);
        out << "#!/bin/sh\n"
            << "exec '" << WLCRC_WORKER_BIN
            << "' \"$@\" --kill-after 1\n";
    }
    fs::permissions(wrapper, fs::perms::owner_all,
                    fs::perm_options::add);

    auto head = spawningHead(2, 30.0, wrapper.string());
    const auto specs = smallGrid().expand();
    const auto results = runOrStop(*head, specs, 2);
    ASSERT_EQ(results.size(), specs.size());
    for (const auto &r : results) {
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("point lost 3 workers"),
                  std::string::npos)
            << r.error;
    }
    const auto counts = head->errorCounts();
    EXPECT_EQ(counts.at("worker-died"),
              specs.size() * runner::kPointAttempts);
    EXPECT_EQ(counts.at("poison-point"), specs.size());
    EXPECT_FALSE(counts.count("no-live-workers"));
    head->stop();
}

TEST(RemoteFaults, StopMidRunFailsUnfinishedPointsInBand)
{
    auto head = bareHead(); // no workers will ever answer
    RunnerOptions opts;
    opts.jobs = 1;
    opts.backend = head;
    std::vector<ExperimentResult> results;
    std::thread sweep([&] {
        results = ExperimentRunner(opts).run(smallGrid());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    head->stop();
    sweep.join();
    ASSERT_EQ(results.size(), smallGrid().expand().size());
    for (const auto &r : results) {
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("stopped"), std::string::npos);
    }
}

// ----------------------------------------------------------------
// Long-poll wake paths: a Pull that finds nothing pending parks
// until a point is queued, requeued or reissued, or until stop().
// ----------------------------------------------------------------

TEST(RemoteBackendLongPoll, ParkedPullGetsWorkWhenRunStarts)
{
    auto head = bareHead();
    const int fd = rawConnect(head->port());
    sendHello(fd);
    expectServed(fd);
    sendPull(fd);
    // An idle head has nothing to say: no reply at all.
    EXPECT_FALSE(replyWithin(fd, 50));

    auto sweep = startRun(*head, onePoint());
    const StopAtExit stopper{*head};
    const auto [id, text] = recvWork(fd);
    EXPECT_EQ(id, 0u);
    sendResultFor(fd, id, text);
    const auto results = joinRun(*head, sweep);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(head->errorCounts(), Counts{});
    ::close(fd);
}

TEST(RemoteBackendLongPoll, ParkedPullGetsThePointADisconnectRequeued)
{
    auto head = bareHead();
    auto sweep = startRun(*head, onePoint());
    const StopAtExit stopper{*head};
    const int holder = rawConnect(head->port());
    sendHello(holder);
    const auto held = pullWork(holder);
    const int parked = rawConnect(head->port());
    sendHello(parked);
    sendPull(parked); // nothing pending: parks
    EXPECT_FALSE(replyWithin(parked, 50));

    ::close(holder); // dies holding the point: charged, requeued
    const auto [id, text] = recvWork(parked);
    EXPECT_EQ(id, held.first);
    sendResultFor(parked, id, text);
    const auto results = joinRun(*head, sweep);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(head->errorCounts(), (Counts{{"worker-died", 1}}));
    ::close(parked);
}

TEST(RemoteBackendLongPoll, ParkedPullGetsAStragglerReissuedPastItsDeadline)
{
    auto head = bareHead(/*reissueSec=*/0.3);
    auto sweep = startRun(*head, onePoint());
    const StopAtExit stopper{*head};
    const int hung = rawConnect(head->port());
    sendHello(hung);
    const auto held = pullWork(hung); // and never answered
    const int parked = rawConnect(head->port());
    sendHello(parked);
    sendPull(parked); // nothing pending: parks
    EXPECT_FALSE(replyWithin(parked, 50));

    // run()'s wait loop reissues the point past its deadline and
    // wakes the parked Pull.
    const auto [id, text] = recvWork(parked);
    EXPECT_EQ(id, held.first);
    sendResultFor(parked, id, text);
    const auto results = joinRun(*head, sweep);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(head->errorCounts(), (Counts{{"reissued", 1}}));
    ::close(hung);
    ::close(parked);
}

TEST(RemoteBackendLongPoll, StopAnswersAParkedPullWithFin)
{
    auto head = bareHead();
    const int fd = rawConnect(head->port());
    sendHello(fd);
    expectServed(fd);
    sendPull(fd);
    EXPECT_FALSE(replyWithin(fd, 50));
    head->stop();
    std::vector<uint8_t> payload;
    EXPECT_EQ(recvType(fd, payload),
              static_cast<uint8_t>(WorkFrame::Fin));
    EXPECT_EQ(head->errorCounts(), Counts{});
    ::close(fd);
}

TEST(RemoteBackendLongPoll, HangupWhileParkedChargesNothing)
{
    auto head = bareHead();
    const int fd = rawConnect(head->port());
    sendHello(fd);
    expectServed(fd);
    sendPull(fd);
    ::close(fd); // leaves while idle: must be dropped holding nothing

    const pid_t worker = spawnWorker(*head);
    EXPECT_EQ(runWith(head, smallGrid()),
              runWith(std::make_shared<ThreadBackend>(), smallGrid()));
    EXPECT_EQ(head->errorCounts(), Counts{});
    head->stop();
    test::reap(worker);
}

TEST(RemoteBackendLongPoll, SpawnedWorkerExitingWhileIdleEndsRunWithNoLiveWorkers)
{
    // The spawned worker records its pid, serves a first run, then
    // parks idle. Killed there, it must be dropped holding nothing,
    // so the second run ends in-band instead of waiting forever on
    // a connection nobody is behind.
    namespace fs = std::filesystem;
    const fs::path dir(::testing::TempDir());
    const fs::path wrapper = dir / "wlcrc_pid_worker.sh";
    const fs::path pidFile = dir / "wlcrc_pid_worker.pid";
    fs::remove(pidFile);
    {
        std::ofstream out(wrapper);
        out << "#!/bin/sh\n"
            << "echo $$ > '" << pidFile.string() << "'\n"
            << "exec '" << WLCRC_WORKER_BIN << "' \"$@\"\n";
    }
    fs::permissions(wrapper, fs::perms::owner_all,
                    fs::perm_options::add);

    auto head = spawningHead(1, 30.0, wrapper.string());
    const auto first = runOrStop(*head, onePoint(), 1);
    ASSERT_EQ(first.size(), 1u);
    ASSERT_TRUE(first[0].ok) << first[0].error;

    // It answered, so it wrote its pid before exec-ing the worker.
    pid_t pid = 0;
    std::ifstream(pidFile) >> pid;
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    // Dead (its socket closed) but not reaped: the head reaps it.
    siginfo_t info{};
    ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(pid), &info,
                       WEXITED | WNOWAIT),
              0);

    const auto second = runOrStop(*head, onePoint(), 1);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_FALSE(second[0].ok);
    EXPECT_NE(second[0].error.find("no live workers"),
              std::string::npos)
        << second[0].error;
    EXPECT_EQ(head->errorCounts(), (Counts{{"no-live-workers", 1}}));
    head->stop();
    fs::remove(pidFile);
}

TEST(WorkerCli, RejectsMissingAndRepeatedFlagsWithUsageError)
{
    for (const char *bad :
         {"--connect 1 --connect 2", "--connect 1 --loops 1 --loops 2",
          "--connect 1 --simd scalar --simd auto", "--connect"}) {
        EXPECT_EQ(test::exitCodeOf(std::string(WLCRC_WORKER_BIN) + " " +
                                   bad + " 2>/dev/null"),
                  2)
            << bad;
    }
}

TEST(RemoteFaults, CliHeadSurvivesAKilledWorker)
{
    // End to end: the head spawns three workers via a wrapper that
    // turns exactly one of them (mkdir is the atomic coin toss)
    // into a saboteur that dies on its first point — stdout must
    // still be byte-identical to the stock run.
    namespace fs = std::filesystem;
    const fs::path dir(::testing::TempDir());
    const fs::path wrapper = dir / "wlcrc_chaos_worker.sh";
    const fs::path lock = dir / "wlcrc_chaos_worker.lock";
    fs::remove_all(lock);
    {
        std::ofstream out(wrapper);
        out << "#!/bin/sh\n"
            << "if mkdir '" << lock.string() << "' 2>/dev/null; "
            << "then exec '" << WLCRC_WORKER_BIN
            << "' \"$@\" --kill-after 1; fi\n"
            << "exec '" << WLCRC_WORKER_BIN << "' \"$@\"\n";
    }
    fs::permissions(wrapper, fs::perms::owner_all,
                    fs::perm_options::add);

    const std::string base =
        std::string(WLCRC_SIM_BIN) +
        " --scheme Baseline --scheme WLCRC-16 --workload lesl"
        " --lines 60 --seed 3 --shards 3";
    int rc = 0;
    const std::string expect =
        test::captureStdout(base + " 2>/dev/null", rc);
    ASSERT_EQ(rc, 0);
    const std::string out = test::captureStdout(
        "WLCRC_WORKER_BIN=" + wrapper.string() + " " + base +
            " --backend remote --workers 3 2>/dev/null",
        rc);
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(out, expect);
    fs::remove_all(lock);
}

} // namespace
