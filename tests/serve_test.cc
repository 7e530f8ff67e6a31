/**
 * @file
 * Tests for the live write-stream service (src/serve):
 *
 *  - BoundedQueue semantics: blocking push (backpressure), block
 *    takes (popSome), close + drain delivery guarantee, stall
 *    accounting;
 *  - BankEngine equivalence: the bank-sharded live encode reproduces
 *    an offline stepped sharded Replayer merge bit for bit, also
 *    when every take is a full block with repeated lines and wear
 *    is tracked, and each bank's published wear CoV matches its
 *    tracker before stop();
 *  - allocation guard: the steady-state submit->encode path performs
 *    no heap allocation (global operator new instrumented);
 *  - protocol framing over a socketpair: clean EOF, bad magic,
 *    oversized and truncated frames map to their named errors;
 *  - in-process Server + Client round trip: Hello/Write/Ack/Stats/
 *    Bye against a real listening socket;
 *  - subprocess capture-replay equivalence: a seeded wlcrc_load
 *    session against wlcrc_serve --capture, the captured WLCTRC02
 *    streams recombined and replayed with wlcrc_sim --shards, and
 *    the demand-write statistics compared token-for-token;
 *  - subprocess protocol robustness: malformed clients each produce
 *    a clean named per-connection error without affecting a healthy
 *    connection on the same server.
 */

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "net/conn_server.hh"
#include "net/frame.hh"
#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"
#include "runner/json_mini.hh"
#include "runner/report.hh"
#include "runner/runner.hh"
#include "serve/client.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/server.hh"
#include "tracefile/format.hh"
#include "tracefile/mapped_trace.hh"
#include "tracefile/source.hh"
#include "tracefile/writer.hh"
#include "trace/replay.hh"
#include "trace/workload.hh"
#include "wlcrc/factory.hh"

#include "alloc_counter.hh"
#include "subprocess.hh"

namespace
{

using namespace wlcrc;

std::vector<trace::WriteTransaction>
makeStream(uint64_t lines, uint64_t seed,
           const std::string &workload = "lesl")
{
    trace::TraceSynthesizer synth(
        trace::WorkloadProfile::byName(workload), seed);
    std::vector<trace::WriteTransaction> out;
    out.reserve(lines);
    for (uint64_t i = 0; i < lines; ++i)
        out.push_back(synth.next());
    return out;
}

// ------------------------------------------------------- BoundedQueue

TEST(BoundedQueue, DeliversInOrder)
{
    serve::BoundedQueue<int> q(4);
    EXPECT_EQ(q.capacity(), 4u);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    int v = 0;
    EXPECT_EQ(q.popSome(&v, 1), 1u);
    EXPECT_EQ(v, 1);
    EXPECT_EQ(q.popSome(&v, 1), 1u);
    EXPECT_EQ(v, 2);
    EXPECT_EQ(q.depth(), 0u);
}

TEST(BoundedQueue, ZeroCapacityThrows)
{
    EXPECT_THROW(serve::BoundedQueue<int> q(0),
                 std::invalid_argument);
}

TEST(BoundedQueue, FullPushBlocksUntilConsumerDrains)
{
    serve::BoundedQueue<int> q(2);
    ASSERT_TRUE(q.push(1));
    ASSERT_TRUE(q.push(2));
    EXPECT_EQ(q.stallCount(), 0u);

    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(3)); // blocks: queue is full
        pushed.store(true);
    });
    // The producer must stall, not complete: memory stays bounded by
    // the preallocated ring no matter how fast producers are. A push
    // counts its stall before it waits, and nothing pops until below,
    // so once the count reads 1 the push cannot have completed.
    for (int waited = 0; q.stallCount() < 1 && waited < 5000; ++waited)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(q.stallCount(), 1u);
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(q.depth(), 2u);

    int v = 0;
    EXPECT_EQ(q.popSome(&v, 1), 1u);
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_GE(q.stallCount(), 1u);
}

TEST(BoundedQueue, CloseDrainsQueuedItemsThenStops)
{
    serve::BoundedQueue<int> q(4);
    ASSERT_TRUE(q.push(7));
    ASSERT_TRUE(q.push(8));
    q.close();
    EXPECT_FALSE(q.push(9)); // rejected after close
    int v = 0;
    EXPECT_EQ(q.popSome(&v, 1), 1u); // ...but queued items still deliver
    EXPECT_EQ(v, 7);
    EXPECT_EQ(q.popSome(&v, 1), 1u);
    EXPECT_EQ(v, 8);
    EXPECT_EQ(q.popSome(&v, 1), 0u); // closed + drained
}

TEST(BoundedQueue, PopSomeTakesAtMostMax)
{
    serve::BoundedQueue<int> q(8);
    for (int i = 1; i <= 5; ++i)
        ASSERT_TRUE(q.push(i));
    int out[8] = {};
    ASSERT_EQ(q.popSome(out, 3), 3u);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[1], 2);
    EXPECT_EQ(out[2], 3);
    EXPECT_EQ(out[3], 0); // untouched past the take
    EXPECT_EQ(q.depth(), 2u);
}

TEST(BoundedQueue, PopSomeReturnsWhatIsQueuedWithoutWaitingForMax)
{
    serve::BoundedQueue<int> q(8);
    ASSERT_TRUE(q.push(4));
    ASSERT_TRUE(q.push(5));
    // Nothing else will ever be pushed; a take that waited for max
    // would hang here.
    int out[32] = {};
    ASSERT_EQ(q.popSome(out, 32), 2u);
    EXPECT_EQ(out[0], 4);
    EXPECT_EQ(out[1], 5);
    EXPECT_EQ(q.depth(), 0u);
}

TEST(BoundedQueue, PopSomeOfSeveralWakesEveryBlockedProducer)
{
    serve::BoundedQueue<int> q(2);
    ASSERT_TRUE(q.push(1));
    ASSERT_TRUE(q.push(2));
    std::atomic<int> pushed{0};
    std::thread p1([&] {
        EXPECT_TRUE(q.push(3));
        pushed.fetch_add(1);
    });
    std::thread p2([&] {
        EXPECT_TRUE(q.push(4));
        pushed.fetch_add(1);
    });
    // Both producers count their stall before they wait.
    for (int waited = 0; q.stallCount() < 2 && waited < 5000; ++waited)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(q.stallCount(), 2u);
    EXPECT_EQ(pushed.load(), 0);

    // One take frees both slots; a single wake-up would leave one
    // producer blocked.
    int out[2] = {};
    EXPECT_EQ(q.popSome(out, 2), 2u);
    for (int waited = 0; pushed.load() < 2 && waited < 5000; ++waited)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(pushed.load(), 2);
    EXPECT_EQ(q.depth(), 2u);
    q.close(); // frees a producer a lost wake-up left blocked
    p1.join();
    p2.join();
}

TEST(BoundedQueue, PopSomeDrainsAfterCloseThenReturnsZero)
{
    serve::BoundedQueue<int> q(8);
    for (int i = 1; i <= 3; ++i)
        ASSERT_TRUE(q.push(i));
    q.close();
    int out[8] = {};
    ASSERT_EQ(q.popSome(out, 2), 2u);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[1], 2);
    ASSERT_EQ(q.popSome(out, 8), 1u);
    EXPECT_EQ(out[0], 3);
    EXPECT_EQ(q.popSome(out, 8), 0u);
    EXPECT_EQ(q.popSome(out, 8), 0u); // stays drained
}

// --------------------------------------------------------- BankEngine

/**
 * Offline reference: sharded Replayer merge, runner idiom. With
 * @p wear set, each shard also tracks wear into its own tracker.
 */
trace::ReplayResult
offlineShardedReplay(const std::vector<trace::WriteTransaction> &txns,
                     const std::string &scheme, uint64_t seed,
                     unsigned shards,
                     std::vector<pcm::WearTracker> *wear = nullptr)
{
    const auto energy = pcm::EnergyModel::withHighStateEnergies(
        307.0, 547.0);
    const auto codec = core::makeCodec(scheme, energy);
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
    if (wear)
        wear->assign(shards, pcm::WearTracker(codec->cellCount()));
    trace::ReplayResult merged;
    for (unsigned s = 0; s < shards; ++s) {
        trace::Replayer rep(*codec, unit,
                            runner::shardSeed(seed, s, shards));
        if (wear)
            rep.device().attachWearTracker(&(*wear)[s]);
        for (const auto &t : txns)
            if (runner::shardOf(t.lineAddr, shards) == s)
                rep.step(t);
        merged.merge(rep.result());
    }
    return merged;
}

void
expectResultsIdentical(const trace::ReplayResult &a,
                       const trace::ReplayResult &b)
{
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.compressedWrites, b.compressedWrites);
    EXPECT_EQ(a.vnrIterations, b.vnrIterations);
    EXPECT_EQ(a.energyPj.mean(), b.energyPj.mean());
    EXPECT_EQ(a.energyPj.stddev(), b.energyPj.stddev());
    EXPECT_EQ(a.updatedCells.mean(), b.updatedCells.mean());
    EXPECT_EQ(a.disturbErrors.mean(), b.disturbErrors.mean());
    EXPECT_EQ(a.dataEnergyPj.mean(), b.dataEnergyPj.mean());
    EXPECT_EQ(a.auxEnergyPj.mean(), b.auxEnergyPj.mean());
}

/** Merge per-shard trackers in shard order, as the runner does. */
pcm::WearTracker
mergedTracker(const std::vector<pcm::WearTracker> &shards)
{
    pcm::WearTracker merged = shards.front();
    for (std::size_t s = 1; s < shards.size(); ++s)
        merged.merge(shards[s]);
    return merged;
}

TEST(BankEngine, MatchesOfflineShardedReplayBitForBit)
{
    struct Case
    {
        const char *name;
        std::vector<trace::WriteTransaction> txns;
        unsigned banks;
        uint64_t seed;
        uint64_t wearEndurance;
        /** Submit everything before start(): each take is then a
         *  full Replayer::batchLines block. */
        bool preload;
    };
    // Folding 600 writes onto 97 lines repeats addresses inside the
    // preloaded blocks, so the block path must split them.
    auto folded = makeStream(600, 23);
    for (auto &t : folded)
        t.lineAddr %= 97;
    const Case cases[] = {
        {"streamed", makeStream(400, 11), 3, 9, 0, false},
        {"preloaded-blocks-with-wear", folded, 2, 13, 1000000, true},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        if (c.preload) {
            // The case must contain a block with a repeated line.
            bool repeats = false;
            std::vector<uint64_t> bank0;
            for (const auto &t : c.txns)
                if (runner::shardOf(t.lineAddr, c.banks) == 0)
                    bank0.push_back(t.lineAddr);
            for (std::size_t i = 0; i < bank0.size() && !repeats; ++i)
                for (std::size_t j = i - i % trace::Replayer::batchLines;
                     j < i && !repeats; ++j)
                    repeats = bank0[j] == bank0[i];
            ASSERT_TRUE(repeats);
        }
        serve::EngineConfig cfg;
        cfg.scheme = "WLCRC-16";
        cfg.banks = c.banks;
        cfg.seed = c.seed;
        cfg.wearEndurance = c.wearEndurance;
        ASSERT_LE(c.txns.size(), cfg.queueCapacity);
        serve::BankEngine engine(cfg);
        if (!c.preload)
            engine.start();
        serve::ConnTicket ticket;
        for (const auto &t : c.txns)
            ASSERT_TRUE(engine.submit(t, &ticket));
        engine.start(); // a no-op unless preloaded
        engine.drainWait(ticket);
        const auto snaps = engine.snapshot();
        engine.stop();
        EXPECT_EQ(engine.totalEncoded(), c.txns.size());
        EXPECT_EQ(ticket.encoded.load(), c.txns.size());

        std::vector<pcm::WearTracker> wear;
        const auto offline = offlineShardedReplay(
            c.txns, cfg.scheme, c.seed, c.banks,
            c.wearEndurance ? &wear : nullptr);
        expectResultsIdentical(engine.mergedResult(), offline);
        const auto final = engine.finalResult();
        ASSERT_TRUE(final.ok);
        expectResultsIdentical(final.replay, offline);
        if (!c.wearEndurance)
            continue;
        ASSERT_EQ(snaps.size(), c.banks);
        for (unsigned b = 0; b < c.banks; ++b)
            EXPECT_EQ(snaps[b].wearCov, wear[b].summary().covCellWrites)
                << "bank " << b;
        const auto merged = mergedTracker(wear);
        const auto want = merged.summary();
        EXPECT_GT(want.totalWrites, 0u);
        EXPECT_EQ(final.wear.maxCellWrites, want.maxCellWrites);
        EXPECT_EQ(final.wear.avgCellWrites, want.avgCellWrites);
        EXPECT_EQ(final.wear.touchedCells, want.touchedCells);
        EXPECT_EQ(final.wear.totalWrites, want.totalWrites);
        EXPECT_EQ(final.wear.covCellWrites, want.covCellWrites);
        EXPECT_EQ(final.projectedLifetime,
                  merged.projectedLifetime(c.wearEndurance,
                                           offline.writes));
    }
}

TEST(BankEngine, SnapshotsConvergeToExactResult)
{
    const auto txns = makeStream(200, 4);
    serve::EngineConfig cfg;
    cfg.banks = 2;
    cfg.seed = 5;
    serve::BankEngine engine(cfg);
    engine.start();
    for (const auto &t : txns)
        ASSERT_TRUE(engine.submit(t, nullptr));
    engine.stop();
    // After the drain, the published seqlock snapshots equal the
    // exact per-bank results.
    uint64_t snapWrites = 0;
    for (const auto &s : engine.snapshot())
        snapWrites += s.replay.writes;
    EXPECT_EQ(snapWrites, txns.size());
}

TEST(BankEngine, WearCovIsCurrentBeforeStop)
{
    // A few hundred writes over three banks: every bank stays far
    // below the old 1024-write refresh period.
    const auto txns = makeStream(300, 17);
    serve::EngineConfig cfg;
    cfg.banks = 3;
    cfg.seed = 7;
    cfg.wearEndurance = 1000000;
    serve::BankEngine engine(cfg);
    engine.start();
    serve::ConnTicket ticket;
    for (const auto &t : txns)
        ASSERT_TRUE(engine.submit(t, &ticket));
    engine.drainWait(ticket);
    const auto snaps = engine.snapshot();

    // Bank b's tracker equals shard b's of the offline replay.
    std::vector<pcm::WearTracker> wear;
    offlineShardedReplay(txns, cfg.scheme, cfg.seed, cfg.banks, &wear);
    ASSERT_EQ(snaps.size(), cfg.banks);
    for (unsigned b = 0; b < cfg.banks; ++b) {
        const double want = wear[b].summary().covCellWrites;
        EXPECT_GT(want, 0.0) << "bank " << b;
        EXPECT_EQ(snaps[b].wearCov, want) << "bank " << b;
    }
    engine.stop();
}

TEST(BankEngine, SubmitAfterStopIsRejected)
{
    serve::EngineConfig cfg;
    cfg.banks = 1;
    serve::BankEngine engine(cfg);
    engine.start();
    engine.stop();
    serve::ConnTicket ticket;
    const auto txns = makeStream(1, 1);
    EXPECT_FALSE(engine.submit(txns[0], &ticket));
    EXPECT_EQ(ticket.accepted.load(), 0u);
}

TEST(AllocationGuard, SteadyStateEncodePathAllocatesNothing)
{
    const auto txns = makeStream(300, 21);
    serve::EngineConfig cfg;
    cfg.banks = 2;
    cfg.queueCapacity = 64;
    serve::BankEngine engine(cfg);
    engine.start();
    serve::ConnTicket ticket;
    // Warm up: primes every line in the device image and grows the
    // replayers' reusable buffers.
    for (const auto &t : txns)
        ASSERT_TRUE(engine.submit(t, &ticket));
    engine.drainWait(ticket);

    const uint64_t before =
        g_allocCount.load(std::memory_order_relaxed);
    for (const auto &t : txns)
        engine.submit(t, &ticket);
    engine.drainWait(ticket);
    const uint64_t after =
        g_allocCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "submit->encode steady state allocated";
    engine.stop();
}

// ----------------------------------------------------- protocol frames

/** recvFrame against bytes pushed through a socketpair. */
serve::RecvStatus
recvFromBytes(const void *bytes, std::size_t n,
              serve::FrameHeader &h)
{
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    EXPECT_TRUE(serve::writeAll(fds[0], bytes, n));
    ::close(fds[0]); // EOF after our bytes
    std::vector<uint8_t> payload;
    const auto st = serve::recvFrame(fds[1], h, payload);
    ::close(fds[1]);
    return st;
}

TEST(Protocol, RoundTripsAFrame)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const char payload[] = "hello";
    ASSERT_TRUE(serve::sendFrame(fds[0], serve::FrameType::StatsReply,
                                 0, payload, 5));
    serve::FrameHeader h;
    std::vector<uint8_t> got;
    ASSERT_EQ(serve::recvFrame(fds[1], h, got),
              serve::RecvStatus::Ok);
    EXPECT_EQ(static_cast<serve::FrameType>(h.type),
              serve::FrameType::StatsReply);
    ASSERT_EQ(got.size(), 5u);
    EXPECT_EQ(std::memcmp(got.data(), payload, 5), 0);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Protocol, CleanEofOnFrameBoundary)
{
    serve::FrameHeader h;
    EXPECT_EQ(recvFromBytes(nullptr, 0, h),
              serve::RecvStatus::CleanEof);
}

TEST(Protocol, BadMagicIsNamed)
{
    uint8_t junk[serve::frameHeaderBytes] = {0xde, 0xad, 0xbe, 0xef};
    serve::FrameHeader h;
    const auto st = recvFromBytes(junk, sizeof junk, h);
    EXPECT_EQ(st, serve::RecvStatus::BadMagic);
    EXPECT_STREQ(serve::recvErrorName(st), "bad-magic");
}

TEST(Protocol, OversizedFrameIsNamed)
{
    serve::FrameHeader h;
    h.type = static_cast<uint8_t>(serve::FrameType::Write);
    h.payloadBytes = serve::maxFramePayload + 1;
    uint8_t hdr[serve::frameHeaderBytes];
    serve::encodeFrameHeader(hdr, h);
    serve::FrameHeader got;
    const auto st = recvFromBytes(hdr, sizeof hdr, got);
    EXPECT_EQ(st, serve::RecvStatus::Oversized);
    EXPECT_STREQ(serve::recvErrorName(st), "oversized-frame");
}

TEST(Protocol, TruncatedFrameIsNamed)
{
    serve::FrameHeader h;
    h.type = static_cast<uint8_t>(serve::FrameType::Write);
    h.payloadBytes = 136;
    uint8_t bytes[serve::frameHeaderBytes + 10];
    serve::encodeFrameHeader(bytes, h);
    std::memset(bytes + serve::frameHeaderBytes, 0, 10);
    serve::FrameHeader got;
    const auto st = recvFromBytes(bytes, sizeof bytes, got);
    EXPECT_EQ(st, serve::RecvStatus::Truncated);
    EXPECT_STREQ(serve::recvErrorName(st), "truncated-frame");
}

// ------------------------------------------------ connection core

TEST(ConnServer, ClosesAConnectionOnlyAfterItsHandlerReturns)
{
    std::promise<void> release;
    const std::shared_future<void> released =
        release.get_future().share();
    std::atomic<uint64_t> seenId{UINT64_MAX};
    net::ConnServer conns([&](int fd, uint64_t id) {
        seenId.store(id);
        const char hi = 'x';
        net::writeAll(fd, &hi, 1);
        released.wait_for(std::chrono::seconds(10));
    });
    conns.start(0);
    ASSERT_GT(conns.port(), 0);
    const int fd = net::connectTcp("127.0.0.1", conns.port());
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

    char c = 0;
    ASSERT_EQ(::read(fd, &c, 1), 1);
    EXPECT_EQ(c, 'x');
    EXPECT_EQ(seenId.load(), 0u);
    // The handler is still parked, so its fd is still open: no EOF.
    pollfd p{fd, POLLIN, 0};
    EXPECT_EQ(::poll(&p, 1, 0), 0);
    release.set_value();
    EXPECT_EQ(::read(fd, &c, 1), 0); // closed once the handler returned
    EXPECT_TRUE(conns.waitIdle(std::chrono::seconds(5)));
    ::close(fd);
}

TEST(ConnServer, ShutdownConnsEndsBlockedHandlersAndStopClosesListener)
{
    std::atomic<int> entered{0};
    std::atomic<int> sawEof{0};
    net::ConnServer conns([&](int fd, uint64_t) {
        entered.fetch_add(1);
        char c;
        if (::read(fd, &c, 1) == 0)
            sawEof.fetch_add(1);
    });
    conns.start(0);
    const uint16_t port = conns.port();
    const int a = net::connectTcp("127.0.0.1", port);
    const int b = net::connectTcp("127.0.0.1", port);
    for (int waited = 0; entered.load() < 2 && waited < 5000; ++waited)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(entered.load(), 2);

    conns.stopAccepting();
    conns.stopAccepting(); // idempotent
    EXPECT_THROW(net::connectTcp("127.0.0.1", port),
                 std::runtime_error);
    // Both handlers sit in read() until their sockets are shut down.
    EXPECT_FALSE(conns.waitIdle(std::chrono::milliseconds(0)));
    conns.shutdownConns(SHUT_RD);
    EXPECT_TRUE(conns.waitIdle(std::chrono::seconds(5)));
    conns.join();
    EXPECT_EQ(sawEof.load(), 2);
    ::close(a);
    ::close(b);
}

TEST(ConnServer, ConnectTcpNamesTheFailure)
{
    // A bound socket that never listens refuses connections.
    const int s = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(s, reinterpret_cast<sockaddr *>(&addr),
                     sizeof addr),
              0);
    socklen_t len = sizeof addr;
    ::getsockname(s, reinterpret_cast<sockaddr *>(&addr), &len);
    try {
        ::close(net::connectTcp("127.0.0.1", ntohs(addr.sin_port)));
        ADD_FAILURE() << "connected to a port nobody listens on";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::strerror(ECONNREFUSED)),
                  std::string::npos)
            << what;
    }
    ::close(s);
    EXPECT_THROW(net::connectTcp("not-an-address", 1),
                 std::runtime_error);
}

// ------------------------------------------- in-process server+client

TEST(Server, HelloWriteAckStatsByeRoundTrip)
{
    serve::ServerConfig cfg;
    cfg.engine.banks = 2;
    cfg.engine.seed = 3;
    serve::Server server(cfg);
    server.start();
    ASSERT_GT(server.port(), 0);

    const auto txns = makeStream(100, 8);
    serve::Client client;
    client.connect("127.0.0.1", server.port());
    client.hello(42);
    client.sendWrites(txns.data(), 60, true);
    EXPECT_EQ(client.readAck(), 60u);
    client.sendWrites(txns.data() + 60, 40, false);

    const auto stats = runner::parseJson(client.stats());
    EXPECT_EQ(stats.at("serve_version").asU64(), 1u);
    EXPECT_EQ(stats.at("banks").asU64(), 2u);
    EXPECT_EQ(stats.at("accepted").asU64(), 100u);
    EXPECT_EQ(stats.at("final").asBool(), false);

    const auto byeAck = runner::parseJson(client.bye());
    EXPECT_EQ(byeAck.at("stream").asU64(), 42u);
    EXPECT_EQ(byeAck.at("accepted").asU64(), 100u);
    // Bye drains: every admitted write is encoded before the ack.
    EXPECT_EQ(byeAck.at("encoded").asU64(), 100u);
    EXPECT_TRUE(byeAck.at("clean").asBool());

    server.requestStop();
    server.wait();
    const auto report = runner::parseJson(server.snapshotJson(true));
    EXPECT_EQ(report.at("encoded").asU64(), 100u);
    EXPECT_TRUE(report.at("result").at("ok").asBool());
    EXPECT_EQ(report.at("result").at("writes").asU64(), 100u);
}

TEST(Server, FinalReportRepeatsByteForByte)
{
    serve::ServerConfig cfg;
    cfg.engine.banks = 2;
    cfg.engine.seed = 6;
    cfg.engine.wearEndurance = 1000000;
    serve::Server server(cfg);
    server.start();

    const auto txns = makeStream(300, 19);
    serve::Client client;
    client.connect("127.0.0.1", server.port());
    client.hello(1);
    client.sendWrites(txns.data(), txns.size(), true);
    EXPECT_EQ(client.readAck(), txns.size());
    (void)client.bye();
    server.requestStop();
    server.wait();

    // Folding the banks' wear must leave their trackers in place.
    const auto resultJson = [&] {
        std::ostringstream os;
        runner::writeResultObject(os, server.finalResult());
        return os.str();
    };
    const std::string first = resultJson();
    EXPECT_EQ(resultJson(), first);
    const std::string report = server.snapshotJson(true);
    EXPECT_EQ(server.snapshotJson(true), report);

    const auto res = server.finalResult();
    EXPECT_EQ(res.replay.writes, txns.size());
    EXPECT_GT(res.wear.totalWrites, 0u);
    EXPECT_GT(res.wear.touchedCells, 0u);
    EXPECT_GT(res.projectedLifetime, 0u);
    const auto parsed = runner::parseJson(report);
    EXPECT_GT(parsed.at("result").at("total_cell_writes").asU64(), 0u);
}

TEST(Server, WriteWithoutHelloIsRejectedByName)
{
    serve::ServerConfig cfg;
    cfg.engine.banks = 1;
    serve::Server server(cfg);
    server.start();

    const auto txns = makeStream(1, 1);
    serve::Client client;
    client.connect("127.0.0.1", server.port());
    client.sendWrites(txns.data(), 1, true);
    EXPECT_THROW(
        {
            try {
                client.readAck();
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find("no-hello"),
                          std::string::npos)
                    << e.what();
                throw;
            }
        },
        std::runtime_error);

    // The server keeps serving other connections afterwards.
    serve::Client ok;
    ok.connect("127.0.0.1", server.port());
    ok.hello(1);
    ok.sendWrites(txns.data(), 1, true);
    EXPECT_EQ(ok.readAck(), 1u);
    (void)ok.bye();
    server.requestStop();
    server.wait();
}

TEST(Server, AcceptFailuresShowInStatsErrors)
{
    serve::ServerConfig cfg;
    cfg.engine.banks = 1;
    serve::Server server(cfg);
    server.start();

    // Start a session and wait until its write is encoded, so the
    // accept loop, a connection handler and the bank worker have all
    // run before the process is starved: under UBSan a thread's
    // first virtual call probes memory through a pipe, which fails
    // (a false "invalid vptr") with no descriptor free. The session
    // stays open, so no server-side close can free a descriptor.
    const auto txns = makeStream(1, 1);
    serve::Client warm;
    warm.connect("127.0.0.1", server.port());
    warm.hello(1);
    warm.sendWrites(txns.data(), 1, true);
    (void)warm.readAck();
    for (int waited = 0;
         server.snapshotJson().find("\"encoded\":1,") ==
             std::string::npos;
         waited += 1) {
        ASSERT_LT(waited, 5000);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    serve::Client client;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    client.adopt(fd);
    bool counted = false;
    {
        // No descriptor is free once the client socket exists: the
        // server's accept() fails with EMFILE and leaves the
        // connection queued.
        test::NoFreeFd limit(fd);
        ASSERT_TRUE(limit.exhausted);
        ASSERT_TRUE(test::connectLoopback(fd, server.port()));
        for (int waited = 0; !counted && waited < 5000; waited += 10) {
            counted = server.snapshotJson().find("\"accept-failed\"") !=
                      std::string::npos;
            if (!counted)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
        }
    }
    EXPECT_TRUE(counted);
    // Descriptors are back: the queued connection is served.
    client.hello(7);
    const auto stats = runner::parseJson(client.stats());
    EXPECT_GE(stats.at("errors").at("accept-failed").asU64(), 1u);
    (void)client.bye();
    (void)warm.bye();
    server.requestStop();
    server.wait();
}

// ------------------------------------------------- subprocess harness

struct ServerProc
{
    FILE *pipe = nullptr;
    uint16_t port = 0;

    /** Reads stdout to EOF (the final report) and reaps. */
    std::string
    finish()
    {
        std::string out;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
            out.append(buf, n);
        ::pclose(pipe);
        pipe = nullptr;
        return out;
    }
};

/** Spawn wlcrc_serve and parse the listening banner for the port. */
ServerProc
spawnServer(const std::string &args)
{
    ServerProc proc;
    const std::string cmd =
        std::string(WLCRC_SERVE_BIN) + " " + args + " 2>/dev/null";
    proc.pipe = ::popen(cmd.c_str(), "r");
    if (!proc.pipe)
        throw std::runtime_error("popen failed: " + cmd);
    char line[256];
    if (!std::fgets(line, sizeof line, proc.pipe))
        throw std::runtime_error("no banner from wlcrc_serve");
    const char *colon = std::strrchr(line, ':');
    if (!colon)
        throw std::runtime_error(std::string("bad banner: ") + line);
    proc.port = static_cast<uint16_t>(
        std::strtoul(colon + 1, nullptr, 10));
    return proc;
}

std::filesystem::path
freshDir(const std::string &name)
{
    const auto dir =
        std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// ------------------------------------------------------ serve CLI

/** Exit code of wlcrc_serve run with @p args (output dropped). */
int
serveExit(const std::string &args)
{
    return test::exitCodeOf(std::string(WLCRC_SERVE_BIN) + " " + args +
                            " 2>/dev/null");
}

TEST(ServeCli, RejectsBadPortsAndRepeatedFlagsWithUsageError)
{
    // --run-seconds first: a case that wrongly starts the server
    // ends after a second instead of hanging the suite.
    for (const char *bad :
         {"--port 70000", "--port abc", "--port -1", "--port 12x",
          "--port 4000 --port 4001", "--banks 2 --banks 3", "--port"})
        EXPECT_EQ(serveExit(std::string("--run-seconds 1 ") + bad), 2)
            << bad;
    EXPECT_EQ(serveExit("--help"), 0);
}

TEST(LoadCli, RejectsMissingValuesAndBadCountsWithUsageError)
{
    // Port 1 has no server: a case that wrongly parses fails to
    // connect instead of streaming anywhere.
    for (const char *bad :
         {"--port 1 --workload gcc --connections",
          "--port 1 --workload gcc --frame-records 10000",
          "--port 1 --workload gcc --lines 10 --lines 20",
          "--port 1 --workload gcc --rate abc"})
        EXPECT_EQ(test::exitCodeOf(std::string(WLCRC_LOAD_BIN) + " " +
                                   bad + " >/dev/null 2>&1"),
                  2)
            << bad;
    EXPECT_EQ(test::exitCodeOf(std::string(WLCRC_LOAD_BIN) +
                               " --help >/dev/null"),
              0);
}

// -------------------------------------- capture-replay equivalence

/**
 * Drive a captured server session and diff its telemetry against an
 * offline wlcrc_sim replay of the recombined capture, token for
 * token. @p captureFlags selects the capture codec; every per-stream
 * file must land as WLCTRC03, with compressed blocks iff
 * @p expectCompressed.
 */
void
runCaptureReplayCase(const std::string &dirName,
                     const std::string &captureFlags,
                     bool expectCompressed)
{
    const auto dir = freshDir(dirName);
    ServerProc server = spawnServer(
        "--port 0 --scheme WLCRC-16 --banks 4 --seed 9 --capture " +
        dir.string() + captureFlags + " --max-conns 4");

    int exit_code = -1;
    const std::string loadOut = test::captureStdout(
        std::string(WLCRC_LOAD_BIN) + " --port " +
            std::to_string(server.port) +
            " --connections 4 --workload lesl --lines 300"
            " --seed 5 2>&1",
        exit_code);
    ASSERT_EQ(exit_code, 0) << loadOut;

    // All 4 connections closed -> the server drains and reports.
    const std::string reportText = server.finish();
    const auto report = runner::parseJson(reportText);
    ASSERT_TRUE(report.at("final").asBool());
    const auto &live = report.at("result");
    ASSERT_TRUE(live.at("ok").asBool());
    ASSERT_EQ(live.at("writes").asU64(), 300u);

    // Recombine the per-stream captures in stream order. The cross-
    // file order is irrelevant for the sharded replay (connections
    // carry disjoint address residue classes), but a fixed order
    // keeps the combined file deterministic.
    const auto combined = dir / "combined.wlctrc";
    {
        tracefile::TraceFileWriter writer(combined.string());
        uint64_t records = 0;
        for (unsigned i = 0; i < 4; ++i) {
            const auto part =
                dir / ("stream-" + std::to_string(i) + ".wlctrc");
            ASSERT_TRUE(std::filesystem::exists(part)) << part;
            const tracefile::MappedTrace capture(part.string());
            EXPECT_EQ(capture.format(), tracefile::TraceFormat::v3)
                << part;
            EXPECT_EQ(capture.anyCompressed(), expectCompressed)
                << part;
            const auto src = tracefile::openTraceSource(part.string());
            auto cursor = src->open();
            while (auto txn = cursor->next()) {
                writer.write(*txn);
                ++records;
            }
        }
        writer.close();
        ASSERT_EQ(records, 300u);
    }

    // Offline replay: same scheme, seed and shard count as the
    // server's banks. Every demand-write statistic must match the
    // server's telemetry token for token — doubles included.
    const std::string simOut = test::captureStdout(
        std::string(WLCRC_SIM_BIN) + " --trace-in " +
            combined.string() +
            " --scheme WLCRC-16 --seed 9 --shards 4 --json"
            " 2>/dev/null",
        exit_code);
    ASSERT_EQ(exit_code, 0) << simOut;
    const auto simDoc = runner::parseJson(simOut);
    ASSERT_EQ(simDoc.array.size(), 1u);
    const auto &offline = simDoc.array[0];
    ASSERT_TRUE(offline.at("ok").asBool());

    for (const char *field :
         {"writes", "compressed_writes", "vnr_iterations",
          "energy_pj", "data_energy_pj", "aux_energy_pj",
          "updated_cells", "data_updated", "aux_updated",
          "disturb_errors", "data_disturbed", "aux_disturbed",
          "compressed_pct", "vnr_per_write"}) {
        EXPECT_EQ(live.at(field).text, offline.at(field).text)
            << "field " << field << " diverged";
    }
    std::filesystem::remove_all(dir);
}

TEST(CaptureReplay, ServerTelemetryMatchesOfflineReplayExactly)
{
    runCaptureReplayCase("wlcrc_serve_capture_test",
                         " --capture-codec raw", false);
}

TEST(CaptureReplay, CompressedCaptureReplaysIdentically)
{
    // Same equivalence with the default lz capture: compression
    // must be framing only, invisible to the replayed statistics.
    runCaptureReplayCase("wlcrc_serve_capture_v3_test", "", true);
}

// ------------------------------------------- protocol robustness

TEST(Robustness, MalformedClientsFailCleanlyWithoutCollateral)
{
    ServerProc server = spawnServer("--port 0 --banks 2 --max-conns 5");
    const auto txns = makeStream(50, 3);

    // The healthy connection outlives every attacker.
    serve::Client good;
    good.connect("127.0.0.1", server.port);
    good.hello(1);
    good.sendWrites(txns.data(), 25, true);
    EXPECT_EQ(good.readAck(), 25u);

    { // garbage magic
        serve::Client bad;
        bad.connect("127.0.0.1", server.port);
        const uint8_t junk[12] = {1, 2, 3, 4, 5, 6};
        bad.sendRaw(junk, sizeof junk);
    }
    { // oversized length
        serve::Client bad;
        bad.connect("127.0.0.1", server.port);
        serve::FrameHeader h;
        h.type = static_cast<uint8_t>(serve::FrameType::Write);
        h.payloadBytes = serve::maxFramePayload + 1;
        uint8_t hdr[serve::frameHeaderBytes];
        serve::encodeFrameHeader(hdr, h);
        bad.sendRaw(hdr, sizeof hdr);
    }
    { // truncated frame: header promises 136 B, delivers 10
        serve::Client bad;
        bad.connect("127.0.0.1", server.port);
        serve::FrameHeader h;
        h.type = static_cast<uint8_t>(serve::FrameType::Write);
        h.payloadBytes = 136;
        uint8_t bytes[serve::frameHeaderBytes + 10] = {};
        serve::encodeFrameHeader(bytes, h);
        bad.sendRaw(bytes, sizeof bytes);
    } // destructor closes mid-payload
    { // mid-stream disconnect after a valid Hello + Write
        serve::Client bad;
        bad.connect("127.0.0.1", server.port);
        bad.hello(99);
        bad.sendWrites(txns.data() + 25, 10, false);
        bad.close();
    }

    // Poll the healthy connection's stats until the server has
    // counted all four failures (their readers run concurrently).
    const char *expected[] = {"bad-magic", "oversized-frame",
                              "truncated-frame", "disconnect"};
    bool allCounted = false;
    for (int tries = 0; tries < 100 && !allCounted; ++tries) {
        const auto stats = runner::parseJson(good.stats());
        const auto &errors = stats.at("errors");
        allCounted = true;
        for (const char *name : expected)
            if (!errors.has(name) ||
                errors.at(name).asU64() < 1)
                allCounted = false;
        if (!allCounted)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(allCounted) << good.stats();

    // The healthy connection still works end to end.
    good.sendWrites(txns.data() + 35, 15, true);
    EXPECT_EQ(good.readAck(), 40u);
    const auto byeAck = runner::parseJson(good.bye());
    EXPECT_TRUE(byeAck.at("clean").asBool());
    EXPECT_EQ(byeAck.at("encoded").asU64(), 40u);

    // 5 connections closed -> max-conns stop -> final report.
    const auto report = runner::parseJson(server.finish());
    EXPECT_TRUE(report.at("final").asBool());
    EXPECT_EQ(report.at("stop_reason").asString(), "max-conns");
    const auto &errors = report.at("errors");
    for (const char *name : expected)
        EXPECT_GE(errors.at(name).asU64(), 1u) << name;
    // The disconnected stream's 10 writes were still encoded; only
    // the clean stream and the disconnected one carried writes.
    EXPECT_EQ(report.at("encoded").asU64(), 50u);
}

} // namespace
