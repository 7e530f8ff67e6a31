/**
 * @file
 * serve-capture: an in-process serve::Server (WLCRC-16, 2 banks,
 * wear tracking on, per-stream capture to WLCTRC03+lz) driven by two
 * closed-loop client connections and one STATS poller.
 *
 * One session sends a pre-generated stream, split by bank (addr % 2)
 * into one stream per connection, as acked 32-record Write frames
 * from a single client thread; on each connection the next frame
 * leaves only after the previous Ack. Each bank's queue holds a whole
 * session, so an Ack times admission (network, decode, enqueue,
 * capture) rather than waiting for queue space, which would chain one
 * scheduler wake-up per record into it. Sessions repeat on the same
 * server until the measured time is used up; the poller asks for
 * STATS every millisecond throughout. Correctness: after the
 * drain, the server's final report must equal an offline 2-shard
 * replay of its captures chained in session order (per bank that is
 * exactly the server's arrival order) — the repository's
 * capture-replay invariant.
 */

#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "runner/backend.hh"
#include "runner/json_mini.hh"
#include "runner/report.hh"
#include "runner/runner.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "trace/workload.hh"
#include "tracefile/source.hh"
#include "tracefile/writer.hh"

namespace perfbench
{

namespace
{

using namespace wlcrc;
namespace fs = std::filesystem;

constexpr unsigned kBanks = 2;
/** Writes per session, over both connections. */
constexpr uint64_t kSessionWrites = 65536;
/** Records per acked Write frame. */
constexpr std::size_t kFrame = 32;
/** Per-cell endurance; non-zero turns the engine's wear tracking on. */
constexpr uint64_t kWearEndurance = 100000000;

/**
 * The captures of a session run, read back as one stream: every
 * part's cursor in turn, each restricted to the same shard filter.
 */
class ChainSource final : public tracefile::TransactionSource
{
  public:
    explicit ChainSource(
        std::vector<std::shared_ptr<tracefile::TransactionSource>> parts)
        : parts_(std::move(parts))
    {}

    std::unique_ptr<tracefile::TraceCursor>
    open(const tracefile::ShardFilter &filter) const override
    {
        return std::make_unique<Cursor>(parts_, filter);
    }

    uint64_t
    records() const override
    {
        uint64_t n = 0;
        for (const auto &p : parts_)
            n += p->records();
        return n;
    }

    std::string
    describe() const override
    {
        return "chain of " + std::to_string(parts_.size()) +
               " captures";
    }

    std::pair<uint64_t, uint64_t>
    addrBounds() const override
    {
        std::pair<uint64_t, uint64_t> b{~uint64_t{0}, 0};
        for (const auto &p : parts_) {
            if (p->records() == 0)
                continue;
            const auto [lo, hi] = p->addrBounds();
            b = {std::min(b.first, lo), std::max(b.second, hi)};
        }
        return b.first > b.second ? std::pair<uint64_t, uint64_t>{0, 0}
                                  : b;
    }

    uint64_t
    contentDigest() const override
    {
        uint64_t h = 1469598103934665603ull;
        for (const auto &p : parts_)
            h = (h ^ p->contentDigest()) * 1099511628211ull;
        return h;
    }

  private:
    class Cursor final : public tracefile::TraceCursor
    {
      public:
        Cursor(const std::vector<
                   std::shared_ptr<tracefile::TransactionSource>> &parts,
               const tracefile::ShardFilter &filter)
            : parts_(parts), filter_(filter)
        {}

        std::optional<trace::WriteTransaction>
        next() override
        {
            for (;;) {
                if (!cur_) {
                    if (index_ == parts_.size())
                        return std::nullopt;
                    cur_ = parts_[index_++]->open(filter_);
                }
                if (auto t = cur_->next())
                    return t;
                visited_ += cur_->blocksVisited();
                cur_.reset();
            }
        }

        std::size_t
        bufferBytes() const override
        {
            return cur_ ? cur_->bufferBytes() : 0;
        }

        uint64_t
        blocksVisited() const override
        {
            return visited_ + (cur_ ? cur_->blocksVisited() : 0);
        }

      private:
        const std::vector<std::shared_ptr<tracefile::TransactionSource>>
            &parts_;
        tracefile::ShardFilter filter_;
        std::size_t index_ = 0;
        std::unique_ptr<tracefile::TraceCursor> cur_;
        uint64_t visited_ = 0;
    };

    std::vector<std::shared_ptr<tracefile::TransactionSource>> parts_;
};

/** Set-up products: the per-connection streams and a live server. */
struct ServePlan
{
    std::vector<trace::WriteTransaction> streams[kBanks];
    std::string captureDir;
    std::unique_ptr<serve::Server> server;
};

ServePlan
setupServe(const Options &opts, int rep)
{
    ServePlan plan;
    plan.captureDir =
        opts.workDir + "/serve-capture-" + std::to_string(rep);
    fs::remove_all(plan.captureDir);

    trace::TraceSynthesizer synth(trace::WorkloadProfile::byName("lesl"),
                                  opts.seed);
    for (auto &s : plan.streams)
        s.reserve(kSessionWrites / kBanks + kSessionWrites / 8);
    for (uint64_t i = 0; i < kSessionWrites; ++i) {
        const trace::WriteTransaction &t = synth.next();
        plan.streams[t.lineAddr % kBanks].push_back(t);
    }

    serve::ServerConfig cfg;
    cfg.engine.scheme = "WLCRC-16";
    cfg.engine.banks = kBanks;
    cfg.engine.seed = opts.seed;
    cfg.engine.wearEndurance = kWearEndurance;
    cfg.engine.queueCapacity = kSessionWrites; // never full: see top
    cfg.captureDir = plan.captureDir;
    cfg.captureOptions.format = tracefile::TraceFormat::v3;
    cfg.captureOptions.codec = tracefile::BlockCodec::lz;
    plan.server = std::make_unique<serve::Server>(cfg);
    plan.server->start();
    return plan;
}

/** What the sessions of one phase measured. */
struct Sessions
{
    std::vector<Iteration> iters; //!< one per session
    uint64_t frames = 0;
    double sendS = 0; //!< time inside Client::sendWrites
    double ackS = 0;  //!< time inside Client::readAck
    uint64_t clientErrors = 0;
};

/**
 * Run sessions until @p budget host seconds are measured. Each
 * session opens kBanks connections with stream ids 2k and 2k + 1 and
 * ends once every connection's Bye is answered, i.e. once the banks
 * have encoded the whole session. With @p logs, every frame records
 * serve.frame > serve.send + serve.ack spans in its connection's log.
 */
void
runSessions(ServePlan &plan, double budget, uint64_t &nextSession,
            Sessions &out, std::vector<SpanLog> *logs)
{
    const uint16_t port = plan.server->port();
    while (totalSeconds(out.iters) < budget) {
        const uint64_t session = nextSession++;
        Iteration it;
        it.points = 1;
        const double c0 = cpuSelf();
        const auto t0 = Clock::now();
        try {
            serve::Client cl[kBanks];
            std::size_t frames = 0;
            for (unsigned c = 0; c < kBanks; ++c) {
                cl[c].connect("127.0.0.1", port);
                cl[c].hello(static_cast<uint32_t>(session * kBanks + c));
                frames = std::max(frames, (plan.streams[c].size() +
                                           kFrame - 1) / kFrame);
            }
            it.acksUs.reserve(frames * kBanks);
            for (std::size_t i = 0; i < frames; ++i) {
                // One frame out on every connection, then every ack
                // back: each connection stays closed-loop with one
                // frame in flight.
                int64_t a[kBanks], b[kBanks];
                int32_t f[kBanks];
                const uint64_t id = session << 20 | i;
                for (unsigned c = 0; c < kBanks; ++c) {
                    const auto &stream = plan.streams[c];
                    const std::size_t off = i * kFrame;
                    if (off >= stream.size())
                        continue;
                    f[c] = logs ? (*logs)[c].open("serve.frame", -1, id)
                                : -1;
                    a[c] = nowNs();
                    cl[c].sendWrites(stream.data() + off,
                                     std::min(kFrame, stream.size() - off),
                                     true);
                    b[c] = nowNs();
                }
                for (unsigned c = 0; c < kBanks; ++c) {
                    if (i * kFrame >= plan.streams[c].size())
                        continue;
                    const int64_t r = nowNs();
                    cl[c].readAck();
                    const int64_t e = nowNs();
                    if (logs) {
                        (*logs)[c].add("serve.send", f[c], id, a[c], b[c]);
                        (*logs)[c].add("serve.ack", f[c], id, r, e);
                        (*logs)[c].close(f[c]);
                    }
                    out.sendS += (b[c] - a[c]) * 1e-9;
                    out.ackS += (e - r) * 1e-9;
                    it.acksUs.push_back((e - a[c]) * 1e-3);
                    ++out.frames;
                }
            }
            for (auto &c : cl)
                c.bye();
        } catch (const std::exception &e) {
            ++out.clientErrors;
            std::fprintf(stderr, "serve-capture client: %s\n", e.what());
        }
        it.seconds = since(t0);
        it.cpu = cpuSelf() - c0;
        for (const auto &s : plan.streams)
            it.writes += s.size();
        out.iters.push_back(std::move(it));
    }
}

/**
 * Offline replay of the chained captures (--shards kBanks, the
 * server's seed, scheme and wear) compared field by field with the
 * server's final report. @return the number of differing fields.
 */
uint64_t
checkCaptureReplay(const Options &opts, const ServePlan &plan,
                   uint64_t sessions,
                   const runner::ExperimentResult &live, Report &report)
{
    std::vector<std::shared_ptr<tracefile::TransactionSource>> parts;
    for (uint64_t s = 0; s < sessions * kBanks; ++s)
        parts.push_back(tracefile::openTraceSource(
            plan.captureDir + "/stream-" + std::to_string(s) +
            ".wlctrc"));
    runner::ExperimentSpec spec;
    spec.scheme = "WLCRC-16";
    spec.source = std::make_shared<ChainSource>(std::move(parts));
    spec.seed = opts.seed;
    spec.shards = kBanks;
    spec.device.wearEndurance = kWearEndurance;
    runner::RunnerOptions ro;
    ro.jobs = kJobs;
    ro.backend = std::make_shared<runner::ThreadBackend>();
    const auto offline = runner::ExperimentRunner(ro).run({spec});

    std::ostringstream a, b;
    runner::writeResultObject(a, live);
    runner::writeResultObject(b, offline.at(0));
    const auto liveDoc = runner::parseJson(a.str());
    const auto offDoc = runner::parseJson(b.str());
    uint64_t diffs = 0;
    for (const auto &[key, value] : liveDoc.object) {
        // Stream identity differs by construction ("live" vs a
        // trace); every replay statistic must match to the digit.
        if (key == "source" || key == "lines")
            continue;
        if (!offDoc.has(key) || offDoc.at(key).text != value.text ||
            offDoc.at(key).boolean != value.boolean) {
            ++diffs;
            report.note("capture-replay mismatch in '" + key + "'");
        }
    }
    if (liveDoc.at("writes").asU64() == 0)
        ++diffs;
    return diffs;
}

} // namespace

void
runServeCapture(const Options &opts, Report &report)
{
    ServePlan plan;
    std::vector<double> setups;
    for (int i = 0; i < (opts.trace ? 1 : kSetups); ++i) {
        if (plan.server) {
            plan.server->requestStop();
            plan.server->wait();
            plan.server.reset();
            fs::remove_all(plan.captureDir);
        }
        const auto t0 = Clock::now();
        plan = setupServe(opts, i);
        setups.push_back(since(t0));
    }

    // STATS poller: one connection, one request per millisecond.
    std::atomic<bool> done{false};
    std::vector<double> statsUs, queueDepths;
    std::atomic<uint64_t> pollerErrors{0};
    SpanLog pollLog;
    const bool trace = opts.trace;
    std::thread poller([&] {
        try {
            serve::Client c;
            c.connect("127.0.0.1", plan.server->port());
            while (!done.load()) {
                const int64_t a = nowNs();
                const std::string json = c.stats();
                const int64_t b = nowNs();
                statsUs.push_back((b - a) * 1e-3);
                if (trace) {
                    pollLog.add("serve.stats", -1, statsUs.size(), a, b);
                    const auto doc = runner::parseJson(json);
                    for (const auto &bank :
                         doc.at("banks_detail").array)
                        queueDepths.push_back(
                            bank.at("queue_depth").asDouble());
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
        } catch (const std::exception &e) {
            pollerErrors.fetch_add(1);
            std::fprintf(stderr, "serve-capture poller: %s\n", e.what());
        }
    });

    uint64_t nextSession = 0;
    Sessions untraced, traced;
    std::vector<SpanLog> logs(kBanks);
    runSessions(plan, trace ? opts.seconds / 2 : opts.seconds,
                nextSession, untraced, nullptr);
    if (trace)
        runSessions(plan, opts.seconds / 2, nextSession, traced, &logs);
    done.store(true);
    poller.join();

    plan.server->requestStop();
    plan.server->wait();
    // Before the check: replaying the captures maps them all.
    const double peakRss = peakRssMb();
    const runner::ExperimentResult live = plan.server->finalResult();
    const auto snap = runner::parseJson(plan.server->snapshotJson(true));

    // Correctness gate, outside the timed region.
    const uint64_t frames = untraced.frames + traced.frames;
    report.attempt(frames + statsUs.size() + nextSession * kBanks + 1);
    report.fail(untraced.clientErrors + traced.clientErrors,
                "client connection failed");
    report.fail(pollerErrors.load(), "STATS poller failed");
    uint64_t unclean = 0;
    for (const auto &conn : snap.at("connections").array)
        unclean += conn.at("clean").asBool() ? 0 : 1;
    report.fail(unclean, "server reports unclean connections");
    uint64_t serverErrors = 0;
    for (const auto &[name, count] : snap.at("errors").object)
        serverErrors += count.asU64();
    report.fail(serverErrors, "server error counters are non-zero");
    const uint64_t sent =
        totalWrites(untraced.iters) + totalWrites(traced.iters);
    if (live.replay.writes != sent)
        report.fail(1, "server encoded " +
                           std::to_string(live.replay.writes) +
                           " writes, clients sent " +
                           std::to_string(sent));
    report.fail(checkCaptureReplay(opts, plan, nextSession, live, report),
                "final report differs from the offline capture replay");
    {
        std::ostringstream os;
        os << "simulated energy per write (WLCRC-16, checked against "
              "the offline capture replay): "
           << live.replay.energyPj.mean()
           << " pJ. The energy model is unvalidated against hardware: "
              "the repository holds no reference measurements.";
        report.note(os.str());
    }

    if (!trace) {
        reportEndToEnd(report, untraced.iters, setups, peakRss);
        report.note(std::to_string(statsUs.size()) + " STATS replies");
        fs::remove_all(plan.captureDir);
        return;
    }

    for (const auto &[name, unit] : layerMetrics())
        report.metric(name, 0.0, unit);
    const double sessions = static_cast<double>(traced.iters.size());
    uint64_t sessionFrames = 0, sessionBytes = 0;
    for (const auto &s : plan.streams) {
        const uint64_t f = (s.size() + kFrame - 1) / kFrame;
        sessionFrames += f;
        // Hello (header + 8) + Write frames + Bye (header only).
        sessionBytes += serve::frameHeaderBytes * (f + 2) + 8 +
                        s.size() * tracefile::recordBytes;
    }
    report.metric("serve.frames", sessionFrames, "count");
    report.metric("serve.bytes_sent", sessionBytes, "B");
    report.metric("serve.send_busy_s", traced.sendS / sessions, "s");
    report.metric("serve.ack_wait_s", traced.ackS / sessions, "s");
    std::vector<double> p99;
    for (const auto &it : traced.iters)
        p99.push_back(quantile(it.acksUs, 0.99));
    report.metric("serve.ack_rtt_p99_us", median(p99), "us");
    uint64_t stalls = 0;
    double maxW = 0, sumW = 0;
    for (const auto &bank : snap.at("banks_detail").array) {
        stalls += bank.at("stalls").asU64();
        const double w = bank.at("writes").asDouble();
        maxW = std::max(maxW, w);
        sumW += w;
    }
    report.metric("serve.stalls",
                  static_cast<double>(stalls) / nextSession, "count");
    report.metric("serve.queue_depth_p50", median(queueDepths), "count");
    report.metric("serve.bank_imbalance", maxW / (sumW / kBanks),
                  "ratio");
    report.metric("serve.stats_rtt_p50_us", quantile(statsUs, 0.5), "us");
    report.metric("serve.stats_rtt_p99_us", quantile(statsUs, 0.99),
                  "us");

    // Capture write side: re-write session 0's captured records
    // through the public writer (v3 + lz, as the server captures).
    {
        std::vector<trace::WriteTransaction> recs;
        for (unsigned c = 0; c < kBanks; ++c) {
            const auto src = tracefile::openTraceSource(
                plan.captureDir + "/stream-" + std::to_string(c) +
                ".wlctrc");
            auto cur = src->open({});
            while (auto t = cur->next())
                recs.push_back(*t);
        }
        const std::string out = opts.workDir + "/capture-rewrite.wlctrc";
        std::vector<double> times;
        for (int i = 0; i < 3; ++i) {
            const auto t0 = Clock::now();
            tracefile::WriterOptions wo;
            wo.format = tracefile::TraceFormat::v3;
            wo.codec = tracefile::BlockCodec::lz;
            tracefile::TraceFileWriter w(out, wo);
            for (const auto &t : recs)
                w.write(t);
            w.close();
            times.push_back(since(t0));
        }
        const double raw =
            static_cast<double>(recs.size()) * tracefile::recordBytes;
        report.metric("tracefile.capture_mb_per_s",
                      raw / 1e6 / median(times), "MB/s");
        report.metric("tracefile.capture_ratio",
                      raw / static_cast<double>(fs::file_size(out)),
                      "ratio");
        fs::remove(out);
    }
    const double untracedRate =
        totalWrites(untraced.iters) / totalSeconds(untraced.iters);
    const double tracedRate =
        totalWrites(traced.iters) / totalSeconds(traced.iters);
    report.metric("tracing.overhead_ratio", untracedRate / tracedRate,
                  "ratio");
    report.metric("error_rate", report.errorRate(), "ratio");

    std::vector<const SpanLog *> all = {&pollLog};
    for (const auto &l : logs)
        all.push_back(&l);
    const std::string spanPath = spansPath(opts);
    writeSpans(spanPath, all);
    std::ostringstream os;
    os << "tracing overhead: untraced " << untracedRate
       << " writes/s, traced " << tracedRate
       << " writes/s; spans written to " << spanPath;
    report.note(os.str());
    fs::remove_all(plan.captureDir);
}

} // namespace perfbench
