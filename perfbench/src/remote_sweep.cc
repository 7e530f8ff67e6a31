/**
 * @file
 * remote-sweep: a RemoteBackend head with two spawned wlcrc_worker
 * processes runs a grid of many small points. Half of the grid is
 * pre-stored in the result cache at set-up, so every sweep reads
 * cache hits for that half and replays and stores the other half;
 * after each sweep (untimed) the fresh entries are removed again so
 * the next sweep does the same work. Spec serialization, WRK1
 * framing, the JSON result parse and worker polling are a visible
 * share of each point here.
 */

#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "runner/backend.hh"
#include "runner/grid.hh"
#include "runner/json_mini.hh"
#include "runner/remote.hh"
#include "runner/report.hh"
#include "runner/result_cache.hh"
#include "runner/runner.hh"
#include "runner/spec_codec.hh"

namespace perfbench
{

namespace
{

using namespace wlcrc;
using runner::ExperimentResult;
using runner::ExperimentSpec;
namespace fs = std::filesystem;

/** Writes per grid point: small, so per-point overhead shows. */
constexpr uint64_t kPointLines = 1000;
/** Seeds per (scheme, workload); the first half is pre-stored. */
constexpr uint64_t kSeedsPerCell = 4;

/** Keeps the timed spec/report codec calls from being elided. */
volatile std::size_t codecSink = 0;

/**
 * CacheStore decorator recording a cache.get / cache.put span for
 * every call into the store below.
 */
class TimingStore final : public runner::CacheStore
{
  public:
    explicit TimingStore(std::shared_ptr<runner::CacheStore> inner)
        : inner_(std::move(inner))
    {}

    const char *kind() const override { return inner_->kind(); }

    std::optional<std::string>
    get(const std::string &hashHex) override
    {
        const int64_t t0 = nowNs();
        auto r = inner_->get(hashHex);
        record("cache.get", t0);
        return r;
    }

    void
    put(const std::string &hashHex, const std::string &entry) override
    {
        const int64_t t0 = nowNs();
        inner_->put(hashHex, entry);
        record("cache.put", t0);
    }

    /** The recorded spans; read only after the sweeps finished. */
    const SpanLog &log() const { return log_; }

  private:
    void
    record(const char *name, int64_t t0)
    {
        const int64_t t1 = nowNs();
        std::lock_guard lock(mutex_);
        log_.add(name, -1, log_.spans().size(), t0, t1);
    }

    std::shared_ptr<runner::CacheStore> inner_;
    std::mutex mutex_;
    SpanLog log_;
};

struct RemotePlan
{
    std::vector<ExperimentSpec> specs;
    std::vector<bool> prestored; //!< per spec: served from the cache
    std::shared_ptr<runner::RemoteBackend> head;
    std::shared_ptr<runner::DirCacheStore> store;
    double spawnS = 0; //!< worker spawn + first point
};

/**
 * Start the head, spawn the workers (forced by a one-point warm-up
 * run, which returns once a worker has connected and answered) and
 * pre-warm a fresh cache with the first half of the seeds.
 */
RemotePlan
setupRemote(const Options &opts, int rep)
{
    RemotePlan plan;
    std::vector<uint64_t> seeds;
    for (uint64_t k = 0; k < kSeedsPerCell; ++k)
        seeds.push_back(opts.seed * kSeedsPerCell + k);
    plan.specs = runner::ExperimentGrid()
                     .schemes({"Baseline", "WLCRC-16"})
                     .workloads({"gcc", "lesl", "milc", "mcf", "lbm",
                                 "wrf", "sopl", "cann"})
                     .lines(kPointLines)
                     .seeds(seeds)
                     .expand();
    for (const auto &s : plan.specs)
        plan.prestored.push_back(s.seed <
                                 opts.seed * kSeedsPerCell +
                                     kSeedsPerCell / 2);

    runner::RemoteBackendOptions ropts;
    ropts.workerBinary = opts.workerBin;
    ropts.spawnWorkers = kJobs;
    plan.head = std::make_shared<runner::RemoteBackend>(ropts);
    const auto t0 = Clock::now();
    ExperimentSpec warm = plan.specs.front();
    warm.lines = 1;
    const auto w = plan.head->run({warm}, kJobs, nullptr);
    plan.spawnS = since(t0);
    if (!w.at(0).ok)
        throw std::runtime_error("remote warm-up point failed: " +
                                 w[0].error);

    const std::string dir =
        opts.workDir + "/remote-cache-" + std::to_string(rep);
    fs::remove_all(dir);
    plan.store = std::make_shared<runner::DirCacheStore>(dir);
    std::vector<ExperimentSpec> warmSpecs;
    for (std::size_t i = 0; i < plan.specs.size(); ++i)
        if (plan.prestored[i])
            warmSpecs.push_back(plan.specs[i]);
    runner::RunnerOptions ro;
    ro.backend = std::make_shared<runner::SerialBackend>();
    ro.cacheStore = plan.store;
    runner::ExperimentRunner(ro).run(warmSpecs);
    return plan;
}

void
teardown(RemotePlan &plan)
{
    if (plan.head)
        plan.head->stop();
    if (plan.store)
        fs::remove_all(plan.store->dir());
}

struct Measured
{
    std::vector<Iteration> iters; //!< one per sweep
    runner::RunStats stats;       //!< of the last sweep
};

/**
 * Sweep until @p budget host seconds are measured. With @p points,
 * each replayed point records a remote.point span from the backend
 * start to its progress callback.
 *
 * Idle workers re-poll the head every 50 ms, so when a sweep starts
 * relative to that cycle decides how long its first points wait.
 * An untimed pause drawn uniformly from [0, 50) ms (seeded) before
 * each sweep spreads the starts over the cycle; without it the
 * loop's fixed period locks onto one phase per run and the measured
 * wait flips between runs.
 */
Measured
measureRemote(const RemotePlan &plan,
              const std::shared_ptr<runner::CacheStore> &store,
              const std::vector<std::string> &reference, double budget,
              uint64_t seed, Report &report, SpanLog *points = nullptr)
{
    Measured m;
    std::mt19937_64 dither(seed);
    std::vector<std::string> fresh;
    for (std::size_t i = 0; i < plan.specs.size(); ++i)
        if (!plan.prestored[i])
            fresh.push_back(plan.store->entryPath(
                runner::specHashHex(plan.specs[i])));
    while (totalSeconds(m.iters) < budget) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::uniform_int_distribution<int>(0, 49999)(dither)));
        Iteration it;
        runner::RunStats stats;
        runner::RunnerOptions ro;
        ro.jobs = kJobs;
        ro.backend = plan.head;
        ro.cacheStore = store;
        ro.stats = &stats;
        // All misses are queued when the backend starts, so a
        // point's completion time is its submit-to-result latency.
        int64_t startNs = 0;
        ro.progress = [&it, &startNs, points](const runner::RunProgress &p) {
            const int64_t now = nowNs();
            if (!p.tasksDone) {
                startNs = now;
                return;
            }
            it.acksUs.push_back(p.elapsedSec * 1e6);
            if (points)
                points->add("remote.point", -1, p.tasksDone, startNs, now);
        };
        const double c0 = cpuSelf();
        const auto t0 = Clock::now();
        const auto results = runner::ExperimentRunner(ro).run(plan.specs);
        it.seconds = since(t0);
        it.cpu = cpuSelf() - c0;

        report.attempt(results.size());
        uint64_t bad = 0;
        for (std::size_t i = 0; i < results.size(); ++i)
            bad += !results[i].ok || pointText(results[i]) != reference[i];
        report.fail(bad, "points failed or differ from the SerialBackend "
                         "reference");
        if (stats.cacheHits * 2 != plan.specs.size() ||
            stats.storeFailures != 0)
            report.fail(1, "cache served " +
                               std::to_string(stats.cacheHits) +
                               " hits, " +
                               std::to_string(stats.storeFailures) +
                               " store failures");
        for (std::size_t i = 0; i < results.size(); ++i)
            if (!plan.prestored[i])
                it.writes += results[i].replay.writes;
        it.points = results.size();
        m.iters.push_back(std::move(it));
        m.stats = stats;
        for (const auto &path : fresh)
            fs::remove(path);
    }
    return m;
}

/** Sum of the head's named fault counters. */
uint64_t
faultTotal(const std::map<std::string, uint64_t> &faults)
{
    uint64_t n = 0;
    for (const auto &[name, count] : faults)
        n += count;
    return n;
}

double
pointRate(const Measured &m)
{
    return m.iters.size() * m.iters.front().points /
           totalSeconds(m.iters);
}

/** Median microseconds per item of @p fn over @p items, 5 passes. */
template <typename Fn>
double
usPerItem(std::size_t items, Fn &&fn)
{
    std::vector<double> passes;
    for (int p = 0; p < 5; ++p) {
        const auto t0 = Clock::now();
        fn();
        passes.push_back(since(t0) * 1e6 / items);
    }
    return median(passes);
}

} // namespace

void
runRemoteSweep(const Options &opts, Report &report)
{
    if (opts.workerBin.empty())
        throw std::invalid_argument("remote-sweep needs --worker-bin");
    RemotePlan plan;
    std::vector<double> setups;
    for (int i = 0; i < (opts.trace ? 1 : kSetups); ++i) {
        teardown(plan);
        const auto t0 = Clock::now();
        plan = setupRemote(opts, i);
        setups.push_back(since(t0));
    }
    // Children reaped so far belong to discarded set-ups.
    const double childCpu1 = cpuChildren();

    runner::RunnerOptions serial;
    serial.backend = std::make_shared<runner::SerialBackend>();
    const auto reference =
        runner::ExperimentRunner(serial).run(plan.specs);
    report.attempt(reference.size());
    for (const auto &r : reference)
        if (!r.ok)
            report.fail(1, "serial reference failed: " + r.error);
    const auto referenceTexts = pointTexts(reference);
    noteEnergy(reference, report);

    if (!opts.trace) {
        const Measured m = measureRemote(plan, plan.store, referenceTexts,
                                         opts.seconds, opts.seed, report);
        plan.head->stop(); // reaps the workers: their CPU lands below
        report.fail(faultTotal(plan.head->errorCounts()),
                    "remote fault counters are non-zero");
        reportEndToEnd(report, m.iters, setups, peakRssMb(),
                       cpuChildren() - childCpu1);
        report.note("each sweep: " + m.stats.summary());
        teardown(plan);
        return;
    }

    const Measured untraced =
        measureRemote(plan, plan.store, referenceTexts, opts.seconds / 2,
                      opts.seed, report);
    const auto timing = std::make_shared<TimingStore>(plan.store);
    SpanLog pointLog;
    const Measured traced =
        measureRemote(plan, timing, referenceTexts, opts.seconds / 2,
                      opts.seed + 1, report, &pointLog);
    plan.head->stop();
    const auto faults = plan.head->errorCounts();
    report.fail(faultTotal(faults), "remote fault counters are non-zero");

    for (const auto &[name, unit] : layerMetrics())
        report.metric(name, 0.0, unit);
    const double iters = static_cast<double>(traced.iters.size());
    std::vector<double> latencies;
    for (const auto &it : traced.iters)
        latencies.insert(latencies.end(), it.acksUs.begin(),
                         it.acksUs.end());
    report.metric("remote.point_latency_p50_ms",
                  quantile(latencies, 0.5) * 1e-3, "ms");
    report.metric("remote.point_latency_p99_ms",
                  quantile(latencies, 0.99) * 1e-3, "ms");
    report.metric("remote.reissued",
                  faults.count("reissued") ? faults.at("reissued") : 0,
                  "count");
    report.metric("remote.fault_total", faultTotal(faults), "count");
    report.metric("remote.worker_spawn_s", plan.spawnS, "s");
    report.metric("cache.hits", traced.stats.cacheHits, "count");
    report.metric("cache.misses", traced.stats.replayed, "count");
    report.metric("cache.stores", traced.stats.stored, "count");
    report.metric("cache.store_failures", traced.stats.storeFailures,
                  "count");
    auto self = selfSeconds({&timing->log()});
    report.metric("cache.get_busy_s", self["cache.get"] / iters, "s");
    report.metric("cache.put_busy_s", self["cache.put"] / iters, "s");

    // Codec layers of the sweep, timed on its own specs and results.
    const std::size_t n = plan.specs.size();
    std::vector<std::string> texts(n), objects(n);
    for (std::size_t i = 0; i < n; ++i) {
        texts[i] = runner::canonicalSpec(plan.specs[i]);
        std::ostringstream os;
        runner::writeResultObject(os, reference[i]);
        objects[i] = os.str();
    }
    std::size_t sink = 0; // folded into codecSink below
    report.metric("spec.serialize_us_per_point", usPerItem(n, [&] {
                      for (const auto &s : plan.specs)
                          sink += runner::canonicalSpec(s).size();
                  }),
                  "us");
    report.metric("spec.parse_us_per_point", usPerItem(n, [&] {
                      for (const auto &t : texts)
                          sink += runner::parseSpec(t).lines;
                  }),
                  "us");
    report.metric("report.parse_us_per_point", usPerItem(n, [&] {
                      for (std::size_t i = 0; i < n; ++i)
                          sink += runner::readResultObject(
                                      runner::parseJson(objects[i]),
                                      plan.specs[i])
                                      .replay.writes;
                  }),
                  "us");
    codecSink = sink;
    report.metric("tracing.overhead_ratio",
                  pointRate(untraced) / pointRate(traced),
                  "ratio");
    report.metric("error_rate", report.errorRate(), "ratio");
    std::ostringstream os;
    os << "tracing overhead: untraced "
       << pointRate(untraced) << " points/s, traced "
       << pointRate(traced) << " points/s";
    const std::string spanPath = spansPath(opts);
    writeSpans(spanPath, {&pointLog, &timing->log()});
    os << "; spans written to " << spanPath;
    report.note(os.str());
    teardown(plan);
}

} // namespace perfbench
