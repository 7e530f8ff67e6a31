/**
 * @file
 * The two in-process sweep workloads.
 *
 *  - synth-sweep: thread backend, jobs 2, {Baseline, WLCRC-16} x
 *    {gcc, lesl, milc, mcf}, synthesized, 16 shards. Every shard
 *    re-synthesizes its point's whole stream and keeps 1/16 of it, so
 *    this workload carries the runner's synthesis cost.
 *  - trace-replay: Baseline over a sorted 4-program WLCTRC03+lz mix,
 *    range partition, 4 shards, jobs 2, default decode-ahead. No
 *    synthesis in the measured phase and a light codec: decode, LZ
 *    and the device carry it.
 *
 * The untraced run times ExperimentRunner::run on the thread backend.
 * The traced run drives the same specs through a shard loop of this
 * file's own (mirrorShard) that calls the layers' public functions
 * and records one span per layer per 32-write block; its merged
 * results must equal the serial reference bit for bit.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "common/simd.hh"
#include "pcm/device.hh"
#include "pcm/disturbance.hh"
#include "runner/backend.hh"
#include "runner/grid.hh"
#include "runner/runner.hh"
#include "trace/workload.hh"
#include "tracefile/source.hh"
#include "tracefile/writer.hh"
#include "wlcrc/factory.hh"

namespace perfbench
{

namespace
{

using namespace wlcrc;
using runner::ExperimentResult;
using runner::ExperimentSpec;

constexpr std::size_t kBlock = trace::Replayer::batchLines;
/** Writes per synth-sweep grid point. */
constexpr uint64_t kSynthLines = 12000;
/** Records in the trace-replay container. */
constexpr uint64_t kTraceRecords = 200000;

/** What a sweep's set-up hands to the measured phase. */
struct SweepPlan
{
    std::vector<ExperimentSpec> specs;
    /** trace-replay: the sorted container (null for synth-sweep). */
    std::shared_ptr<tracefile::MappedTraceSource> source;
};

/**
 * Count failed points and points whose CSV row or JSON object
 * differs from the serial reference; both are failures of the run.
 */
void
checkAgainst(const std::vector<ExperimentResult> &results,
             const std::vector<std::string> &reference, Report &report)
{
    report.attempt(results.size());
    uint64_t bad = 0;
    for (std::size_t i = 0; i < results.size(); ++i)
        bad += !results[i].ok || pointText(results[i]) != reference[i];
    report.fail(bad, "points failed or differ from the SerialBackend "
                     "reference");
}

// ---------------------------------------------------------------
// Untraced phase: the runner on the thread backend.
// ---------------------------------------------------------------

/** One Iteration per sweep until @p budget host seconds are timed. */
std::vector<Iteration>
measureRunner(const SweepPlan &plan, const std::vector<std::string> &reference,
              double budget, Report &report)
{
    std::vector<Iteration> iters;
    Iteration it;
    runner::RunnerOptions ro;
    ro.jobs = kJobs;
    ro.backend = std::make_shared<runner::ThreadBackend>();
    // Every shard task of a sweep is submitted when run() starts, so
    // a task's completion time is its submit-to-acknowledge latency.
    ro.progress = [&it](const runner::RunProgress &p) {
        if (p.tasksDone)
            it.acksUs.push_back(p.elapsedSec * 1e6);
    };
    const runner::ExperimentRunner runner(ro);
    while (totalSeconds(iters) < budget) {
        it = Iteration{};
        const double c0 = cpuSelf();
        const auto t0 = Clock::now();
        const auto results = runner.run(plan.specs);
        it.seconds = since(t0);
        it.cpu = cpuSelf() - c0;
        checkAgainst(results, reference, report);
        for (const auto &r : results)
            it.writes += r.replay.writes;
        it.points = results.size();
        iters.push_back(std::move(it));
    }
    return iters;
}

// ---------------------------------------------------------------
// Traced phase: the benchmark's own shard loop.
// ---------------------------------------------------------------

/** What one mirrored shard task produced and counted. */
struct ShardTrace
{
    trace::ReplayResult replay;
    uint64_t synthesized = 0; //!< synthesizer records drawn
    uint64_t primes = 0;      //!< first-touch (unmeasured) encodes
    uint64_t batches = 0;     //!< encodeBatch calls
    uint64_t batchJobs = 0;   //!< jobs over all encodeBatch calls
    uint64_t lines = 0;       //!< device lines allocated
    uint64_t blocksVisited = 0;
    double seconds = 0;       //!< task span duration
};

/**
 * Replay shard @p shard of @p spec exactly as the runner's shard
 * task does (Replayer::runBatch semantics), calling the layers
 * directly. Per 32-write block it records the fill span (synthesis
 * or cursor) and one packed span per layer: codec, pcm and stats
 * work interleaves per distinct-address group inside a block, so
 * their spans carry the measured durations laid end to end after
 * the fill span rather than their true positions.
 */
ShardTrace
mirrorShard(const ExperimentSpec &spec, unsigned shard, SpanLog &log,
            uint64_t traceId)
{
    const int32_t task = log.open("runner.task", -1, traceId);
    ShardTrace out;

    const auto energy = pcm::EnergyModel::withHighStateEnergies(
        spec.device.s3, spec.device.s4);
    const auto codec = core::makeCodec(spec.scheme, energy);
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
    pcm::Device device(codec->cellCount(), unit,
                       runner::shardSeed(spec.seed, shard, spec.shards));

    std::optional<trace::TraceSynthesizer> synth;
    std::unique_ptr<tracefile::TraceCursor> cursor;
    const char *fillName = "trace.synth";
    if (spec.source) {
        fillName = "tracefile.cursor";
        tracefile::ShardFilter filter{spec.shards > 1 ? spec.shards : 1,
                                      shard};
        if (spec.partition == tracefile::Partition::range &&
            filter.shards > 1)
            filter = tracefile::rangePartition(
                spec.source->addrBounds(), filter.shards, shard);
        cursor = spec.source->open(filter);
    } else {
        synth.emplace(trace::WorkloadProfile::byName(spec.workload),
                      spec.seed);
    }
    const auto fill = [&](trace::WriteTransaction &slot) {
        if (cursor) {
            auto t = cursor->next();
            if (!t)
                return false;
            slot = *t;
            return true;
        }
        while (out.synthesized < spec.lines) {
            const trace::WriteTransaction &t = synth->next();
            ++out.synthesized;
            if (runner::shardOf(t.lineAddr, spec.shards) == shard) {
                slot = t;
                return true;
            }
        }
        return false;
    };

    std::vector<trace::WriteTransaction> block(kBlock);
    std::vector<pcm::TargetLine> targets(kBlock);
    std::array<std::vector<pcm::State> *, kBlock> stored{};
    std::array<bool, kBlock> fresh{};
    std::array<coset::LineCodec::EncodeJob, kBlock> jobs{};
    std::array<pcm::WriteStats, kBlock> st{};
    coset::EncodeScratch scratch;
    pcm::TargetLine staging;
    trace::ReplayResult &res = out.replay;

    for (;;) {
        const int32_t blk = log.open("replay.block", task, traceId);
        const int64_t f0 = nowNs();
        std::size_t n = 0;
        while (n < kBlock && fill(block[n]))
            ++n;
        const int64_t f1 = nowNs();
        int64_t codecNs = 0, pcmNs = 0, statsNs = 0;

        // Maximal runs of distinct addresses, as Replayer::replayBlock
        // splits them: a repeated line must see the previous write.
        for (std::size_t i = 0; i < n;) {
            std::size_t j = i + 1;
            for (; j < n; ++j) {
                bool dup = false;
                for (std::size_t k = i; k < j && !dup; ++k)
                    dup = block[k].lineAddr == block[j].lineAddr;
                if (dup)
                    break;
            }
            const std::size_t cnt = j - i;

            const int64_t t0 = nowNs();
            for (std::size_t k = 0; k < cnt; ++k) {
                const uint64_t addr = block[i + k].lineAddr;
                stored[k] = device.tryLine(addr);
                fresh[k] = stored[k] == nullptr;
                if (fresh[k]) {
                    stored[k] = &device.line(addr);
                    ++out.lines;
                }
            }
            const int64_t t1 = nowNs();
            for (std::size_t k = 0; k < cnt; ++k) {
                auto &line = *stored[k];
                if (fresh[k]) {
                    // Prime: store the old contents, unmeasured.
                    codec->encodeInto(block[i + k].oldData,
                                      {line.data(), line.size()},
                                      scratch, staging);
                    std::copy_n(staging.states(), staging.size(),
                                line.begin());
                    ++out.primes;
                }
                jobs[k] = {&block[i + k].newData, line.data(),
                           &targets[k]};
            }
            codec->encodeBatch(jobs.data(), cnt, scratch);
            ++out.batches;
            out.batchJobs += cnt;
            const int64_t t2 = nowNs();
            for (std::size_t k = 0; k < cnt; ++k)
                st[k] = device.writeLine(block[i + k].lineAddr,
                                         *stored[k], targets[k],
                                         spec.device.vnr);
            const int64_t t3 = nowNs();
            for (std::size_t k = 0; k < cnt; ++k) {
                const pcm::TargetLine &target = targets[k];
                if (target.size() == lineSymbols + 1 &&
                    target.aux(lineSymbols) &&
                    target[lineSymbols] != pcm::State::S2)
                    ++res.compressedWrites;
                const pcm::WriteStats &s = st[k];
                res.energyPj.add(s.totalEnergyPj());
                res.dataEnergyPj.add(s.dataEnergyPj);
                res.auxEnergyPj.add(s.auxEnergyPj);
                res.updatedCells.add(s.totalUpdated());
                res.dataUpdated.add(s.dataUpdated);
                res.auxUpdated.add(s.auxUpdated);
                res.disturbErrors.add(s.totalDisturbed());
                res.dataDisturbed.add(s.dataDisturbed);
                res.auxDisturbed.add(s.auxDisturbed);
                res.vnrIterations += s.vnrIterations;
                ++res.writes;
            }
            const int64_t t4 = nowNs();
            pcmNs += (t1 - t0) + (t3 - t2);
            codecNs += t2 - t1;
            statsNs += t4 - t3;
            i = j;
        }

        log.add(fillName, blk, traceId, f0, f1);
        int64_t at = f1;
        log.add("codec", blk, traceId, at, at + codecNs);
        at += codecNs;
        log.add("pcm", blk, traceId, at, at + pcmNs);
        at += pcmNs;
        log.add("stats", blk, traceId, at, at + statsNs);
        log.close(blk);
        if (n < kBlock)
            break;
    }
    if (cursor)
        out.blocksVisited = cursor->blocksVisited();
    log.close(task);
    const Span &span = log.spans()[task];
    out.seconds = (span.endNs - span.startNs) * 1e-9;
    return out;
}

/** Per-iteration counts of the traced phase (exact across runs). */
struct TracedCounts
{
    uint64_t tasks = 0, writes = 0, synthesized = 0, primes = 0;
    uint64_t batches = 0, batchJobs = 0, blocksVisited = 0;
    uint64_t linesResident = 0; //!< largest per-point footprint
};

struct Traced
{
    double seconds = 0;
    uint64_t writes = 0;
    uint64_t iterations = 0;
    TracedCounts counts; //!< of the last iteration
    std::vector<double> imbalance; //!< per point: max/mean task time
    std::vector<SpanLog> logs;
};

/** Mirror every (spec, shard) task on kJobs threads, merge, check. */
Traced
measureMirror(const SweepPlan &plan, const std::vector<std::string> &reference,
              double budget, Report &report)
{
    Traced tr;
    tr.logs.resize(kJobs);
    struct Task
    {
        std::size_t spec;
        unsigned shard;
    };
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < plan.specs.size(); ++i)
        for (unsigned s = 0;
             s < runner::effectiveShards(plan.specs[i]); ++s)
            tasks.push_back({i, s});

    while (tr.seconds < budget) {
        std::vector<ShardTrace> outs(tasks.size());
        std::atomic<std::size_t> next{0};
        const auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (unsigned w = 0; w < kJobs; ++w) {
            threads.emplace_back([&, w] {
                for (std::size_t k; (k = next.fetch_add(1)) <
                                    tasks.size();) {
                    outs[k] = mirrorShard(plan.specs[tasks[k].spec],
                                          tasks[k].shard, tr.logs[w],
                                          tr.iterations * tasks.size() +
                                              k);
                }
            });
        }
        for (auto &t : threads)
            t.join();

        // Merge in shard order, as ThreadBackend's mergeShards does.
        SpanLog &mergeLog = tr.logs[0];
        std::vector<ExperimentResult> results;
        TracedCounts c;
        c.tasks = tasks.size();
        std::size_t k = 0;
        for (const auto &spec : plan.specs) {
            const int32_t span =
                mergeLog.open("stats.merge", -1, tr.iterations);
            ExperimentResult r;
            r.spec = spec;
            uint64_t lines = 0;
            double maxS = 0, sumS = 0;
            const unsigned shards = runner::effectiveShards(spec);
            for (unsigned s = 0; s < shards; ++s, ++k) {
                const ShardTrace &o = outs[k];
                r.replay.merge(o.replay);
                c.synthesized += o.synthesized;
                c.primes += o.primes;
                c.batches += o.batches;
                c.batchJobs += o.batchJobs;
                c.blocksVisited += o.blocksVisited;
                lines += o.lines;
                maxS = std::max(maxS, o.seconds);
                sumS += o.seconds;
            }
            mergeLog.close(span);
            r.simdKernel =
                simd::kernelName(simd::activeKernel());
            r.ok = true;
            c.writes += r.replay.writes;
            c.linesResident = std::max(c.linesResident, lines);
            tr.imbalance.push_back(maxS / (sumS / shards));
            results.push_back(std::move(r));
        }
        tr.seconds += since(t0);
        checkAgainst(results, reference, report);
        tr.writes += c.writes;
        tr.counts = c;
        ++tr.iterations;
    }
    return tr;
}

/**
 * Decode probe: read (verify + inflate) every block the shard
 * cursors of @p spec visit, synchronously, so decode cost is
 * measured apart from the decode-ahead producer threads that
 * overlap it with replay. @return {seconds, raw bytes} of one pass.
 */
std::pair<double, double>
decodeProbe(const ExperimentSpec &spec,
            const tracefile::MappedTraceSource &src)
{
    const tracefile::MappedTrace &mt = src.trace();
    std::vector<uint8_t> scratch;
    double seconds = 0, bytes = 0;
    for (unsigned s = 0; s < spec.shards; ++s) {
        const auto filter = tracefile::rangePartition(
            src.addrBounds(), spec.shards, s);
        const auto t0 = Clock::now();
        for (uint64_t b = 0; b < mt.blockCount(); ++b) {
            const auto &info = mt.blockInfo(b);
            if (!tracefile::blockIntersects(filter, info.minAddr,
                                            info.maxAddr))
                continue;
            const auto view = mt.readBlock(b, scratch);
            bytes += static_cast<double>(view.count) *
                     tracefile::recordBytes;
        }
        seconds += since(t0);
    }
    return {seconds, bytes};
}

/**
 * The sweep harness shared by both workloads: set up kSetups times
 * (setup_s is the median, the last plan is kept), compute the
 * serial reference, then measure untraced (and, traced, the
 * mirror).
 */
void
runSweep(const Options &opts, Report &report,
         const std::function<SweepPlan()> &setup)
{
    SweepPlan plan;
    std::vector<double> setups;
    for (int i = 0; i < (opts.trace ? 1 : kSetups); ++i) {
        plan = SweepPlan{}; // release the previous plan first
        const auto t0 = Clock::now();
        plan = setup();
        setups.push_back(since(t0));
    }

    runner::RunnerOptions serial;
    serial.backend = std::make_shared<runner::SerialBackend>();
    const auto reference = runner::ExperimentRunner(serial).run(plan.specs);
    report.attempt(reference.size());
    for (const auto &r : reference)
        if (!r.ok)
            report.fail(1, "serial reference failed: " + r.error);
    const auto referenceTexts = pointTexts(reference);
    noteEnergy(reference, report);

    if (!opts.trace) {
        const auto iters =
            measureRunner(plan, referenceTexts, opts.seconds, report);
        reportEndToEnd(report, iters, setups, peakRssMb());
        return;
    }

    // Traced run: half the budget untraced, half through the mirror.
    const auto untraced =
        measureRunner(plan, referenceTexts, opts.seconds / 2, report);
    Traced tr = measureMirror(plan, referenceTexts, opts.seconds / 2,
                              report);
    std::vector<const SpanLog *> logs;
    for (const auto &l : tr.logs)
        logs.push_back(&l);
    auto self = selfSeconds(logs);
    const double iters = static_cast<double>(tr.iterations);
    const double writes = static_cast<double>(tr.writes);
    const TracedCounts &c = tr.counts;

    for (const auto &[name, unit] : layerMetrics())
        report.metric(name, 0.0, unit);
    if (!plan.source) {
        report.metric("trace.synth_txns", c.synthesized, "count");
        report.metric("trace.synth_busy_s",
                      self["trace.synth"] / iters, "s");
        report.metric("trace.synth_useful_ratio",
                      static_cast<double>(c.writes) / c.synthesized,
                      "ratio");
    }
    report.metric("codec.busy_s", self["codec"] / iters, "s");
    report.metric("codec.ns_per_write", self["codec"] / writes * 1e9,
                  "ns");
    report.metric("codec.useful_ratio",
                  static_cast<double>(c.writes) / (c.writes + c.primes),
                  "ratio");
    report.metric("codec.batch_fill",
                  static_cast<double>(c.batchJobs) / c.batches / kBlock,
                  "ratio");
    report.metric("pcm.busy_s", self["pcm"] / iters, "s");
    report.metric("pcm.ns_per_write", self["pcm"] / writes * 1e9, "ns");
    report.metric("pcm.lines_resident", c.linesResident, "count");
    report.metric("stats.busy_s",
                  (self["stats"] + self["stats.merge"]) / iters, "s");
    if (plan.source) {
        const auto &spec = plan.specs.front();
        const double total = static_cast<double>(
            plan.source->trace().blockCount() * spec.shards);
        report.metric("tracefile.blocks_visited", c.blocksVisited,
                      "count");
        report.metric("tracefile.blocks_total", total, "count");
        report.metric("tracefile.prune_ratio",
                      1.0 - c.blocksVisited / total, "ratio");
        std::vector<double> probe;
        double bytes = 0;
        for (int i = 0; i < 5; ++i) {
            const auto [sec, b] = decodeProbe(spec, *plan.source);
            probe.push_back(sec);
            bytes = b;
        }
        report.metric("tracefile.decode_busy_s", median(probe), "s");
        report.metric("tracefile.decode_mb_per_s",
                      bytes / 1e6 / median(probe), "MB/s");
        report.metric("tracefile.cursor_wait_s",
                      self["tracefile.cursor"] / iters, "s");
    }
    const auto taskS = durations(logs, "runner.task");
    report.metric("runner.tasks", c.tasks, "count");
    report.metric("runner.task_s_p50", quantile(taskS, 0.5), "s");
    report.metric("runner.task_s_max", quantile(taskS, 1.0), "s");
    report.metric("runner.shard_imbalance", median(tr.imbalance),
                  "ratio");
    const double untracedRate =
        totalWrites(untraced) / totalSeconds(untraced);
    const double tracedRate = writes / tr.seconds;
    report.metric("tracing.overhead_ratio", untracedRate / tracedRate,
                  "ratio");
    report.metric("error_rate", report.errorRate(), "ratio");
    std::ostringstream os;
    os << "tracing overhead: untraced " << untracedRate
       << " writes/s, traced " << tracedRate << " writes/s ("
       << tr.iterations << " traced sweeps, " << taskS.size()
       << " task spans)";
    report.note(os.str());
    const std::string spanPath = spansPath(opts);
    writeSpans(spanPath, logs);
    report.note("spans written to " + spanPath);
}

} // namespace

void
runSynthSweep(const Options &opts, Report &report)
{
    runSweep(opts, report, [&] {
        SweepPlan plan;
        plan.specs = runner::ExperimentGrid()
                         .schemes({"Baseline", "WLCRC-16"})
                         .workloads({"gcc", "lesl", "milc", "mcf"})
                         .lines(kSynthLines)
                         .seed(opts.seed)
                         .shards(16)
                         .expand();
        // Lazy set-up (first-touch allocation, codec tables, pool
        // threads) finishes in a 1/16-scale warm-up sweep, so the
        // measured sweeps start warm.
        auto warm = plan.specs;
        for (auto &s : warm)
            s.lines = kSynthLines / 16;
        runner::RunnerOptions ro;
        ro.jobs = kJobs;
        ro.backend = std::make_shared<runner::ThreadBackend>();
        runner::ExperimentRunner(ro).run(warm);
        return plan;
    });
}

void
runTraceReplay(const Options &opts, Report &report)
{
    const std::string path = opts.workDir + "/trace-replay.wlctrc";
    runSweep(opts, report, [&] {
        // Generate the 4-program mix and sort it by line address
        // (stable, so each line's write order is kept) into a
        // WLCTRC03+lz container, then warm the page cache.
        {
            trace::MixedSynthesizer mix(
                {{"lbm", 1.0}, {"wrf", 1.0}, {"sopl", 1.0},
                 {"cann", 1.0}},
                opts.seed);
            std::vector<trace::WriteTransaction> txns;
            txns.reserve(kTraceRecords);
            for (uint64_t i = 0; i < kTraceRecords; ++i)
                txns.push_back(mix.next());
            std::stable_sort(txns.begin(), txns.end(),
                             [](const trace::WriteTransaction &a,
                                const trace::WriteTransaction &b) {
                                 return a.lineAddr < b.lineAddr;
                             });
            tracefile::WriterOptions wo;
            wo.format = tracefile::TraceFormat::v3;
            wo.codec = tracefile::BlockCodec::lz;
            tracefile::TraceFileWriter writer(path, wo);
            for (const auto &t : txns)
                writer.write(t);
            writer.close();
        }
        {
            std::ifstream in(path, std::ios::binary);
            std::vector<char> buf(1 << 20);
            while (in.read(buf.data(), buf.size())) {
            }
        }
        SweepPlan plan;
        plan.source = std::make_shared<tracefile::MappedTraceSource>(path);
        ExperimentSpec spec;
        spec.scheme = "Baseline";
        spec.source = plan.source;
        spec.seed = opts.seed;
        spec.shards = 4;
        spec.partition = tracefile::Partition::range;
        plan.specs = {spec};
        return plan;
    });
}

} // namespace perfbench
