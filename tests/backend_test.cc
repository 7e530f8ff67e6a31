/**
 * @file
 * Execution-backend equivalence: serial, thread and process
 * execution of the same grid must produce byte-identical reports —
 * a backend relocates work, it never changes results. The process
 * cases run makeBackend("process"), a remote head that spawns real
 * wlcrc_worker processes, end to end: in-band error propagation,
 * the inline fallback for closure-bearing specs and a worker binary
 * that cannot start.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <sstream>

#include "common/simd.hh"
#include "pcm/disturbance.hh"
#include "runner/backend.hh"
#include "runner/grid.hh"
#include "runner/remote.hh"
#include "runner/report.hh"
#include "runner/runner.hh"
#include "tracefile/source.hh"
#include "tracefile/writer.hh"
#include "trace/workload.hh"
#include "wlcrc/factory.hh"

namespace
{

using namespace wlcrc;
using runner::ExperimentGrid;
using runner::ExperimentResult;
using runner::ExperimentRunner;
using runner::ExperimentSpec;
using runner::makeBackend;
using runner::RunnerOptions;
using runner::SerialBackend;
using runner::ThreadBackend;

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

/** The process backend: a head spawning wlcrc_worker processes. */
std::shared_ptr<const runner::ExecutionBackend>
processBackend(const std::string &worker = WLCRC_WORKER_BIN)
{
    return makeBackend("process", worker);
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

TEST(Backends, SerialThreadAndProcessAreByteIdentical)
{
    const auto grid = smallGrid();
    const std::string thread =
        runWith(std::make_shared<ThreadBackend>(), grid);
    EXPECT_EQ(runWith(std::make_shared<SerialBackend>(), grid),
              thread);
    EXPECT_EQ(runWith(nullptr, grid), thread) << "default backend";
    EXPECT_EQ(runWith(processBackend(), grid), thread);
}

TEST(Backends, ProcessBackendReplaysTraceFilesByteIdentically)
{
    namespace fs = std::filesystem;
    const fs::path path =
        fs::path(::testing::TempDir()) / "wlcrc_backend.trc";
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
    EXPECT_EQ(runWith(processBackend(), grid),
              runWith(std::make_shared<ThreadBackend>(), grid));
}

TEST(Backends, LifetimeSweepIsBackendAndJobCountInvariant)
{
    // A lifetime sweep (leveler x endurance over a workload) runs
    // single-sharded but must still be byte-identical wherever and
    // however parallel it executes — including spawned
    // wlcrc_worker processes, whose JSON result carries the full
    // lifetime block.
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
    EXPECT_EQ(runWith(std::make_shared<SerialBackend>(), grid),
              thread);
    EXPECT_EQ(runWith(processBackend(), grid), thread);
    EXPECT_EQ(runWith(std::make_shared<ThreadBackend>(), grid, 1),
              runWith(std::make_shared<ThreadBackend>(), grid, 4));
}

TEST(Backends, ProcessBackendPropagatesWorkerErrorsInBand)
{
    ExperimentSpec good;
    good.scheme = "Baseline";
    good.workload = "lesl";
    good.lines = 40;
    ExperimentSpec bad = good;
    bad.scheme = "no-such-scheme";

    RunnerOptions opts;
    opts.jobs = 2;
    opts.backend = processBackend();
    const auto results =
        ExperimentRunner(opts).run({good, bad});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("no-such-scheme"),
              std::string::npos)
        << results[1].error;
}

TEST(Backends, ProcessBackendFallsBackInlineForClosureSpecs)
{
    // codecFactory cannot cross a process boundary; the backend
    // must run such specs inline and still match in-process output.
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
    EXPECT_EQ(runWith(processBackend(), grid),
              runWith(std::make_shared<ThreadBackend>(), grid));
}

TEST(Backends, BrokenWorkerBinaryFailsThePointNotTheRun)
{
    // Every spawned worker exits at once (exec fails): run() must
    // return with each point failed in-band, not wait forever.
    const auto backend = processBackend("/no/such/worker");
    RunnerOptions opts;
    opts.jobs = 2;
    opts.backend = backend;
    const auto results =
        ExperimentRunner(opts).run(smallGrid().expand());
    ASSERT_EQ(results.size(), smallGrid().expand().size());
    for (const auto &r : results) {
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("no live workers"), std::string::npos)
            << r.error;
    }
    const auto counts =
        dynamic_cast<const runner::RemoteBackend &>(*backend)
            .errorCounts();
    EXPECT_EQ(counts.count("no-live-workers"), 1u);
    EXPECT_FALSE(counts.count("worker-died"));
}

// ------------------------------------------------ synthesis fan-out

std::string
jsonOf(const std::vector<ExperimentResult> &results)
{
    std::ostringstream os;
    runner::JsonReporter().write(os, results);
    return os.str();
}

/**
 * Independent reference for a synthesized spec: every shard draws
 * the whole stream itself, keeps the records whose address it owns
 * and step()s them one at a time on its own shardSeed device; the
 * shards then merge in shard order.
 */
ExperimentResult
perShardReference(const ExperimentSpec &spec)
{
    const auto energy = pcm::EnergyModel::withHighStateEnergies(
        spec.device.s3, spec.device.s4);
    const auto codec = core::makeCodec(spec.scheme, energy);
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
    const bool tracked =
        spec.device.wearEndurance || spec.keepWearTracker;
    ExperimentResult res;
    res.spec = spec;
    std::optional<pcm::WearTracker> wear;
    for (unsigned s = 0; s < std::max(spec.shards, 1u); ++s) {
        pcm::WearTracker shardWear(codec->cellCount());
        trace::Replayer rep(*codec, unit,
                            runner::shardSeed(spec.seed, s,
                                              spec.shards),
                            spec.device.vnr);
        if (tracked)
            rep.device().attachWearTracker(&shardWear);
        const auto replayOwn = [&](auto &&gen) {
            for (uint64_t i = 0; i < spec.lines; ++i) {
                const trace::WriteTransaction &t = gen.next();
                if (runner::shardOf(t.lineAddr, spec.shards) == s)
                    rep.step(t);
            }
        };
        if (spec.random)
            replayOwn(trace::RandomWorkload(spec.seed));
        else
            replayOwn(trace::TraceSynthesizer(
                trace::WorkloadProfile::byName(spec.workload),
                spec.seed));
        res.replay.merge(rep.result());
        if (tracked && !wear)
            wear.emplace(shardWear);
        else if (tracked)
            wear->merge(shardWear);
    }
    if (wear) {
        res.wear = wear->summary();
        res.projectedLifetime = wear->projectedLifetime(
            spec.device.wearEndurance, res.replay.writes);
        if (spec.keepWearTracker)
            res.wearTracker =
                std::make_shared<pcm::WearTracker>(*wear);
    }
    res.simdKernel = simd::kernelName(simd::activeKernel());
    res.ok = true;
    return res;
}

ExperimentSpec
fanSpec(bool random, uint64_t lines = 700)
{
    ExperimentSpec spec;
    spec.scheme = "WLCRC-16";
    spec.workload = random ? "" : "lesl";
    spec.random = random;
    spec.lines = lines;
    spec.seed = 11;
    spec.shards = 16;
    return spec;
}

std::vector<ExperimentResult>
runSpecs(std::shared_ptr<const runner::ExecutionBackend> backend,
         const std::vector<ExperimentSpec> &specs, unsigned jobs)
{
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.backend = std::move(backend);
    return ExperimentRunner(opts).run(specs);
}

TEST(FanOut, ShardGroupsFollowPoolWidth)
{
    const auto one = fanSpec(false);
    using runner::shardGroups;
    EXPECT_EQ(shardGroups({one}, 1), std::vector<unsigned>{1});
    EXPECT_EQ(shardGroups({one}, 3), std::vector<unsigned>{3});
    EXPECT_EQ(shardGroups({one}, 4), std::vector<unsigned>{4});
    EXPECT_EQ(shardGroups({one}, 64), std::vector<unsigned>{16});
    // Eight 16-shard points on two threads: one pass per point.
    EXPECT_EQ(shardGroups(std::vector<ExperimentSpec>(8, one), 2),
              std::vector<unsigned>(8, 1));
    EXPECT_EQ(shardGroups({one, fanSpec(true)}, 5),
              (std::vector<unsigned>{3, 3}));

    // Sourced specs keep one task per shard and do not count
    // towards the fanned-out width; single-shard specs do neither.
    auto sourced = one;
    sourced.workload.clear();
    sourced.source = std::make_shared<tracefile::VectorSource>(
        std::make_shared<std::vector<trace::WriteTransaction>>(4));
    sourced.shards = 5;
    auto single = one;
    single.shards = 1;
    EXPECT_EQ(shardGroups({sourced, one, single}, 4),
              (std::vector<unsigned>{5, 4, 1}));
}

TEST(FanOut, MatchesPerShardReferenceAtEveryGrouping)
{
    // jobs = G for a lone 16-shard point: 1, 2, 3 (which does not
    // divide 16) and one group per shard.
    for (const bool random : {false, true}) {
        const auto spec = fanSpec(random);
        const std::string want = jsonOf({perShardReference(spec)});
        for (const unsigned jobs : {1u, 2u, 3u, 16u}) {
            EXPECT_EQ(jsonOf(runSpecs(std::make_shared<ThreadBackend>(),
                                      {spec}, jobs)),
                      want)
                << "random=" << random << " jobs=" << jobs;
        }
        EXPECT_EQ(jsonOf({runner::runSpecSerial(spec)}), want);
        EXPECT_EQ(jsonOf(runSpecs(std::make_shared<SerialBackend>(),
                                  {spec}, 1)),
                  want);
    }
}

TEST(FanOut, ShardsWithoutRecordsStayEmpty)
{
    // Fewer writes than shards: most shards never see a record.
    for (const bool random : {false, true}) {
        const auto spec = fanSpec(random, 5);
        const auto got =
            runSpecs(std::make_shared<ThreadBackend>(), {spec}, 3);
        ASSERT_TRUE(got[0].ok) << got[0].error;
        EXPECT_EQ(got[0].replay.writes, 5u);
        EXPECT_EQ(jsonOf(got), jsonOf({perShardReference(spec)}));
    }
}

TEST(FanOut, WearTrackersMergeAsPerShard)
{
    auto spec = fanSpec(false);
    spec.device.wearEndurance = 1000;
    spec.keepWearTracker = true;
    const auto want = perShardReference(spec);
    for (const unsigned jobs : {1u, 3u}) {
        const auto got =
            runSpecs(std::make_shared<ThreadBackend>(), {spec}, jobs);
        EXPECT_EQ(jsonOf(got), jsonOf({want})) << "jobs=" << jobs;
        ASSERT_TRUE(got[0].wearTracker);
        EXPECT_EQ(got[0].wearTracker->trackedLines(),
                  want.wearTracker->trackedLines());
        EXPECT_EQ(got[0].wearTracker->histogram(),
                  want.wearTracker->histogram());
    }
}

TEST(FanOut, VerifyAndRestoreMatchesPerShard)
{
    auto spec = fanSpec(true, 300);
    spec.device.vnr = true;
    EXPECT_EQ(
        jsonOf(runSpecs(std::make_shared<ThreadBackend>(), {spec}, 2)),
        jsonOf({perShardReference(spec)}));
}

TEST(FanOut, UnknownWorkloadFailsAlikeOnEveryBackend)
{
    auto bad = fanSpec(false, 40);
    bad.workload = "no-such-workload";
    bad.shards = 4;
    const auto serial =
        runSpecs(std::make_shared<SerialBackend>(), {bad}, 1);
    ASSERT_FALSE(serial[0].ok);
    EXPECT_NE(serial[0].error.find("no-such-workload"),
              std::string::npos)
        << serial[0].error;
    for (const unsigned jobs : {1u, 2u, 4u}) {
        const auto thread =
            runSpecs(std::make_shared<ThreadBackend>(), {bad}, jobs);
        EXPECT_FALSE(thread[0].ok);
        EXPECT_EQ(thread[0].error, serial[0].error) << "jobs=" << jobs;
    }
    const auto process = runSpecs(processBackend(), {bad}, 2);
    EXPECT_FALSE(process[0].ok);
    EXPECT_EQ(process[0].error, serial[0].error);
}

TEST(FanOut, ProgressTicksOncePerSpecShard)
{
    // Fanned-out, sourced and single-shard points mixed: progress
    // counts (spec, shard) units whatever the task grouping.
    auto sourced = fanSpec(false);
    sourced.workload.clear();
    sourced.source = std::make_shared<tracefile::VectorSource>(
        std::make_shared<std::vector<trace::WriteTransaction>>(9));
    sourced.shards = 3;
    auto single = fanSpec(true, 50);
    single.shards = 1;
    const std::vector<ExperimentSpec> specs = {
        fanSpec(false, 200), fanSpec(true, 200), sourced, single};
    const std::vector<std::shared_ptr<const runner::ExecutionBackend>>
        backends = {std::make_shared<ThreadBackend>(),
                    std::make_shared<SerialBackend>()};
    for (const auto &backend : backends) {
        for (const unsigned jobs : {1u, 3u}) {
            std::size_t ticks = 0, last = 0, total = 0;
            RunnerOptions opts;
            opts.jobs = jobs;
            opts.backend = backend;
            opts.progress = [&](const runner::RunProgress &p) {
                if (p.tasksDone)
                    ++ticks;
                last = p.tasksDone;
                total = p.tasksTotal;
            };
            ExperimentRunner(opts).run(specs);
            EXPECT_EQ(total, backend->taskCount(specs));
            EXPECT_EQ(total, 16u + 16u + 3u + 1u);
            EXPECT_EQ(ticks, total)
                << backend->name() << " jobs=" << jobs;
            EXPECT_EQ(last, total);
        }
    }
}

TEST(Backends, MakeBackendValidatesNames)
{
    EXPECT_EQ(makeBackend("serial")->name(),
              std::string("serial"));
    EXPECT_EQ(makeBackend("thread")->name(),
              std::string("thread"));
    // "process" names the remote engine, not a second path.
    EXPECT_EQ(makeBackend("process", WLCRC_WORKER_BIN)->name(),
              std::string("remote"));
    EXPECT_THROW(makeBackend("process"), std::invalid_argument);
    EXPECT_THROW(makeBackend("gpu"), std::invalid_argument);
}

} // namespace
