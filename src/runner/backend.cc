#include "backend.hh"

#include <algorithm>
#include <stdexcept>

#include "common/simd.hh"
#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"
#include "runner/remote.hh"
#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "tracefile/source.hh"
#include "wlcrc/factory.hh"

namespace wlcrc::runner
{

namespace
{

/**
 * The stream @p spec replays: its source, else the synthesized
 * stream its (random | workload, seed, lines) names.
 */
std::shared_ptr<const tracefile::TransactionSource>
streamOf(const ExperimentSpec &spec)
{
    if (spec.source)
        return spec.source;
    return std::make_shared<tracefile::SynthSource>(
        spec.random, spec.workload, spec.seed, spec.lines);
}

/**
 * Tasks @p spec runs as when synthesized specs split @p width ways.
 * A sourced spec keeps one group per shard, whose cursor filters —
 * and, for indexed containers, block-prunes — on the source side. A
 * synthesized stream costs a full synthesis pass whatever the
 * filter, so its shards share passes.
 */
unsigned
groupsOf(const ExperimentSpec &spec, unsigned width)
{
    const unsigned shards = effectiveShards(spec);
    return spec.source ? shards : std::min(shards, width);
}

/**
 * Largest synthesized stream, in record bytes, that runWhole()
 * gathers once instead of re-synthesizing on every lifetime pass. A
 * constant, so no path's memory grows with trace length.
 */
constexpr uint64_t kGatherLimitBytes = 4u << 20;

/**
 * Replay a spec the block loop does not: a custom replay hook, or a
 * leveled/lifetime spec, which needs one globally consistent line
 * mapping and so always runs as a single shard
 * (effectiveShards() == 1) with the spec's own seed, driven by the
 * LifetimeEngine.
 */
ShardOutcome
runWhole(const ExperimentSpec &spec)
{
    ShardOutcome out;
    if (spec.customReplay) {
        // An in-memory source is borrowed, never copied per grid
        // point; anything else is gathered once.
        const auto stream = streamOf(spec);
        const auto *vec =
            dynamic_cast<const tracefile::VectorSource *>(stream.get());
        out.replay =
            vec ? spec.customReplay(spec, vec->transactions())
                : spec.customReplay(spec, tracefile::gather(*stream));
        return out;
    }
    const ShardKit kit(spec);
    if (spec.lifetime && !spec.endurance.active())
        throw std::runtime_error(
            "lifetime replay requires an endurance config "
            "(mean per-cell budget > 0)");
    wearlevel::LifetimeEngine::Options lopts;
    lopts.leveler = spec.leveler;
    lopts.endurance = spec.endurance;
    lopts.seed = spec.seed;
    lopts.vnr = spec.device.vnr;
    wearlevel::LifetimeEngine engine(*kit.codec, kit.unit, lopts);
    auto stream = streamOf(spec);
    if (spec.lifetime && !spec.source &&
        spec.lines <= kGatherLimitBytes / tracefile::recordBytes)
        stream = std::make_shared<tracefile::VectorSource>(
            std::make_shared<const std::vector<trace::WriteTransaction>>(
                tracefile::gather(*stream)));
    out.lifetime = engine.run(*stream, spec.lifetime);
    out.replay = engine.replayResult();
    if (spec.device.wearEndurance || spec.keepWearTracker)
        out.wear.emplace(engine.wearTracker());
    return out;
}

/**
 * Replay shards {s : s % groups == group} of @p spec from one cursor
 * over its stream. A group of one shard opens its cursor with that
 * shard's filter; a group of several opens it unfiltered and routes
 * each record by shardOf(). Each record goes into its shard's
 * 32-record block, and each full block to that shard's own
 * replayer. Every shard sees exactly its own records, in stream
 * order, on its own shardSeed() device, so results do not depend on
 * the grouping.
 */
void
replayGroup(const ExperimentSpec &spec, unsigned group, unsigned groups,
            std::vector<ShardOutcome> &outcomes)
{
    constexpr std::size_t block = trace::Replayer::batchLines;
    const ShardKit kit(spec);

    // Lane k serves shard group + k * groups.
    struct Lane
    {
        std::unique_ptr<trace::Replayer> rep;
        std::vector<trace::WriteTransaction> pending;
    };
    std::vector<Lane> lanes;
    for (unsigned s = group; s < outcomes.size(); s += groups) {
        lanes.push_back({shardReplayer(spec, kit, s, outcomes[s]), {}});
        lanes.back().pending.reserve(block);
    }
    const auto stream = streamOf(spec);
    tracefile::ShardFilter filter;
    if (lanes.size() == 1 && spec.shards > 1)
        filter = spec.partition == tracefile::Partition::range
                     ? tracefile::rangePartition(stream->addrBounds(),
                                                 spec.shards, group)
                     : tracefile::ShardFilter{spec.shards, group};
    auto cursor = stream->open(filter);
    while (auto t = cursor->next()) {
        std::size_t k = 0;
        if (lanes.size() > 1) {
            const unsigned s = shardOf(t->lineAddr, spec.shards);
            if (s % groups != group)
                continue;
            k = s / groups;
        }
        Lane &lane = lanes[k];
        lane.pending.push_back(*t);
        if (lane.pending.size() == block) {
            lane.rep->pushBlock(lane.pending.data(), block);
            lane.pending.clear();
        }
    }
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        Lane &lane = lanes[k];
        lane.rep->pushBlock(lane.pending.data(), lane.pending.size());
        outcomes[group + k * groups].replay = lane.rep->result();
    }
}

/**
 * Run shards {s : s % groups == group} of @p spec into their slots
 * of @p outcomes. Validation runs first, so every path fails alike;
 * any error fails every shard of the group.
 */
void
runGroup(const ExperimentSpec &spec, unsigned group, unsigned groups,
         std::vector<ShardOutcome> &outcomes)
{
    try {
        if (spec.partition == tracefile::Partition::range &&
            !spec.source)
            throw std::runtime_error(
                "partition=range requires a trace source "
                "(--trace-in): synthesized streams have no stored "
                "address bounds to slice");
        if (spec.customReplay || spec.lifetime ||
            spec.leveler.active())
            outcomes.front() = runWhole(spec);
        else
            replayGroup(spec, group, groups, outcomes);
    } catch (const std::exception &err) {
        for (unsigned s = group; s < outcomes.size(); s += groups)
            outcomes[s].error = err.what();
    }
}

void
notify(const std::function<void()> &taskDone)
{
    if (taskDone)
        taskDone();
}

} // namespace

ShardKit::ShardKit(const ExperimentSpec &spec)
    : energy(pcm::EnergyModel::withHighStateEnergies(spec.device.s3,
                                                     spec.device.s4)),
      codec(spec.codecFactory ? spec.codecFactory(energy)
                              : core::makeCodec(spec.scheme, energy)),
      unit(energy, pcm::DisturbanceModel())
{}

std::unique_ptr<trace::Replayer>
shardReplayer(const ExperimentSpec &spec, const ShardKit &kit,
              unsigned shard, ShardOutcome &out)
{
    auto rep = std::make_unique<trace::Replayer>(
        *kit.codec, kit.unit, shardSeed(spec.seed, shard, spec.shards),
        spec.device.vnr);
    if (spec.device.wearEndurance || spec.keepWearTracker) {
        out.wear.emplace(kit.codec->cellCount());
        rep->device().attachWearTracker(&*out.wear);
    }
    return rep;
}

// With a const Outcomes, std::move yields a const rvalue, so the
// first tracker and the lifetime are copied rather than moved.
template <typename Outcomes>
ExperimentResult
mergeShards(const ExperimentSpec &spec, Outcomes &outcomes)
{
    ExperimentResult res;
    res.spec = spec;
    std::optional<pcm::WearTracker> wear;
    for (auto &o : outcomes) {
        if (!o.error.empty()) {
            res.error = o.error;
            return res;
        }
        res.replay.merge(o.replay);
        if (o.wear) {
            if (!wear)
                wear = std::move(o.wear);
            else
                wear->merge(*o.wear);
        }
    }
    if (spec.lifetime || spec.leveler.active())
        res.lifetime = std::move(outcomes.front().lifetime);
    if (wear) {
        res.wear = wear->summary();
        res.projectedLifetime = wear->projectedLifetime(
            spec.device.wearEndurance, res.replay.writes);
        if (spec.keepWearTracker) {
            res.wearTracker = std::make_shared<pcm::WearTracker>(
                std::move(*wear));
        }
    }
    res.simdKernel = simd::kernelName(simd::activeKernel());
    res.ok = true;
    return res;
}

template ExperimentResult
mergeShards(const ExperimentSpec &, std::vector<ShardOutcome> &);
template ExperimentResult
mergeShards(const ExperimentSpec &, const std::vector<ShardOutcome> &);

unsigned
effectiveShards(const ExperimentSpec &spec)
{
    // Custom replays consume the whole stream in one pass: the hook
    // owns its own state, which the runner cannot merge shard-wise.
    if (spec.customReplay)
        return 1;
    // A leveler's logical-to-physical mapping (and the death point
    // of a lifetime replay) spans the whole address space; shards
    // would each level their own partition and diverge.
    if (spec.lifetime || spec.leveler.active())
        return 1;
    return spec.shards ? spec.shards : 1;
}

std::vector<unsigned>
shardGroups(const std::vector<ExperimentSpec> &specs,
            unsigned poolThreads)
{
    std::size_t fanned = 0;
    for (const auto &s : specs)
        fanned += !s.source && effectiveShards(s) > 1;
    fanned = std::max<std::size_t>(fanned, 1);
    const auto width = static_cast<unsigned>(
        std::max<std::size_t>(1, (poolThreads + fanned - 1) / fanned));
    std::vector<unsigned> groups;
    groups.reserve(specs.size());
    for (const auto &s : specs)
        groups.push_back(groupsOf(s, width));
    return groups;
}

ExperimentResult
runSpecSerial(const ExperimentSpec &spec)
{
    std::vector<ShardOutcome> outcomes(effectiveShards(spec));
    const unsigned groups = groupsOf(spec, 1);
    for (unsigned g = 0; g < groups; ++g)
        runGroup(spec, g, groups, outcomes);
    return mergeShards(spec, outcomes);
}

std::size_t
ExecutionBackend::taskCount(
    const std::vector<ExperimentSpec> &specs) const
{
    std::size_t total = 0;
    for (const auto &s : specs)
        total += effectiveShards(s);
    return total;
}

// ------------------------------------------------------------ serial

std::vector<ExperimentResult>
SerialBackend::run(const std::vector<ExperimentSpec> &specs,
                   unsigned /*jobs*/,
                   const std::function<void()> &taskDone) const
{
    std::vector<ExperimentResult> results;
    results.reserve(specs.size());
    for (const auto &spec : specs) {
        results.push_back(runSpecSerial(spec));
        for (unsigned s = 0; s < effectiveShards(spec); ++s)
            notify(taskDone);
    }
    return results;
}

// ------------------------------------------------------------ thread

std::vector<ExperimentResult>
ThreadBackend::run(const std::vector<ExperimentSpec> &specs,
                   unsigned jobs,
                   const std::function<void()> &taskDone) const
{
    // One outcome slot per (spec, shard); a task only touches the
    // slots of its own shard group, so no synchronisation is needed
    // beyond the pool's.
    std::vector<std::vector<ShardOutcome>> outcomes(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        outcomes[i].resize(effectiveShards(specs[i]));

    {
        ThreadPool pool(jobs);
        const auto groups = shardGroups(specs, pool.threadCount());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            for (unsigned g = 0; g < groups[i]; ++g) {
                pool.submit([&specs, &outcomes, &taskDone, i, g,
                             n = groups[i]] {
                    runGroup(specs[i], g, n, outcomes[i]);
                    for (unsigned s = g; s < outcomes[i].size();
                         s += n)
                        notify(taskDone);
                });
            }
        }
        pool.wait();
    }

    std::vector<ExperimentResult> results;
    results.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        results.push_back(mergeShards(specs[i], outcomes[i]));
    return results;
}

// -------------------------------------------------------------- free

std::shared_ptr<const ExecutionBackend>
makeBackend(const std::string &name,
            const std::string &workerBinary)
{
    if (name == "serial")
        return std::make_shared<SerialBackend>();
    if (name == "thread")
        return std::make_shared<ThreadBackend>();
    // "process" is a name for the same engine: a head on an
    // ephemeral loopback port that spawns its own workers.
    if (name == "process" || name == "remote") {
        if (workerBinary.empty())
            throw std::invalid_argument(
                "backend '" + name +
                "' needs a worker binary (wlcrc_worker; benches "
                "read WLCRC_WORKER_BIN) — for externally managed "
                "workers construct RemoteBackend directly");
        RemoteBackendOptions opts;
        opts.workerBinary = workerBinary;
        return std::make_shared<RemoteBackend>(std::move(opts));
    }
    throw std::invalid_argument(
        "unknown backend '" + name +
        "' (expected serial, thread, process or remote)");
}

} // namespace wlcrc::runner
