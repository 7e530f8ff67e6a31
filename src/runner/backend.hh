/**
 * @file
 * Execution backends for the experiment runner — where a grid's
 * replay work actually happens. The runner (runner.hh) owns
 * ordering, caching and progress; a backend owns nothing but
 * execution, so every backend produces byte-identical results for
 * the same spec list:
 *
 *  - SerialBackend   runs every spec inline on the calling thread
 *                    (runSpecSerial) — the reference implementation;
 *  - ThreadBackend   the default in-process engine: one thread-pool
 *                    task per (spec, shard group) — see shardGroups();
 *  - RemoteBackend   (runner/remote.hh) the one cross-process
 *                    engine: a head that serves grid points to
 *                    wlcrc_worker processes, spawned locally or
 *                    connecting from elsewhere. makeBackend's
 *                    "process" is a name for it with local workers.
 *
 * Every stock replay runs one loop: a shard group opens one cursor
 * over the spec's TransactionSource (a synthesized spec's is a
 * tracefile::SynthSource) and routes each record to the replayer of
 * the shard it belongs to. A synthesized spec's shards share a few
 * such passes instead of each re-synthesizing the whole stream;
 * a sourced spec keeps one source-side-filtered cursor per shard.
 *
 * Determinism: a backend only ever changes *where* shards execute.
 * Every shard replays exactly its own records, in stream order, on
 * a device seeded from the spec (shardReplayer); shard merges happen
 * in fixed shard order (mergeShards), and results come back in spec
 * order, so serial, thread and remote execution of the same grid
 * are byte-identical whatever the shard grouping —
 * tests/backend_test.cc and the golden bench suite enforce it. The
 * live service's banks (serve/engine.hh) are shards of the same
 * kind: built by shardReplayer, fed in arrival order, folded by
 * mergeShards.
 */

#ifndef WLCRC_RUNNER_BACKEND_HH
#define WLCRC_RUNNER_BACKEND_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pcm/write_unit.hh"
#include "runner/experiment.hh"

namespace wlcrc::runner
{

/** Everything one shard produces. */
struct ShardOutcome
{
    trace::ReplayResult replay;
    /** The shard's wear tracker; shardReplayer attaches it to the
     *  shard's device, so it must stay put while the shard runs. */
    std::optional<pcm::WearTracker> wear;
    wearlevel::LifetimeResult lifetime; //!< leveled/lifetime specs
    std::string error; // empty = success
};

/**
 * What every shard of a spec replays through: the spec's device
 * energies, its codec (codecFactory, else the named scheme) and the
 * write unit. Shards of one spec may share one.
 */
struct ShardKit
{
    explicit ShardKit(const ExperimentSpec &spec);

    pcm::EnergyModel energy;
    coset::CodecPtr codec;
    pcm::WriteUnit unit;
};

/**
 * Shard @p shard's replayer over @p kit, on a device seeded
 * shardSeed(); attaches @p out's wear tracker when the spec tracks
 * wear. @p kit and @p out must outlive the replayer.
 */
std::unique_ptr<trace::Replayer>
shardReplayer(const ExperimentSpec &spec, const ShardKit &kit,
              unsigned shard, ShardOutcome &out);

/**
 * Merge per-shard outcomes, in shard order, into one result: the
 * first failed shard fails it, otherwise replays and wear trackers
 * fold shard by shard and the wear summary and projected lifetime
 * come from the merged tracker. A mutable @p outcomes gives its
 * first tracker up to the merge (moved, not copied); a const one is
 * copied from and left as it was, so that fold can be repeated.
 * Defined for std::vector<ShardOutcome>, const or not.
 */
template <typename Outcomes>
ExperimentResult mergeShards(const ExperimentSpec &spec,
                             Outcomes &outcomes);

/** Executes spec lists; stateless apart from configuration. */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    /** Stable identifier: "serial", "thread" or "remote". */
    virtual const char *name() const = 0;

    /**
     * Progress units run() will report — one taskDone() call each.
     * Defaults to the total shard count (in-process backends).
     */
    virtual std::size_t
    taskCount(const std::vector<ExperimentSpec> &specs) const;

    /**
     * Execute every spec; one result per spec, in spec order. A
     * failing spec yields ok = false with the error — never an
     * exception. @p taskDone (may be null) is invoked once per
     * progress unit, possibly from worker threads.
     */
    virtual std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs, unsigned jobs,
        const std::function<void()> &taskDone) const = 0;
};

/** Inline execution on the calling thread. */
class SerialBackend final : public ExecutionBackend
{
  public:
    const char *name() const override { return "serial"; }
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs, unsigned jobs,
        const std::function<void()> &taskDone) const override;
};

/**
 * Thread-pooled execution, one task per (spec, shard group);
 * progress still ticks once per (spec, shard).
 */
class ThreadBackend final : public ExecutionBackend
{
  public:
    const char *name() const override { return "thread"; }
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs, unsigned jobs,
        const std::function<void()> &taskDone) const override;
};

/**
 * Execute one spec on the calling thread — one pass for a
 * synthesized spec, else shards in shard order — merged into one
 * result. The unit every backend is built from — also the body of
 * `wlcrc_worker`.
 */
ExperimentResult runSpecSerial(const ExperimentSpec &spec);

/** Shard count @p spec actually executes with (custom replay = 1). */
unsigned effectiveShards(const ExperimentSpec &spec);

/**
 * Tasks each spec of @p specs runs as on a pool of @p poolThreads:
 * spec i's shards split into groups {s : s % G_i == g}, one task per
 * group. A synthesized spec's group replays all its shards from one
 * synthesis pass, so it gets only as many groups as keep the pool
 * busy: G = min(shards, ceil(poolThreads / F)), F being the number
 * of synthesized multi-shard specs (G = 1 on one thread). Sourced
 * specs run one task per shard (G = effectiveShards). Derived, not
 * configurable — results never depend on it.
 */
std::vector<unsigned>
shardGroups(const std::vector<ExperimentSpec> &specs,
            unsigned poolThreads);

/**
 * Backend by CLI/env name: "serial", "thread", "process" or
 * "remote". The last two are one engine: a RemoteBackend head on an
 * ephemeral loopback port that spawns the run's job count of
 * @p workerBinary (wlcrc_worker) at the first run — see
 * runner/remote.hh for externally managed clusters.
 * @throws std::invalid_argument on unknown names or a missing
 *         worker binary.
 */
std::shared_ptr<const ExecutionBackend>
makeBackend(const std::string &name,
            const std::string &workerBinary = {});

} // namespace wlcrc::runner

#endif // WLCRC_RUNNER_BACKEND_HH
