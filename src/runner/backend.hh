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
 *  - ProcessBackend  one child worker process per grid point
 *                    (`wlcrc_sim --worker`): the spec crosses as a
 *                    canonicalSpec() temp file, the result comes
 *                    back as the JSON report on the child's stdout.
 *                    Grids too big for one address space — or whose
 *                    points might crash — run unchanged; a dying
 *                    worker fails its own point only. Specs that
 *                    cannot cross a process boundary (closure hooks,
 *                    in-memory sources) transparently run inline.
 *
 * Synthesized specs fan out: one task synthesizes the stream once
 * and routes each record to the replayer of the shard it belongs
 * to, instead of every shard re-synthesizing the whole stream and
 * discarding the records it does not own. Sourced specs keep one
 * source-side-filtered cursor per shard.
 *
 * Determinism: a backend only ever changes *where* shards execute.
 * Every shard replays exactly its own records, in stream order, on
 * a device seeded from the spec (shardSeed); shard merges happen in
 * fixed shard order, and results come back in spec order, so
 * serial, thread and process execution of the same grid are
 * byte-identical whatever the shard grouping — tests/backend_test.cc
 * and the golden bench suite enforce it.
 */

#ifndef WLCRC_RUNNER_BACKEND_HH
#define WLCRC_RUNNER_BACKEND_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runner/experiment.hh"

namespace wlcrc::runner
{

/** Executes spec lists; stateless apart from configuration. */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    /** Stable identifier: "serial", "thread", "process", ... */
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

/** Child-process fan-out via the `--worker` protocol. */
class ProcessBackend final : public ExecutionBackend
{
  public:
    /**
     * @param workerBinary executable implementing `--worker FILE`
     *        (normally wlcrc_sim; it passes its own argv[0]).
     */
    explicit ProcessBackend(std::string workerBinary);

    const char *name() const override { return "process"; }
    /** One progress unit per grid point (child = whole spec). */
    std::size_t
    taskCount(const std::vector<ExperimentSpec> &specs) const
        override;
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs, unsigned jobs,
        const std::function<void()> &taskDone) const override;

    const std::string &workerBinary() const { return worker_; }

  private:
    ExperimentResult runWorker(const ExperimentSpec &spec) const;

    std::string worker_;
};

/**
 * Execute one spec on the calling thread — one synthesis pass for
 * synthesized specs, else shards in shard order — merged into one
 * result. The unit every backend is built from — also the body of
 * `wlcrc_sim --worker` and `wlcrc_worker`.
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
 * of synthesized multi-shard specs (G = 1 on one thread). Other
 * specs run one task per shard (G = effectiveShards). Derived, not
 * configurable — results never depend on it.
 */
std::vector<unsigned>
shardGroups(const std::vector<ExperimentSpec> &specs,
            unsigned poolThreads);

/**
 * Backend by CLI/env name: "serial", "thread", "process" or
 * "remote" (the latter two require @p workerBinary — wlcrc_sim for
 * process, wlcrc_worker for remote; remote spawns its workers
 * locally at the first run and listens on an ephemeral loopback
 * port, see runner/remote.hh for externally managed clusters).
 * @throws std::invalid_argument on unknown names or a missing
 *         worker binary.
 */
std::shared_ptr<const ExecutionBackend>
makeBackend(const std::string &name,
            const std::string &workerBinary = {});

} // namespace wlcrc::runner

#endif // WLCRC_RUNNER_BACKEND_HH
