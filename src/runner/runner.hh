/**
 * @file
 * ExperimentRunner: executes a list/grid of ExperimentSpecs on an
 * execution backend (the thread pool by default, one task per
 * (spec, shard group) — see backend.hh). Results are merged in
 * fixed shard order, so the output of a run depends only on the
 * specs — never on the job count, the shard grouping or how the OS
 * schedules the workers. `--jobs 4` and `--jobs 1` produce
 * identical rows.
 */

#ifndef WLCRC_RUNNER_RUNNER_HH
#define WLCRC_RUNNER_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "runner/experiment.hh"
#include "runner/grid.hh"

namespace wlcrc::runner
{

class ExecutionBackend;
class CacheStore;

/** Snapshot of a run's completion state, for progress reporting. */
struct RunProgress
{
    std::size_t tasksDone = 0;  //!< progress units finished
    std::size_t tasksTotal = 0; //!< ExecutionBackend::taskCount()
    double elapsedSec = 0;      //!< wall time since run() started
    double etaSec = 0;          //!< remaining-time estimate

    double
    fraction() const
    {
        return tasksTotal
                   ? static_cast<double>(tasksDone) / tasksTotal
                   : 1.0;
    }
};

/**
 * Invoked once per completed progress unit — one per (spec, shard)
 * in-process, one per grid point out of process — and once with
 * tasksDone == 0 before the first. Calls are serialised by the
 * runner, but arrive from worker threads — keep the callback cheap
 * and never write to a run's own report stream (stderr is the
 * conventional sink, so stdout stays byte-comparable).
 */
using ProgressFn = std::function<void(const RunProgress &)>;

/**
 * Cache/replay accounting of one run (accumulated with += across
 * runs when several grids share one RunStats, as the benches do).
 * `hits + replayed == points`; a cacheable missed point that
 * completes ok also counts in `stored`.
 */
struct RunStats
{
    std::size_t points = 0;      //!< grid points requested
    std::size_t cacheHits = 0;   //!< served from the cache
    std::size_t replayed = 0;    //!< actually executed
    std::size_t stored = 0;      //!< fresh results written back
    std::size_t uncacheable = 0; //!< hook-bearing, never cached
    /** Entries that failed to persist (results are unaffected). */
    std::size_t storeFailures = 0;

    RunStats &
    operator+=(const RunStats &o)
    {
        points += o.points;
        cacheHits += o.cacheHits;
        replayed += o.replayed;
        stored += o.stored;
        uncacheable += o.uncacheable;
        storeFailures += o.storeFailures;
        return *this;
    }

    /** One-line summary, e.g. "12 points: 10 hits, 2 replayed". */
    std::string summary() const;
};

/** Execution knobs, orthogonal to what is being run. */
struct RunnerOptions
{
    unsigned jobs = 0; //!< worker threads; 0 = hardware concurrency
    ProgressFn progress; //!< optional completion/ETA callback
    /**
     * Where replay work executes (backend.hh); null = the stock
     * in-process ThreadBackend. Backends never change results,
     * only where they are computed.
     */
    std::shared_ptr<const ExecutionBackend> backend;
    /**
     * Result-cache directory (result_cache.hh); empty = caching
     * off. Cacheable points are looked up before execution and
     * stored after, so an unchanged sweep re-run replays nothing.
     */
    std::string cacheDir;
    /**
     * Result-cache byte store (result_cache.hh); wins over cacheDir
     * when both are set. This is how a worker process points its
     * cache at the head node's store instead of a local directory.
     */
    std::shared_ptr<CacheStore> cacheStore;
    /** When set, each run() accumulates its RunStats here (+=). */
    RunStats *stats = nullptr;
};

/**
 * Stock progress sink: a single self-overwriting stderr line
 * "label: 12/40 (30%) elapsed 1.2s eta 2.8s", newline-terminated
 * when the run completes. Used by every bench binary for the long
 * paper-fidelity sweeps (WLCRC_BENCH_PROGRESS=0 silences it).
 */
ProgressFn stderrProgress(std::string label);

/** Parallel executor for experiment grids. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerOptions opts = {}) : opts_(opts)
    {}

    /**
     * Run every spec; one result per spec, in spec order. A spec
     * that fails (unknown scheme/workload, unreadable source)
     * yields a result with ok = false and the error message —
     * other grid points still run. With a cacheDir, cached points
     * are served without executing and fresh ok results are stored
     * back; the result vector is identical either way.
     */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs) const;

    /** Convenience: expand @p grid, then run it. */
    std::vector<ExperimentResult>
    run(const ExperimentGrid &grid) const
    {
        return run(grid.expand());
    }

  private:
    RunnerOptions opts_;
};

/**
 * Shard that line address @p addr belongs to in an @p shards -way
 * split. Partitioning by address (not by position in the stream)
 * keeps every line's full write history inside one shard, which
 * preserves priming and differential-write state.
 */
inline unsigned
shardOf(uint64_t addr, unsigned shards)
{
    return shards > 1 ? static_cast<unsigned>(addr % shards) : 0;
}

/**
 * Device seed of shard @p shard of a spec seeded with @p seed:
 * the spec seed itself for single-shard runs (bit-compatible with
 * the legacy serial path), childSeed() otherwise.
 */
inline uint64_t
shardSeed(uint64_t seed, unsigned shard, unsigned shards)
{
    return shards > 1 ? childSeed(seed, shard) : seed;
}

} // namespace wlcrc::runner

#endif // WLCRC_RUNNER_RUNNER_HH
