/**
 * @file
 * Shared helpers for the figure-regeneration bench binaries.
 *
 * Every bench prints the same rows/series the corresponding paper
 * figure plots (CSV to stdout) plus a short headline summary, and
 * executes its sweep on the parallel experiment runner (src/runner):
 * build an ExperimentGrid, run it through makeRunner(), aggregate
 * the returned results. stdout is a deterministic function of the
 * WLCRC_BENCH_* knobs below — never of the job count or scheduling —
 * which is what tests/bench_golden_test.cc enforces.
 *
 * Knobs: WLCRC_BENCH_LINES (writes per workload; default 3000),
 * WLCRC_BENCH_RANDOM_LINES (random-data figures; default 20000),
 * WLCRC_BENCH_JOBS (worker threads; 0 = all cores),
 * WLCRC_BENCH_SHARDS (replay shards per grid point; results depend
 * on this, not on jobs), WLCRC_BENCH_PROGRESS (stderr ETA line;
 * default on), WLCRC_BENCH_BACKEND (thread | serial | process |
 * remote; the last two need WLCRC_WORKER_BIN naming wlcrc_worker) and
 * WLCRC_BENCH_CACHE_DIR (result-cache directory; a re-run of an
 * unchanged sweep replays nothing — docs/caching.md). Backends and
 * caching never change stdout; benchMain() prints the cache
 * hit/replay summary to stderr.
 */

#ifndef WLCRC_BENCH_BENCH_COMMON_HH
#define WLCRC_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <functional>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/env.hh"
#include "coset/codec.hh"
#include "coset/mapping.hh"
#include "coset/ncosets_codec.hh"
#include "runner/backend.hh"
#include "runner/runner.hh"
#include "trace/workload.hh"

namespace wlcrc::bench
{

/** Per-workload write count. */
inline uint64_t
linesPerWorkload()
{
    return envU64("WLCRC_BENCH_LINES", 3000);
}

/** Write count for random-data experiments. */
inline uint64_t
randomLines()
{
    return envU64("WLCRC_BENCH_RANDOM_LINES", 20000);
}

/** Worker threads for runner-driven sweeps (0 = all cores). */
inline unsigned
benchJobs()
{
    return static_cast<unsigned>(envU64("WLCRC_BENCH_JOBS", 0));
}

/** Replay shards per grid point (results depend on this, not jobs). */
inline unsigned
benchShards()
{
    return static_cast<unsigned>(envU64("WLCRC_BENCH_SHARDS", 1));
}

/** Result-cache directory ("" = caching off). */
inline std::string
benchCacheDir()
{
    return envString("WLCRC_BENCH_CACHE_DIR", "");
}

/**
 * Cache accounting shared by every grid a bench runs (most benches
 * run several); benchMain() prints the accumulated summary.
 */
inline runner::RunStats &
benchRunStats()
{
    static runner::RunStats stats;
    return stats;
}

/** All 13 benchmark workload names, paper order. */
inline std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const auto &p : trace::WorkloadProfile::all())
        names.push_back(p.name);
    return names;
}

/**
 * The 6cosets-vs-4cosets scheme axis of Figures 2 and 3: per
 * granularity, an NCosetsCodec over the six-coset candidates and
 * one over the Table-I four-candidate prefix, in figure row order.
 */
inline std::vector<runner::SchemeDef>
sixVsFourCosetsDefs(const std::vector<unsigned> &granularities)
{
    std::vector<runner::SchemeDef> defs;
    for (const unsigned g : granularities) {
        for (const unsigned n : {6u, 4u}) {
            defs.push_back(
                {std::to_string(n) + "cosets-" + std::to_string(g),
                 [n, g](const pcm::EnergyModel &energy) {
                     return std::make_unique<coset::NCosetsCodec>(
                         energy,
                         n == 6 ? coset::sixCosetCandidates()
                                : coset::tableICandidates(4),
                         g);
                 }});
        }
    }
    return defs;
}

/**
 * Result of grid point (workload @p w, scheme @p d) in a
 * workload-major {workloads x ndefs schemes} sweep — the expansion
 * order ExperimentGrid guarantees.
 */
inline const trace::ReplayResult &
suiteCell(const std::vector<runner::ExperimentResult> &results,
          std::size_t ndefs, std::size_t w, std::size_t d)
{
    return results[w * ndefs + d].replay;
}

/**
 * Sum of @p metric over the workload axis for scheme column @p d of
 * a workload-major sweep over the full benchmark suite. Kept as a
 * sum (not an average) so multi-component rows can combine
 * components before the single division, exactly as the figures'
 * suite averages are defined.
 */
template <typename MetricFn>
double
suiteSum(const std::vector<runner::ExperimentResult> &results,
         std::size_t ndefs, std::size_t d, MetricFn metric)
{
    const std::size_t nworkloads =
        trace::WorkloadProfile::all().size();
    double total = 0;
    for (std::size_t w = 0; w < nworkloads; ++w)
        total += metric(suiteCell(results, ndefs, w, d));
    return total;
}

/** Equal-weight suite average of @p metric for scheme column @p d. */
template <typename MetricFn>
double
suiteAverage(const std::vector<runner::ExperimentResult> &results,
             std::size_t ndefs, std::size_t d, MetricFn metric)
{
    return suiteSum(results, ndefs, d, metric) /
           trace::WorkloadProfile::all().size();
}

/**
 * The engine every bench runs on: WLCRC_BENCH_JOBS workers and a
 * stderr ETA line (WLCRC_BENCH_PROGRESS=0 silences it; stdout is
 * untouched either way, keeping the CSV byte-comparable).
 *
 * @param jobs_override  pin the worker count regardless of
 *        WLCRC_BENCH_JOBS (the throughput bench pins 1 so its timed
 *        kernels never contend with each other).
 */
inline runner::ExperimentRunner
makeRunner(const std::string &label,
           std::optional<unsigned> jobs_override = std::nullopt)
{
    runner::RunnerOptions opts;
    opts.jobs = jobs_override ? *jobs_override : benchJobs();
    if (envU64("WLCRC_BENCH_PROGRESS", 1))
        opts.progress = runner::stderrProgress(label);
    // Backends relocate work without changing results; "process"
    // and "remote" fan grid points out to spawned WLCRC_WORKER_BIN
    // workers (factory/custom-replay specs transparently stay
    // in-process).
    const std::string backend =
        envString("WLCRC_BENCH_BACKEND", "thread");
    if (backend != "thread")
        opts.backend = runner::makeBackend(
            backend, envString("WLCRC_WORKER_BIN", ""));
    const std::string cacheDir = benchCacheDir();
    if (!cacheDir.empty()) {
        opts.cacheDir = cacheDir;
        opts.stats = &benchRunStats();
    }
    return runner::ExperimentRunner(opts);
}

/** Throw (with the point's label) if any grid point failed. */
inline void
requireOk(const std::vector<runner::ExperimentResult> &results)
{
    for (const auto &r : results) {
        if (!r.ok)
            throw std::runtime_error(r.spec.label() + ": " + r.error);
    }
}

/**
 * Run a bench body, converting exceptions (malformed WLCRC_BENCH_*
 * knobs, failed grid points) into a loud stderr line and a non-zero
 * exit instead of std::terminate noise.
 */
inline int
benchMain(const std::function<int()> &body)
{
    try {
        const int rc = body();
        const std::string cacheDir = benchCacheDir();
        if (rc == 0 && !cacheDir.empty())
            std::fprintf(stderr, "bench cache %s: %s\n",
                         cacheDir.c_str(),
                         benchRunStats().summary().c_str());
        return rc;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}

/**
 * The benches read their knobs from the environment alone.
 * @return 0 if argv holds only the program name, else 2 (the
 *         usage-error status) after a "<bench>: <reason>" line.
 */
inline int
rejectArguments(int argc, char **argv)
{
    if (argc <= 1)
        return 0;
    std::fprintf(stderr,
                 "%s: unexpected argument '%s' (a bench takes no "
                 "arguments; set the WLCRC_BENCH_* knobs instead)\n",
                 argv[0], argv[1]);
    return 2;
}

/** Print the standard bench banner. */
inline void
banner(const std::string &figure, const std::string &what)
{
    std::cout << "# " << figure << ": " << what << "\n"
              << "# lines/workload=" << linesPerWorkload()
              << " random-lines=" << randomLines() << "\n";
}

} // namespace wlcrc::bench

#endif // WLCRC_BENCH_BENCH_COMMON_HH
