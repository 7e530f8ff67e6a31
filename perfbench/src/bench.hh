/**
 * @file
 * Shared plumbing of the perfbench harness: run options, host-time
 * and resource probes, percentiles, the result line the harness
 * prints, and the in-memory span log of the traced run.
 *
 * Every time here is host time (steady_clock / getrusage). Simulated
 * quantities (writes, energy) come from the library's own results.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runner/experiment.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Command-line options of one harness run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;    //!< measured host time per run
    bool trace = false;     //!< traced run: per-layer metrics
    std::string workerBin;  //!< wlcrc_worker (remote-sweep)
    std::string workDir;    //!< scratch directory inside the checkout
};

/** Threads and connections the load generator may use at most. */
inline constexpr unsigned kJobs = 2;
/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetups = 9;

/** Seconds elapsed since @p t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Nanoseconds on the steady clock (span timestamps). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** User + system CPU seconds of this process (all threads). */
double cpuSelf();
/** User + system CPU seconds of reaped child processes. */
double cpuChildren();
/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Linear-interpolated quantile @p q in [0, 1] (0 for no samples). */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * One timed unit of a workload's measured phase: a sweep, a replay
 * pass or a serve session. The end-to-end metrics are medians over
 * these, so a burst of host noise moves a few samples, not the
 * result.
 */
struct Iteration
{
    double seconds = 0;  //!< host time of the unit
    double cpu = 0;      //!< process CPU seconds inside it
    uint64_t writes = 0; //!< simulated writes replayed
    uint64_t points = 0; //!< grid points (or sessions) completed
    std::vector<double> acksUs; //!< submit-to-acknowledge latencies
};

/** Host seconds and simulated writes summed over @p iters. */
double totalSeconds(const std::vector<Iteration> &iters);
uint64_t totalWrites(const std::vector<Iteration> &iters);

/**
 * One point as the reporters serialize it — its CSV row and its JSON
 * result object, doubles at full precision — the comparand of every
 * correctness check against a reference.
 */
std::string pointText(const wlcrc::runner::ExperimentResult &result);

/** pointText() of each result, in order. */
std::vector<std::string>
pointTexts(const std::vector<wlcrc::runner::ExperimentResult> &results);

/**
 * Outcome of one run: the contract's final JSON line (correct,
 * attempted, failed, metrics) plus free-form notes printed as "# "
 * lines before it.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    void note(const std::string &line);
    void attempt(uint64_t n) { attempted_ += n; }
    /** Count @p n failed operations under reason @p why. */
    void fail(uint64_t n, const std::string &why);

    uint64_t failed() const { return failed_; }
    /** failed / attempted. */
    double
    errorRate() const
    {
        return attempted_ ? static_cast<double>(failed_) / attempted_
                          : 0.0;
    }

    /** Print the notes, then the JSON result as the last line. */
    void print() const;

  private:
    struct Metric
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Metric> metrics_;
    std::vector<std::string> notes_;
    std::map<std::string, uint64_t> failures_; //!< reason -> count
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/**
 * Report every end-to-end metric: the median of @p setups, and
 * medians over @p iters of the per-unit rates, CPU per write and
 * median ack time; @p childCpu (CPU of reaped worker processes over all
 * units) is spread over all replayed writes.
 */
void reportEndToEnd(Report &report, const std::vector<Iteration> &iters,
                    const std::vector<double> &setups, double peakRss,
                    double childCpu = 0);

/**
 * Note each scheme's mean simulated energy per write in @p results
 * (a checked simulated output: the results matched their reference).
 */
void noteEnergy(const std::vector<wlcrc::runner::ExperimentResult> &results,
                Report &report);

/**
 * Per-layer metrics of the traced run, each with its unit. Every
 * traced run reports the whole set; a layer the workload does not
 * exercise reads 0.
 */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

/** One recorded span; parent -1 = root. */
struct Span
{
    const char *name;
    int32_t parent;
    uint64_t traceId; //!< task, frame or point the span belongs to
    int64_t startNs;
    int64_t endNs;
};

/**
 * Spans of one thread, kept in memory until the run ends. Child
 * spans of one parent never overlap, so a span's self time is its
 * duration minus the sum of its children's.
 */
class SpanLog
{
  public:
    int32_t
    open(const char *name, int32_t parent, uint64_t traceId)
    {
        spans_.push_back({name, parent, traceId, nowNs(), 0});
        return static_cast<int32_t>(spans_.size() - 1);
    }

    void close(int32_t id) { spans_[id].endNs = nowNs(); }

    /** Record a finished span with explicit bounds. */
    void
    add(const char *name, int32_t parent, uint64_t traceId,
        int64_t startNs, int64_t endNs)
    {
        spans_.push_back({name, parent, traceId, startNs, endNs});
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
};

/** Self-time seconds per span name over @p logs. */
std::map<std::string, double>
selfSeconds(const std::vector<const SpanLog *> &logs);

/** Durations (seconds) of every span named @p name. */
std::vector<double>
durations(const std::vector<const SpanLog *> &logs, const char *name);

/** Where a traced run of @p opts writes its spans. */
inline std::string
spansPath(const Options &opts)
{
    return opts.workDir + "/spans-" + opts.workload + ".csv";
}

/**
 * Write @p logs to @p path as CSV (thread, id, parent, name,
 * trace_id, start_ns, end_ns) — the traced run's span dump.
 */
void writeSpans(const std::string &path,
                const std::vector<const SpanLog *> &logs);

/** Workload entry points; each fills @p report. */
void runSynthSweep(const Options &opts, Report &report);
void runTraceReplay(const Options &opts, Report &report);
void runServeCapture(const Options &opts, Report &report);
void runRemoteSweep(const Options &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
