#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

#include "runner/report.hh"
#include "runner/spec_codec.hh"

namespace perfbench
{

namespace
{

double
cpuOf(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
           ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
}

} // namespace

double
cpuSelf()
{
    return cpuOf(RUSAGE_SELF);
}

double
cpuChildren()
{
    return cpuOf(RUSAGE_CHILDREN);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is KiB on Linux
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
totalSeconds(const std::vector<Iteration> &iters)
{
    double s = 0;
    for (const auto &it : iters)
        s += it.seconds;
    return s;
}

uint64_t
totalWrites(const std::vector<Iteration> &iters)
{
    uint64_t w = 0;
    for (const auto &it : iters)
        w += it.writes;
    return w;
}

void
reportEndToEnd(Report &report, const std::vector<Iteration> &iters,
               const std::vector<double> &setups, double peakRss,
               double childCpu)
{
    std::vector<double> wps, pps, cpu, p50;
    std::size_t acks = 0;
    for (const auto &it : iters) {
        wps.push_back(it.writes / it.seconds);
        pps.push_back(it.points / it.seconds);
        cpu.push_back(it.cpu / (it.writes * 1e-6));
        p50.push_back(quantile(it.acksUs, 0.5));
        acks += it.acksUs.size();
    }
    report.metric("setup_s", median(setups), "s");
    report.metric("writes_per_s", median(wps), "writes/s");
    report.metric("points_per_s", median(pps), "points/s");
    report.metric("cpu_s_per_mwrite",
                  median(cpu) + childCpu / (totalWrites(iters) * 1e-6),
                  "s");
    report.metric("ack_rtt_p50_us", median(p50), "us");
    report.metric("peak_rss_mb", peakRss, "MiB");
    std::ostringstream os;
    os << iters.size() << " timed units in " << totalSeconds(iters)
       << " s, " << acks << " acks, " << setups.size()
       << " set-ups; writes/s per unit: min " << quantile(wps, 0)
       << " median " << median(wps) << " max " << quantile(wps, 1);
    report.note(os.str());
}

std::string
pointText(const wlcrc::runner::ExperimentResult &result)
{
    std::ostringstream os;
    wlcrc::runner::CsvReporter().write(os, {result});
    wlcrc::runner::writeResultObject(os, result);
    return os.str();
}

std::vector<std::string>
pointTexts(const std::vector<wlcrc::runner::ExperimentResult> &results)
{
    std::vector<std::string> texts;
    for (const auto &r : results)
        texts.push_back(pointText(r));
    return texts;
}

/** Mean energy per write of each scheme in @p results. */
void
noteEnergy(const std::vector<wlcrc::runner::ExperimentResult> &results,
           Report &report)
{
    std::map<std::string, std::pair<double, uint64_t>> by;
    for (const auto &r : results) {
        by[r.spec.scheme].first += r.replay.energyPj.sum();
        by[r.spec.scheme].second += r.replay.writes;
    }
    std::ostringstream os;
    os << "simulated energy per write (checked against the serial "
          "reference):";
    for (const auto &[scheme, v] : by)
        os << " " << scheme << "=" << v.first / v.second << " pJ";
    if (by.count("Baseline") && by.count("WLCRC-16"))
        os << "; WLCRC-16/Baseline = "
           << (by["WLCRC-16"].first / by["WLCRC-16"].second) /
                  (by["Baseline"].first / by["Baseline"].second);
    os << ". The energy model is unvalidated against hardware: the "
          "repository holds no reference measurements.";
    report.note(os.str());
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_[name] = {value, unit};
}

void
Report::note(const std::string &line)
{
    notes_.push_back(line);
}

void
Report::fail(uint64_t n, const std::string &why)
{
    failed_ += n;
    if (n)
        failures_[why] += n;
}

void
Report::print() const
{
    for (const auto &n : notes_)
        std::printf("# %s\n", n.c_str());
    for (const auto &[why, n] : failures_)
        std::printf("# FAILED %llu: %s\n",
                    static_cast<unsigned long long>(n), why.c_str());
    std::ostringstream os;
    os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics_) {
        // Shortest round-trip digits: every measured digit is kept.
        os << (first ? "" : ", ") << "\"" << name
           << "\": {\"value\": "
           << (std::isfinite(m.value)
                   ? wlcrc::runner::formatDouble(m.value)
                   : std::string("0"))
           << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"trace.synth_txns", "count"},
        {"trace.synth_busy_s", "s"},
        {"trace.synth_useful_ratio", "ratio"},
        {"codec.busy_s", "s"},
        {"codec.ns_per_write", "ns"},
        {"codec.useful_ratio", "ratio"},
        {"codec.batch_fill", "ratio"},
        {"pcm.busy_s", "s"},
        {"pcm.ns_per_write", "ns"},
        {"pcm.lines_resident", "count"},
        {"stats.busy_s", "s"},
        {"tracefile.blocks_visited", "count"},
        {"tracefile.blocks_total", "count"},
        {"tracefile.prune_ratio", "ratio"},
        {"tracefile.decode_busy_s", "s"},
        {"tracefile.decode_mb_per_s", "MB/s"},
        {"tracefile.cursor_wait_s", "s"},
        {"tracefile.capture_mb_per_s", "MB/s"},
        {"tracefile.capture_ratio", "ratio"},
        {"runner.tasks", "count"},
        {"runner.task_s_p50", "s"},
        {"runner.task_s_max", "s"},
        {"runner.shard_imbalance", "ratio"},
        {"serve.frames", "count"},
        {"serve.bytes_sent", "B"},
        {"serve.send_busy_s", "s"},
        {"serve.ack_wait_s", "s"},
        {"serve.ack_rtt_p99_us", "us"},
        {"serve.stalls", "count"},
        {"serve.queue_depth_p50", "count"},
        {"serve.bank_imbalance", "ratio"},
        {"serve.stats_rtt_p50_us", "us"},
        {"serve.stats_rtt_p99_us", "us"},
        {"remote.point_latency_p50_ms", "ms"},
        {"remote.point_latency_p99_ms", "ms"},
        {"remote.reissued", "count"},
        {"remote.fault_total", "count"},
        {"remote.worker_spawn_s", "s"},
        {"cache.hits", "count"},
        {"cache.misses", "count"},
        {"cache.stores", "count"},
        {"cache.store_failures", "count"},
        {"cache.get_busy_s", "s"},
        {"cache.put_busy_s", "s"},
        {"spec.serialize_us_per_point", "us"},
        {"spec.parse_us_per_point", "us"},
        {"report.parse_us_per_point", "us"},
        {"tracing.overhead_ratio", "ratio"},
        {"error_rate", "ratio"},
    };
    return m;
}

std::map<std::string, double>
selfSeconds(const std::vector<const SpanLog *> &logs)
{
    std::map<std::string, double> self;
    for (const SpanLog *log : logs) {
        const auto &spans = log->spans();
        std::vector<int64_t> childNs(spans.size(), 0);
        for (const Span &s : spans)
            if (s.parent >= 0)
                childNs[s.parent] += s.endNs - s.startNs;
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[spans[i].name] +=
                (spans[i].endNs - spans[i].startNs - childNs[i]) *
                1e-9;
    }
    return self;
}

std::vector<double>
durations(const std::vector<const SpanLog *> &logs, const char *name)
{
    std::vector<double> out;
    for (const SpanLog *log : logs)
        for (const Span &s : log->spans())
            if (std::string_view(s.name) == name)
                out.push_back((s.endNs - s.startNs) * 1e-9);
    return out;
}

void
writeSpans(const std::string &path,
           const std::vector<const SpanLog *> &logs)
{
    std::ofstream out(path);
    out << "thread,id,parent,name,trace_id,start_ns,end_ns\n";
    for (std::size_t t = 0; t < logs.size(); ++t) {
        const auto &spans = logs[t]->spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << t << ',' << i << ',' << s.parent << ',' << s.name
                << ',' << s.traceId << ',' << s.startNs << ','
                << s.endNs << '\n';
        }
    }
}

} // namespace perfbench
