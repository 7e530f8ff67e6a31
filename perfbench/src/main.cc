/**
 * @file
 * perfbench — the repository's end-to-end benchmark harness.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --worker-bin PATH --work-dir DIR
 *
 * Workloads: synth-sweep, trace-replay, serve-capture, remote-sweep
 * (README.md beside this directory explains each). The last stdout
 * line is one JSON object {correct, attempted, failed, metrics};
 * "# " lines before it carry notes (machine fingerprint, checked
 * simulated outputs, sample counts). Exit status 0 only when every
 * result matched its reference.
 */

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.hh"
#include "common/simd.hh"

namespace
{

using perfbench::Options;

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(arg + " needs a value");
        const std::string val = argv[++i];
        if (arg == "--workload") {
            o.workload = val;
            haveWorkload = true;
        } else if (arg == "--seed") {
            o.seed = std::stoull(val);
        } else if (arg == "--seconds") {
            o.seconds = std::stod(val);
            if (!(o.seconds > 0))
                throw std::invalid_argument("--seconds must be > 0");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            o.trace = val == "1";
        } else if (arg == "--worker-bin") {
            o.workerBin = val;
        } else if (arg == "--work-dir") {
            o.workDir = val;
        } else {
            throw std::invalid_argument("unknown option " + arg);
        }
    }
    if (!haveWorkload || o.workDir.empty())
        throw std::invalid_argument(
            "--workload and --work-dir are required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    try {
        opts = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }

    Report report;
    try {
        std::filesystem::create_directories(opts.workDir);
        if (opts.workload == "synth-sweep")
            runSynthSweep(opts, report);
        else if (opts.workload == "trace-replay")
            runTraceReplay(opts, report);
        else if (opts.workload == "serve-capture")
            runServeCapture(opts, report);
        else if (opts.workload == "remote-sweep")
            runRemoteSweep(opts, report);
        else
            throw std::invalid_argument("unknown workload '" +
                                        opts.workload + "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n",
                     opts.workload.c_str(), e.what());
        return 2;
    }

    report.note(std::string("fingerprint {\"simd\": \"") +
                wlcrc::simd::kernelName(wlcrc::simd::activeKernel()) +
                "\", \"compiler\": \"" PERFBENCH_COMPILER
                "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}");
    report.print();
    return report.failed() == 0 ? 0 : 1;
}
