/**
 * @file
 * trace_pipeline: the out-of-core trace flow end to end, mirroring
 * how externally collected (gem5/Pin/Simics) traces are used at
 * scale — the API twin of `wlcrc_trace generate/info` piped into
 * `wlcrc_sim --trace-in`.
 *
 *   1. synthesize a workload and persist it as an indexed WLCTRC02
 *      container (tracefile/writer.hh);
 *   2. inspect it through the mmap-backed reader: record count,
 *      block index, address range, checksum audit;
 *   3. replay it through two schemes on the experiment runner,
 *      streaming block-by-block via a TransactionSource — the trace
 *      is never materialised in memory.
 *
 *   ./build/example_trace_pipeline [workload] [lines] [/path.trc]
 */

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "runner/grid.hh"
#include "runner/report.hh"
#include "runner/runner.hh"
#include "tracefile/mapped_trace.hh"
#include "tracefile/source.hh"
#include "tracefile/writer.hh"
#include "trace/workload.hh"

int
main(int argc, char **argv)
{
    using namespace wlcrc;

    std::vector<std::string> args;
    std::string workload = "gcc";
    uint64_t lines = 10000;
    std::string path = (std::filesystem::temp_directory_path() /
                        "wlcrc_pipeline.trc")
                           .string();
    CommandLine cli("trace_pipeline",
                    "usage: trace_pipeline [workload] [lines] "
                    "[/path.trc]\n");
    cli.positionals(args);
    if (const auto rc = cli.parse(argc, argv, [&] {
            usageCheck(args.size() <= 3, "too many arguments");
            if (args.size() > 0)
                workload = args[0];
            if (args.size() > 1)
                lines = parseU64(args[1], "lines");
            if (args.size() > 2)
                path = args[2];
        }))
        return *rc;

    try {
        // Step 1: synthesize and persist as a WLCTRC02 container.
        // Small blocks keep the example's streaming bound visible;
        // production traces use the (much larger) default.
        {
            trace::TraceSynthesizer synth(
                trace::WorkloadProfile::byName(workload), 7);
            tracefile::TraceFileWriter writer(path, 512);
            for (uint64_t i = 0; i < lines; ++i)
                writer.write(synth.next());
            writer.close();
        }

        // Step 2: inspect through the mmap reader and audit it.
        {
            const tracefile::MappedTrace trace(path);
            std::printf(
                "%s: %llu records in %llu blocks of %u "
                "(addrs [%llu, %llu])\n",
                path.c_str(),
                static_cast<unsigned long long>(trace.records()),
                static_cast<unsigned long long>(trace.blockCount()),
                trace.recordsPerBlock(),
                static_cast<unsigned long long>(trace.minAddr()),
                static_cast<unsigned long long>(trace.maxAddr()));
            trace.verifyAll();
            std::printf("checksums ok; random access: record 0 -> "
                        "line %llu, record %llu -> line %llu\n",
                        static_cast<unsigned long long>(
                            trace.record(0).lineAddr),
                        static_cast<unsigned long long>(
                            trace.records() - 1),
                        static_cast<unsigned long long>(
                            trace.record(trace.records() - 1)
                                .lineAddr));
        }

        // Step 3: streamed sharded replay through two schemes. The
        // runner's shards each open a block-pruned cursor over the
        // mapping; peak trace memory is one block per shard, however
        // long the trace is.
        const auto source = tracefile::openTraceSource(path);
        std::printf("replaying %s\n", source->describe().c_str());
        runner::ExperimentGrid grid;
        grid.schemes({"Baseline", "WLCRC-16"})
            .sources({source})
            .shards(4);
        const auto results =
            runner::ExperimentRunner().run(grid);
        for (const auto &r : results) {
            if (!r.ok) {
                std::fprintf(stderr, "error: %s: %s\n",
                             r.spec.label().c_str(),
                             r.error.c_str());
                return 1;
            }
        }
        runner::CsvReporter().write(std::cout, results);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
    std::filesystem::remove(path);
    return 0;
}
