/**
 * @file
 * energy_explorer: compare any set of encoding schemes on any
 * workloads from the command line.
 *
 *   ./build/examples/energy_explorer [scheme ...] [--workload name]
 *                                    [--lines N] [--seed S]
 *
 * With no scheme arguments, the full Figure 8 list is used; with no
 * --workload, the whole benchmark suite is averaged. Prints a CSV of
 * write energy, updated cells and disturbance errors per scheme.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/csv.hh"
#include "common/parse.hh"
#include "pcm/disturbance.hh"
#include "trace/replay.hh"
#include "trace/workload.hh"
#include "wlcrc/factory.hh"

namespace
{

using namespace wlcrc;

trace::ReplayResult
run(const coset::LineCodec &codec,
    const trace::WorkloadProfile &profile, uint64_t lines,
    uint64_t seed)
{
    const pcm::WriteUnit unit{codec.energyModel(),
                              pcm::DisturbanceModel()};
    trace::Replayer rep(codec, unit, seed);
    trace::TraceSynthesizer synth(profile, seed);
    rep.run(synth, lines);
    return rep.result();
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> schemes;
    std::string workload;
    uint64_t lines = 5000;
    uint64_t seed = 42;

    CommandLine cli("energy_explorer",
                    "usage: energy_explorer [scheme ...] "
                    "[--workload name] [--lines N] [--seed S]\n");
    cli.text("--workload", workload)
        .uint("--lines", lines)
        .uint("--seed", seed)
        .positionals(schemes);
    if (const auto rc = cli.parse(argc, argv))
        return *rc;
    if (schemes.empty())
        schemes = core::figure8Schemes();

    const pcm::EnergyModel energy;
    CsvTable table({"scheme", "workload", "energy_pJ",
                    "updated_cells", "disturb_errors",
                    "compressed_pct"});
    try {
        for (const auto &name : schemes) {
            const auto codec = core::makeCodec(name, energy);
            if (!workload.empty()) {
                const auto r = run(
                    *codec,
                    trace::WorkloadProfile::byName(workload), lines,
                    seed);
                table.addRow(name, workload, r.energyPj.mean(),
                             r.updatedCells.mean(),
                             r.disturbErrors.mean(),
                             100.0 * r.compressedWrites / r.writes);
            } else {
                double e = 0, u = 0, d = 0, c = 0;
                const auto &all = trace::WorkloadProfile::all();
                for (const auto &p : all) {
                    const auto r = run(*codec, p, lines, seed);
                    e += r.energyPj.mean();
                    u += r.updatedCells.mean();
                    d += r.disturbErrors.mean();
                    c += 100.0 * r.compressedWrites / r.writes;
                }
                table.addRow(name, "suite-average", e / all.size(),
                             u / all.size(), d / all.size(),
                             c / all.size());
            }
        }
    } catch (const std::exception &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
    table.write(std::cout);
    return 0;
}
