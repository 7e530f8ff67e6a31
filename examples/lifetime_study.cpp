/**
 * @file
 * lifetime_study: endurance-centric exploration.
 *
 *   1. sweeps the multi-objective threshold T (Section VIII-D)
 *      over `writes` writes of the workload (default 5000) to show
 *      the energy/endurance trade-off;
 *   2. demonstrates the Verify-n-Restore loop converging on a
 *      disturbance-heavy write pattern.
 *
 *   ./build/example_lifetime_study [workload] [writes]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "pcm/write_unit.hh"
#include "trace/replay.hh"
#include "trace/workload.hh"
#include "wlcrc/wlcrc_codec.hh"

int
main(int argc, char **argv)
{
    using namespace wlcrc;

    std::vector<std::string> args;
    std::string workload = "milc";
    uint64_t writes = 5000;
    CommandLine cli("lifetime_study",
                    "usage: lifetime_study [workload] [writes]\n");
    cli.positionals(args);
    if (const auto rc = cli.parse(argc, argv, [&] {
            usageCheck(args.size() <= 2, "too many arguments");
            if (args.size() > 0)
                workload = args[0];
            if (args.size() > 1)
                writes = parseU64(args[1], "writes");
        }))
        return *rc;

    const pcm::EnergyModel energy;
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};

    try {
        const auto &profile =
            trace::WorkloadProfile::byName(workload);

        // 1. Multi-objective threshold sweep.
        std::printf("=== multi-objective sweep (%s) ===\n",
                    workload.c_str());
        std::printf("%-10s %12s %14s\n", "T", "energy(pJ)",
                    "updated cells");
        for (const double t : {0.0, 0.005, 0.01, 0.02, 0.05}) {
            const core::WlcrcCodec mo(energy, 16, t);
            trace::Replayer rep(mo, unit);
            trace::TraceSynthesizer synth(profile, 5);
            rep.run(synth, writes);
            std::printf("%-10.3f %12.1f %14.2f\n", t,
                        rep.result().energyPj.mean(),
                        rep.result().updatedCells.mean());
        }

        // 2. Verify-n-Restore on a worst-case pattern.
        std::printf("\n=== Verify-n-Restore convergence ===\n");
        std::vector<pcm::State> cells(256, pcm::State::S1);
        pcm::TargetLine target(256);
        for (unsigned i = 0; i < 256; ++i)
            target[i] = (i % 2) ? pcm::State::S4 : pcm::State::S1;
        Rng rng(3);
        const auto st = unit.program(cells, target, rng, true);
        std::printf("alternating S1/S4 line: %u first-pass "
                    "disturbances, VnR converged in %u "
                    "iteration(s)\n",
                    st.totalDisturbed(), st.vnrIterations);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
    return 0;
}
