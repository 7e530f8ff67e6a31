/**
 * @file
 * lifetime_study: endurance-centric exploration.
 *
 *   1. runs the end-to-end system model (core stream -> L2 ->
 *      controller -> PCM) with WLCRC-16 and reports controller and
 *      device statistics;
 *   2. sweeps the multi-objective threshold T (Section VIII-D) to
 *      show the energy/endurance trade-off;
 *   3. demonstrates the Verify-n-Restore loop converging on a
 *      disturbance-heavy write pattern.
 *
 *   ./build/examples/lifetime_study [workload] [accesses]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "memsys/system.hh"
#include "pcm/write_unit.hh"
#include "trace/replay.hh"
#include "wlcrc/factory.hh"
#include "wlcrc/wlcrc_codec.hh"

int
main(int argc, char **argv)
{
    using namespace wlcrc;

    std::vector<std::string> args;
    std::string workload = "milc";
    uint64_t accesses = 50000;
    CommandLine cli("lifetime_study",
                    "usage: lifetime_study [workload] [accesses]\n");
    cli.positionals(args);
    if (const auto rc = cli.parse(argc, argv, [&] {
            usageCheck(args.size() <= 2, "too many arguments");
            if (args.size() > 0)
                workload = args[0];
            if (args.size() > 1)
                accesses = parseU64(args[1], "accesses");
        }))
        return *rc;

    const pcm::SystemConfig cfg;
    const pcm::EnergyModel energy;
    const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};

    // 1. End-to-end pipeline.
    try {
        const auto codec = core::makeCodec("WLCRC-16", energy);
        const auto &profile =
            trace::WorkloadProfile::byName(workload);
        memsys::PcmSystem sys(cfg, *codec, unit, profile, 99);
        sys.runAccesses(accesses);
        sys.finish();

        const auto &mc = sys.controller();
        const auto &dev = mc.device();
        std::printf("=== end-to-end (%s, %llu accesses) ===\n",
                    workload.c_str(),
                    static_cast<unsigned long long>(accesses));
        std::printf("L2: %llu hits, %llu misses, %llu writebacks\n",
                    (unsigned long long)sys.l2().hits(),
                    (unsigned long long)sys.l2().misses(),
                    (unsigned long long)sys.l2().writebacks());
        std::printf("controller: %llu reads, %llu writes, "
                    "mean read latency %.0f cycles, %llu drain "
                    "cycles\n",
                    (unsigned long long)mc.stats().readsServiced,
                    (unsigned long long)mc.stats().writesServiced,
                    mc.stats().readLatency.mean(),
                    (unsigned long long)mc.stats().drainCycles);
        std::printf("PCM: %.1f pJ and %.1f updated cells per "
                    "write\n\n",
                    dev.totals().totalEnergyPj() / dev.writeCount(),
                    double(dev.totals().totalUpdated()) /
                        dev.writeCount());

        // 2. Multi-objective threshold sweep.
        std::printf("=== multi-objective sweep (%s) ===\n",
                    workload.c_str());
        std::printf("%-10s %12s %14s\n", "T", "energy(pJ)",
                    "updated cells");
        for (const double t : {0.0, 0.005, 0.01, 0.02, 0.05}) {
            const core::WlcrcCodec mo(energy, 16, t);
            trace::Replayer rep(mo, unit);
            trace::TraceSynthesizer synth(profile, 5);
            rep.run(synth, 5000);
            std::printf("%-10.3f %12.1f %14.2f\n", t,
                        rep.result().energyPj.mean(),
                        rep.result().updatedCells.mean());
        }

        // 3. Verify-n-Restore on a worst-case pattern.
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
