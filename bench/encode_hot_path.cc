/**
 * @file
 * Hot-path microbenchmark: full replay throughput (encode +
 * differential program + disturbance) of every Figure 8 scheme over
 * one synthesized "gcc" write stream, driven through
 * Replayer::runBatch, the pull twin of the pushBlock() path the
 * sharded runner's replayGroup takes (same blocks, same results).
 *
 * Output: a CSV whose deterministic columns (mean energy / updated
 * cells) are pinned by the golden suite while the wall-clock columns
 * are masked. `writes_per_sec` is the best of three passes under the
 * active SIMD kernel; `speedup` divides it by the same scheme's
 * writes/s under the scalar kernel, timed in this process right
 * after it (1 when the active kernel is scalar). The ratio is taken
 * on one machine in one run, so it measures the vector kernels, not
 * the host. Throughput across commits is gated by perfbench under
 * scripts/perf_gate.sh, not by this bench.
 *
 * The bench takes no arguments; WLCRC_BENCH_LINES sets the stream
 * length.
 */

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/csv.hh"
#include "common/simd.hh"
#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"
#include "trace/replay.hh"
#include "trace/workload.hh"
#include "wlcrc/factory.hh"

namespace
{

using namespace wlcrc;

struct Pass
{
    double writesPerSec = 0;
    double meanEnergyPj = 0;
    double meanUpdated = 0;
};

/** Best of @p passes replays of @p txns through @p codec. */
Pass
timeReplay(const coset::LineCodec &codec, const pcm::WriteUnit &unit,
           const std::vector<trace::WriteTransaction> &txns,
           unsigned passes)
{
    Pass out;
    double best_ns = 1e300;
    for (unsigned p = 0; p < passes; ++p) {
        trace::Replayer rep(codec, unit, 7);
        std::size_t at = 0;
        const auto start = std::chrono::steady_clock::now();
        // The runner's shard-loop entry: blocks of transactions
        // through LineCodec::encodeBatch.
        rep.runBatch([&](trace::WriteTransaction &slot) {
            if (at >= txns.size())
                return false;
            slot = txns[at++];
            return true;
        });
        const double ns = std::chrono::duration<double, std::nano>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        best_ns = std::min(best_ns, ns);
        out.meanEnergyPj = rep.result().energyPj.mean();
        out.meanUpdated = rep.result().updatedCells.mean();
    }
    out.writesPerSec = txns.empty() ? 0 : 1e9 * txns.size() / best_ns;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    namespace wb = wlcrc::bench;

    if (const int rc = wb::rejectArguments(argc, argv))
        return rc;
    return wb::benchMain([] {
        const uint64_t lines = wb::linesPerWorkload();
        const unsigned passes = 3;

        trace::TraceSynthesizer synth(
            trace::WorkloadProfile::byName("gcc"), 2718);
        std::vector<trace::WriteTransaction> txns;
        txns.reserve(lines);
        for (uint64_t i = 0; i < lines; ++i)
            txns.push_back(synth.next());

        const pcm::EnergyModel energy;
        const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
        const simd::Kernel active = simd::activeKernel();

        CsvTable table({"scheme", "lines", "mean_energy_pj",
                        "mean_updated", "writes_per_sec",
                        "speedup"});
        for (const auto &name : core::figure8Schemes()) {
            const auto codec = core::makeCodec(name, energy);
            const Pass run = timeReplay(*codec, unit, txns, passes);
            double speedup = 1;
            if (active != simd::Kernel::Scalar) {
                simd::setKernel(simd::Kernel::Scalar);
                const Pass scalar =
                    timeReplay(*codec, unit, txns, passes);
                simd::setKernel(active);
                if (scalar.meanEnergyPj != run.meanEnergyPj ||
                    scalar.meanUpdated != run.meanUpdated)
                    throw std::runtime_error(
                        name + ": " + simd::kernelName(active) +
                        " and scalar replays diverged");
                speedup = scalar.writesPerSec > 0
                              ? run.writesPerSec / scalar.writesPerSec
                              : 0.0;
            }
            table.addRow(name, txns.size(), run.meanEnergyPj,
                         run.meanUpdated, run.writesPerSec, speedup);
        }
        table.write(std::cout);
        return 0;
    });
}
