/**
 * @file
 * Quickstart: encode one memory line with WLCRC-16 and compare its
 * differential-write cost against the plain baseline.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/example_quickstart
 */

#include <cstdio>

#include "coset/baseline_codec.hh"
#include "pcm/write_unit.hh"
#include "wlcrc/wlcrc_codec.hh"

int
main()
{
    using namespace wlcrc;

    // A realistic 64-byte line: zeros, small counters, a -1
    // sentinel and two pointers. Every word's top 6 bits are
    // uniform, so WLC can reclaim 5 bits per word.
    Line512 line;
    line.setWord(0, 0x00000000000002a0ull); // counter
    line.setWord(1, 0xffffffffffffffffull); // -1 sentinel
    line.setWord(2, 0x00005023a1b2c3d0ull); // heap pointer
    line.setWord(3, 0x00007f11deadbee8ull); // stack pointer
    line.setWord(4, 0);
    line.setWord(5, 0xfffffffffffffe70ull); // small negative
    line.setWord(6, 0x0000000000013880ull);
    line.setWord(7, 0);

    const pcm::EnergyModel energy;            // Table II defaults
    const pcm::DisturbanceModel disturbance;  // 20 nm DER rates
    const pcm::WriteUnit unit(energy, disturbance);

    const core::WlcrcCodec wlcrc(energy, /*granularity=*/16);
    const coset::BaselineCodec baseline(energy);

    // Fresh cells start in S1; write the line once, then overwrite
    // it with a mutated version — the differential write is where
    // encoding pays off.
    std::vector<pcm::State> cells_w(wlcrc.cellCount(), pcm::State::S1);
    std::vector<pcm::State> cells_b(baseline.cellCount(),
                                    pcm::State::S1);
    Rng rng(1);
    cells_w = wlcrc.encode(line, cells_w).toVector();
    cells_b = baseline.encode(line, cells_b).toVector();

    Line512 updated = line;
    updated.setWord(0, 0x00000000000002a1ull); // counter++
    updated.setWord(1, 0);                     // sentinel cleared
    updated.setWord(5, 0x0000000000000190ull); // sign flip

    const auto st_w =
        unit.program(cells_w, wlcrc.encode(updated, cells_w), rng);
    const auto st_b = unit.program(
        cells_b, baseline.encode(updated, cells_b), rng);

    std::printf("overwrite with WLCRC-16 : %7.1f pJ, %2u cells "
                "programmed\n",
                st_w.totalEnergyPj(), st_w.totalUpdated());
    std::printf("overwrite with baseline : %7.1f pJ, %2u cells "
                "programmed\n",
                st_b.totalEnergyPj(), st_b.totalUpdated());
    std::printf("energy saved            : %6.1f%%\n",
                100.0 * (1 - st_w.totalEnergyPj() /
                                 st_b.totalEnergyPj()));

    // Decoding recovers the payload exactly.
    if (wlcrc.decode(cells_w) == updated)
        std::printf("decode check            : OK\n");
    return 0;
}
