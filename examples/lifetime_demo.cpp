/**
 * @file
 * Lifetime demo: replay a small hot-spot trace to device failure
 * twice — once through the pass-through NullLeveler and once under
 * Start-Gap — and print how far wear leveling stretches the
 * writes-to-failure.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/lifetime_demo
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "pcm/write_unit.hh"
#include "wearlevel/lifetime.hh"
#include "wlcrc/wlcrc_codec.hh"

int
main()
{
    using namespace wlcrc;

    // 48 lines, 80 % of writes hammering the hottest six — the
    // skew that kills an unleveled device early.
    const tracefile::VectorSource trace(
        std::make_shared<const std::vector<trace::WriteTransaction>>(
            wearlevel::hotspotTrace(
                /*lines=*/48, /*writes=*/600, /*seed=*/42)));

    const pcm::EnergyModel energy;
    const pcm::DisturbanceModel disturbance;
    const pcm::WriteUnit unit(energy, disturbance);
    const core::WlcrcCodec codec(energy, /*granularity=*/16);

    const auto runWith = [&](const char *scheme) {
        wearlevel::LifetimeEngine::Options opts;
        opts.leveler = wearlevel::parseLeveler(scheme);
        // Mean budget of 150 writes per cell with 20 % variance;
        // first dead cell (no ECC spares) kills the device.
        opts.endurance = wearlevel::parseEndurance("150:0.2");
        opts.seed = 42;
        wearlevel::LifetimeEngine engine(codec, unit, opts);
        const auto res = engine.run(trace, /*loopUntilDeath=*/true);
        std::printf("%-18s writes-to-failure %7llu"
                    "  (extra remap writes %llu)\n",
                    scheme,
                    static_cast<unsigned long long>(
                        res.writesToFailure),
                    static_cast<unsigned long long>(
                        res.extraWrites));
        return res;
    };

    const auto plain = runWith("none");
    const auto leveled = runWith("start-gap:p8:r16");

    std::printf("start-gap lifetime gain : %.2fx\n",
                static_cast<double>(leveled.writesToFailure) /
                    static_cast<double>(plain.writesToFailure));
    return 0;
}
