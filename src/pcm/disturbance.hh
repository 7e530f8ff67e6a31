/**
 * @file
 * Write-disturbance model for super-dense MLC PCM (paper Table II,
 * rates from Jiang et al., DSN'14, 20 nm node).
 *
 * Every programmed cell starts with a RESET pulse whose heat can
 * unintentionally lower the resistance of *idle* adjacent cells.
 * Disturbance is unidirectional: cells already at minimum resistance
 * (state S2 in the paper's energy ordering) are immune; idle cells in
 * S1 / S3 / S4 are disturbed with per-state probabilities (DER).
 */

#ifndef WLCRC_PCM_DISTURBANCE_HH
#define WLCRC_PCM_DISTURBANCE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "pcm/cell.hh"

namespace wlcrc::pcm
{

/** Per-state disturbance error rates when a neighbour is RESET. */
class DisturbanceModel
{
  public:
    /** Defaults from Table II (20 nm): S1 12.3%, S2 0%, S3 27.6%, S4 15.2%. */
    constexpr DisturbanceModel() = default;

    explicit constexpr
    DisturbanceModel(const std::array<double, numStates> &der)
        : der_(der)
    {}

    /** Disturbance probability of an idle cell in state @p s per
     *  adjacent RESET. */
    constexpr double der(State s) const { return der_[stateIndex(s)]; }

    /**
     * Sample the number of disturbed idle cells for one line write.
     *
     * @param cells    stored states after the write (@p n cells).
     * @param updated  updated.test(i) true iff cell i was programmed.
     * @param rng      randomness source.
     * @param disturbed  out (optional): per-cell disturbed flags.
     * @return number of disturbance errors in this write pass.
     *
     * Each programmed cell exposes its linear neighbours (i-1, i+1);
     * an idle neighbour flanked by two programmed cells gets two
     * independent chances to be disturbed, matching the physical
     * model of per-RESET heat pulses.
     *
     * Draw-then-decide, one 64-cell mask word at a time: gather the
     * word's candidates (idle cells with a programmed neighbour),
     * draw all their exposures in one Rng::nextN() call, then decide
     * every hit without branches as (r >> 11) < ceil(p * 2^53), which
     * is exactly Rng::chance(p).
     *
     * Draw-order contract (every golden depends on it): candidates
     * are visited in ascending cell order and each draws one value
     * per exposure, even after an earlier exposure hit; a state with
     * DER p <= 0 draws nothing, any other p (NaN included, which
     * never hits) draws. Allocation-free: fixed stack arrays of at
     * most 128 draws per word; this is the write hot path's sampler.
     */
    unsigned sample(const State *cells, std::size_t n,
                    const CellMask &updated, Rng &rng,
                    CellMask *disturbed = nullptr) const;

    /** Convenience adapter for vector-based callers (tests). */
    unsigned sample(const std::vector<State> &cells,
                    const std::vector<bool> &updated, Rng &rng,
                    std::vector<bool> *disturbed = nullptr) const;

    /**
     * Expected number of disturbance errors for one write pass
     * (deterministic; used by tests and fast analytic sweeps).
     */
    double expected(const State *cells, std::size_t n,
                    const CellMask &updated) const;

    /** Convenience adapter for vector-based callers (tests). */
    double expected(const std::vector<State> &cells,
                    const std::vector<bool> &updated) const;

  private:
    /** Chance limit of a state that draws nothing (DER p <= 0). */
    static constexpr uint64_t noDraw = ~uint64_t{0};

    /**
     * Integer form of Rng::chance(p): a draw r hits iff
     * (r >> 11) < chanceLimit(p). (r >> 11) * 2^-53 < p holds iff
     * (r >> 11) < ceil(p * 2^53), and p * 2^53 is exact, so no
     * rounding separates the two. p >= 1 always hits; NaN draws but
     * never hits; p <= 0 does not draw at all (noDraw).
     */
    static constexpr uint64_t
    chanceLimit(double p)
    {
        if (p <= 0.0)
            return noDraw;
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return uint64_t{1} << 53;
        const double scaled = p * 0x1.0p53;
        const auto floor = static_cast<uint64_t>(scaled);
        return floor + (static_cast<double>(floor) < scaled);
    }

    static constexpr std::array<uint64_t, numStates>
    chanceLimits(const std::array<double, numStates> &der)
    {
        std::array<uint64_t, numStates> limits{};
        for (unsigned s = 0; s < numStates; ++s)
            limits[s] = chanceLimit(der[s]);
        return limits;
    }

    std::array<double, numStates> der_{0.123, 0.0, 0.276, 0.152};
    std::array<uint64_t, numStates> limit_ = chanceLimits(der_);
};

} // namespace wlcrc::pcm

#endif // WLCRC_PCM_DISTURBANCE_HH
