/**
 * @file
 * Differential-write application and per-write bookkeeping.
 *
 * A codec produces a TargetLine: the desired post-write state of every
 * cell of a stored line (data cells plus any dedicated auxiliary
 * cells) together with a mask tagging which cells belong to the
 * auxiliary encoding. The WriteUnit applies the target to the stored
 * states using differential write, and reports energy, updated cells
 * and write-disturbance errors split into data/aux components — the
 * three metrics evaluated throughout the paper.
 */

#ifndef WLCRC_PCM_WRITE_UNIT_HH
#define WLCRC_PCM_WRITE_UNIT_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/rng.hh"
#include "pcm/cell.hh"
#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"

namespace wlcrc::pcm
{

/**
 * Desired post-write cell states plus the aux-region description.
 *
 * Storage is fixed-capacity and inline (maxLineCells), so building a
 * target allocates nothing — the encode hot path reuses one instance
 * per replayer. The aux region is described two ways, matching how
 * codecs lay lines out:
 *  - auxStart(): every cell at or past this boundary is auxiliary
 *    (the dedicated trailing aux cells of FNW/FlipMin/nCosets/
 *    restricted codecs and the per-line flag cell);
 *  - markAux(): individual cells inside the data region that carry
 *    auxiliary bits (the WLC-reclaimed selector cells of the
 *    WLC/WLCRC/COC formats).
 */
class TargetLine
{
  public:
    static constexpr unsigned maxCells = maxLineCells;

    TargetLine() = default;
    explicit TargetLine(unsigned n_cells) { reset(n_cells); }

    /** Resize to @p n cells, all S1, with an empty aux region. */
    void
    reset(unsigned n)
    {
        size_ = n;
        auxStart_ = n;
        std::fill_n(cells_.data(), n, State::S1);
        std::fill_n(auxBits_.data(), (n + 63) / 64, uint64_t{0});
    }

    unsigned size() const { return size_; }

    State operator[](unsigned i) const { return cells_[i]; }
    State &operator[](unsigned i) { return cells_[i]; }

    /** First cell of the trailing dedicated-aux region. */
    unsigned auxStart() const { return auxStart_; }
    void setAuxStart(unsigned c) { auxStart_ = c; }

    /** Tag an embedded aux cell inside the data region. */
    void
    markAux(unsigned i)
    {
        auxBits_[i >> 6] |= uint64_t{1} << (i & 63);
    }

    /** True iff cell @p i carries auxiliary encoding bits. */
    bool
    aux(unsigned i) const
    {
        return i >= auxStart_ ||
               ((auxBits_[i >> 6] >> (i & 63)) & 1);
    }

    /**
     * aux() of cells 64w..64w+63 as one word (bit j = cell 64w + j):
     * the embedded aux bits OR'd with the tail from auxStart(). Bits
     * past size() are unspecified.
     */
    uint64_t
    auxWord(unsigned w) const
    {
        const unsigned base = w * 64;
        if (auxStart_ >= base + 64)
            return auxBits_[w];
        const unsigned from = auxStart_ > base ? auxStart_ - base : 0;
        return auxBits_[w] | (~uint64_t{0} << from);
    }

    const State *states() const { return cells_.data(); }
    /** Writable cell storage (SIMD symbol-mapping kernels). */
    State *states() { return cells_.data(); }

    /** Copy out the states (tests and cold paths). */
    std::vector<State>
    toVector() const
    {
        return {cells_.data(), cells_.data() + size_};
    }

    /** Set the first @p n cells (tests and cold paths). */
    void
    assign(std::initializer_list<State> states)
    {
        unsigned i = 0;
        for (const State s : states)
            cells_[i++] = s;
    }

  private:
    std::array<State, maxCells> cells_{};
    std::array<uint64_t, maxCells / 64> auxBits_{};
    uint32_t size_ = 0;
    uint32_t auxStart_ = 0;
};

/** Metrics of one line write (paper Figures 8-13 report these). */
struct WriteStats
{
    double dataEnergyPj = 0.0;   //!< energy spent on data cells
    double auxEnergyPj = 0.0;    //!< energy spent on aux cells
    unsigned dataUpdated = 0;    //!< data cells programmed
    unsigned auxUpdated = 0;     //!< aux cells programmed
    unsigned dataDisturbed = 0;  //!< disturbance errors in data cells
    unsigned auxDisturbed = 0;   //!< disturbance errors in aux cells
    unsigned vnrIterations = 0;  //!< Verify-n-Restore passes needed

    double totalEnergyPj() const { return dataEnergyPj + auxEnergyPj; }
    unsigned totalUpdated() const { return dataUpdated + auxUpdated; }
    unsigned
    totalDisturbed() const
    {
        return dataDisturbed + auxDisturbed;
    }
};

/**
 * Applies differential writes and optionally the iterative
 * Verify-n-Restore (VnR) disturbance-repair loop.
 */
class WriteUnit
{
  public:
    WriteUnit(const EnergyModel &energy, const DisturbanceModel &disturb);

    /**
     * Program @p stored toward @p target with differential write.
     *
     * Only cells whose stored state differs are programmed. The
     * first-pass disturbance errors are sampled and reported in the
     * stats (this is the quantity Figures 10/13 plot); when
     * @p verify_n_restore is set, disturbed cells are then repaired
     * iteratively until a pass completes without new disturbances,
     * with repair energy *not* added to the reported write energy
     * (the paper reports raw write energy and treats VnR as a
     * correction mechanism).
     *
     * @param stored  current cell states; mutated to the final state.
     * @param target  desired states + aux mask (sizes must match).
     * @param rng     randomness for disturbance sampling.
     * @param verify_n_restore  run the VnR repair loop.
     * @param updatedOut  if set, receives the first-pass update mask
     *                    (the cells the differential write
     *                    programmed; VnR repairs are not in it).
     */
    WriteStats program(std::vector<State> &stored,
                       const TargetLine &target, Rng &rng,
                       bool verify_n_restore = false,
                       CellMask *updatedOut = nullptr) const;

    /**
     * Deterministic variant: disturbance errors are accumulated as
     * expectations (fractional), everything else identical. Used by
     * fast analytic sweeps and property tests.
     */
    WriteStats programExpected(std::vector<State> &stored,
                               const TargetLine &target) const;

    const EnergyModel &energyModel() const { return energy_; }
    const DisturbanceModel &disturbanceModel() const { return disturb_; }

  private:
    EnergyModel energy_;
    DisturbanceModel disturb_;
    /** programEnergy(s) per state, as the census path multiplies them. */
    std::array<double, numStates> stateEnergy_{};
    /**
     * Every stateEnergy_ is an integer with |E| <= 2^43, so a line's
     * energy sum is exact in any order and the census path applies
     * (see applyDifferential).
     */
    bool countable_ = false;
};

} // namespace wlcrc::pcm

#endif // WLCRC_PCM_WRITE_UNIT_HH
