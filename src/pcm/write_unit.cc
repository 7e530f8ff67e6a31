#include "write_unit.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>

#include "common/simd.hh"

namespace wlcrc::pcm
{

namespace
{

/** Per-word aux flags of @p target (TargetLine::auxWord). */
struct AuxWords
{
    explicit AuxWords(const TargetLine &target)
    {
        const unsigned nw = (target.size() + 63) / 64;
        for (unsigned w = 0; w < nw; ++w)
            words[w] = target.auxWord(w);
    }
    uint64_t words[maxLineCells / 64] = {};
};

/** True iff sums of up to maxLineCells of @p e are exact doubles. */
bool
exactlySummable(const std::array<double, numStates> &e)
{
    // An integer |E| <= 2^43 times at most 768 < 2^10 cells stays
    // below 2^53, so every partial sum, in any order, and every
    // count * E product is an exactly representable integer.
    constexpr double limit = 8796093022208.0; // 2^43
    for (const double v : e)
        if (!(std::fabs(v) <= limit) || v != std::trunc(v))
            return false;
    return true;
}

/**
 * Program the cells of @p stored that differ from @p target and
 * charge their energy and update count to data or aux.
 *
 * The energy of a write is the sum of programEnergy(target state)
 * over the programmed cells. The golden results pin that sum as
 * added in ascending cell order. When every state energy is an
 * integer of at most 2^43 (Table II, Figure 14 and every integer
 * --s3/--s4: @p countable), that sum is exact in any order, so one
 * census kernel counts the programmed cells per (data|aux, target
 * state), the line is copied over whole (equal cells stay equal),
 * and the energy is eight multiply-adds: the same double, bit for
 * bit. Any other model keeps the ascending per-cell loop.
 */
void
applyDifferential(std::vector<State> &stored, const TargetLine &target,
                  const AuxWords &aux,
                  const std::array<double, numStates> &stateEnergy,
                  bool countable, WriteStats &st, CellMask &updated)
{
    assert(stored.size() == target.size());
    const unsigned n = static_cast<unsigned>(stored.size());
    updated.reset(n);
    State *cur = stored.data();
    const State *tgt = target.states();
    uint32_t counts[2][numStates];
    simd::ops().programCensus(reinterpret_cast<const uint8_t *>(cur),
                              reinterpret_cast<const uint8_t *>(tgt),
                              aux.words, n, updated.rawWords(), counts);
    if (countable) {
        std::copy_n(tgt, n, cur);
        for (unsigned s = 0; s < numStates; ++s) {
            st.dataEnergyPj += counts[0][s] * stateEnergy[s];
            st.auxEnergyPj += counts[1][s] * stateEnergy[s];
            st.dataUpdated += counts[0][s];
            st.auxUpdated += counts[1][s];
        }
        return;
    }
    for (unsigned w = 0; w < updated.words(); ++w) {
        uint64_t diff = updated.word(w);
        while (diff) {
            const unsigned i =
                w * 64 +
                static_cast<unsigned>(std::countr_zero(diff));
            diff &= diff - 1;
            const double e = stateEnergy[stateIndex(tgt[i])];
            if ((aux.words[w] >> (i & 63)) & 1) {
                st.auxEnergyPj += e;
                ++st.auxUpdated;
            } else {
                st.dataEnergyPj += e;
                ++st.dataUpdated;
            }
            cur[i] = tgt[i];
        }
    }
}

} // namespace

WriteUnit::WriteUnit(const EnergyModel &energy,
                     const DisturbanceModel &disturb)
    : energy_(energy), disturb_(disturb)
{
    for (unsigned s = 0; s < numStates; ++s)
        stateEnergy_[s] = energy_.programEnergy(stateFromIndex(s));
    countable_ = exactlySummable(stateEnergy_);
}

WriteStats
WriteUnit::program(std::vector<State> &stored, const TargetLine &target,
                   Rng &rng, bool verify_n_restore,
                   CellMask *updatedOut) const
{
    WriteStats st;
    CellMask local;
    CellMask &updated = updatedOut ? *updatedOut : local;
    const AuxWords aux(target);
    applyDifferential(stored, target, aux, stateEnergy_, countable_, st,
                      updated);

    // First-pass disturbance: this is what the paper's figures count.
    CellMask disturbed;
    unsigned errors = disturb_.sample(stored.data(), stored.size(),
                                      updated, rng, &disturbed);
    for (unsigned w = 0; w < disturbed.words(); ++w)
        st.auxDisturbed +=
            simd::popcount64(disturbed.word(w) & aux.words[w]);
    st.dataDisturbed = errors - st.auxDisturbed;
    st.vnrIterations = errors ? 1 : 0;

    if (!verify_n_restore) {
        // Without VnR the disturbed (idle) cells keep their logical
        // value in this behavioural model: the subsequent
        // read-after-write detects and restores them out of band.
        return st;
    }

    // Iterative Verify-n-Restore: re-program disturbed cells; the
    // repair RESETs may disturb further idle cells. The paper reports
    // this converging in 3-5 iterations.
    while (errors) {
        ++st.vnrIterations;
        const CellMask repairing = disturbed;
        errors = disturb_.sample(stored.data(), stored.size(),
                                 repairing, rng, &disturbed);
    }
    return st;
}

WriteStats
WriteUnit::programExpected(std::vector<State> &stored,
                           const TargetLine &target) const
{
    WriteStats st;
    CellMask updated;
    applyDifferential(stored, target, AuxWords(target), stateEnergy_,
                      countable_, st, updated);
    // Expectation is reported as a rounded count on the (unsplit)
    // data side; callers needing the exact value use the model
    // directly. Keep full precision available via the return value's
    // dataDisturbed only when integral; tests use
    // DisturbanceModel::expected() for exact checks.
    const double expected =
        disturb_.expected(stored.data(), stored.size(), updated);
    st.dataDisturbed = static_cast<unsigned>(expected + 0.5);
    return st;
}

} // namespace wlcrc::pcm
