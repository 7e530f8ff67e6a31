#include "write_unit.hh"

#include <bit>
#include <cstddef>

#include <cassert>

#include "common/simd.hh"

namespace wlcrc::pcm
{

WriteStats &
WriteStats::operator+=(const WriteStats &o)
{
    dataEnergyPj += o.dataEnergyPj;
    auxEnergyPj += o.auxEnergyPj;
    dataUpdated += o.dataUpdated;
    auxUpdated += o.auxUpdated;
    dataDisturbed += o.dataDisturbed;
    auxDisturbed += o.auxDisturbed;
    vnrIterations += o.vnrIterations;
    return *this;
}

namespace
{

/** Program differing cells and charge energy/updates to data or aux. */
void
applyDifferential(std::vector<State> &stored, const TargetLine &target,
                  const EnergyModel &energy, WriteStats &st,
                  CellMask &updated)
{
    assert(stored.size() == target.size());
    const unsigned n = static_cast<unsigned>(stored.size());
    updated.reset(n);
    // Word-wise differential scan through the SIMD shim: one
    // cell-difference bitmask per line, then per-cell work only for
    // genuinely differing cells, in ascending cell order (the energy
    // accumulation order the golden results pin down).
    State *cur = stored.data();
    const State *tgt = target.states();
    simd::ops().byteDiffMask(reinterpret_cast<const uint8_t *>(cur),
                             reinterpret_cast<const uint8_t *>(tgt),
                             n, updated.rawWords());
    for (unsigned w = 0; w < updated.words(); ++w) {
        uint64_t diff = updated.word(w);
        while (diff) {
            const unsigned i =
                w * 64 +
                static_cast<unsigned>(std::countr_zero(diff));
            diff &= diff - 1;
            const double e = energy.programEnergy(tgt[i]);
            if (target.aux(i)) {
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

WriteStats
WriteUnit::program(std::vector<State> &stored, const TargetLine &target,
                   Rng &rng, bool verify_n_restore,
                   CellMask *updatedOut) const
{
    WriteStats st;
    CellMask local;
    CellMask &updated = updatedOut ? *updatedOut : local;
    applyDifferential(stored, target, energy_, st, updated);

    // First-pass disturbance: this is what the paper's figures count.
    CellMask disturbed;
    unsigned errors = disturb_.sample(stored.data(), stored.size(),
                                      updated, rng, &disturbed);
    for (unsigned w = 0; w < disturbed.words(); ++w) {
        uint64_t bits = disturbed.word(w);
        while (bits) {
            const unsigned i =
                w * 64 +
                static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            if (target.aux(i))
                ++st.auxDisturbed;
            else
                ++st.dataDisturbed;
        }
    }
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
    applyDifferential(stored, target, energy_, st, updated);
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
