#include "disturbance.hh"

#include <bit>
#include <cstddef>

#include <cassert>

#include "common/simd.hh"

namespace wlcrc::pcm
{

namespace
{

/** Number of programmed (RESETting) linear neighbours of cell i. */
unsigned
resetNeighbours(const CellMask &updated, std::size_t i)
{
    unsigned n = 0;
    if (i > 0 && updated.test(static_cast<unsigned>(i - 1)))
        ++n;
    if (i + 1 < updated.size() &&
        updated.test(static_cast<unsigned>(i + 1)))
        ++n;
    return n;
}

CellMask
maskFromVector(const std::vector<bool> &v)
{
    assert(v.size() <= maxLineCells);
    CellMask m;
    m.reset(static_cast<unsigned>(v.size()));
    for (std::size_t i = 0; i < v.size(); ++i)
        if (v[i])
            m.set(static_cast<unsigned>(i));
    return m;
}

} // namespace

unsigned
DisturbanceModel::sample(const State *cells, std::size_t n,
                         const CellMask &updated, Rng &rng,
                         CellMask *disturbed) const
{
    assert(n == updated.size());
    if (disturbed)
        disturbed->reset(static_cast<unsigned>(n));
    unsigned errors = 0;
    // One draw slot per exposure: the candidate's bit in the word and
    // its state's chance limit. A word holds at most 64 candidates of
    // at most two exposures each.
    uint8_t bit[128];
    uint64_t limit[128];
    uint64_t draw[128];
    const unsigned nw = updated.words();
    for (unsigned w = 0; w < nw; ++w) {
        const uint64_t u = updated.word(w);
        const uint64_t lo = w ? updated.word(w - 1) : 0;
        const uint64_t hi = w + 1 < nw ? updated.word(w + 1) : 0;
        // Bit i of `left` / `right`: cell i-1 / i+1 was programmed.
        const uint64_t left = (u << 1) | (lo >> 63);
        const uint64_t right = (u >> 1) | (hi << 63);
        uint64_t keep = ~u;
        if (static_cast<std::size_t>(w + 1) * 64 > n) {
            // Trim neighbour bits past the end of the line.
            keep &= ~uint64_t{0} >>
                    (static_cast<std::size_t>(w + 1) * 64 - n);
        }
        uint64_t cand = (left | right) & keep;
        const uint64_t two = left & right & keep;
        if (!cand)
            continue;

        // Gather in ascending cell order. Both slots are written
        // unconditionally; the count advances by the candidate's
        // draws (0, 1 or 2), so the next candidate overwrites any
        // slot this one did not claim.
        const State *base = cells + static_cast<std::size_t>(w) * 64;
        unsigned m = 0;
        while (cand) {
            const unsigned b =
                static_cast<unsigned>(std::countr_zero(cand));
            cand &= cand - 1;
            const uint64_t lim = limit_[stateIndex(base[b])];
            bit[m] = bit[m + 1] = static_cast<uint8_t>(b);
            limit[m] = limit[m + 1] = lim;
            m += (lim != noDraw) *
                 (1 + static_cast<unsigned>((two >> b) & 1));
        }

        rng.nextN(draw, m);
        uint64_t hits = 0;
        for (unsigned k = 0; k < m; ++k)
            hits |= static_cast<uint64_t>((draw[k] >> 11) < limit[k])
                    << bit[k];
        errors += simd::popcount64(hits);
        if (disturbed)
            disturbed->rawWords()[w] = hits;
    }
    return errors;
}

unsigned
DisturbanceModel::sample(const std::vector<State> &cells,
                         const std::vector<bool> &updated, Rng &rng,
                         std::vector<bool> *disturbed) const
{
    assert(cells.size() == updated.size());
    const CellMask mask = maskFromVector(updated);
    CellMask out;
    const unsigned errors =
        sample(cells.data(), cells.size(), mask, rng,
               disturbed ? &out : nullptr);
    if (disturbed) {
        disturbed->assign(cells.size(), false);
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (out.test(static_cast<unsigned>(i)))
                (*disturbed)[i] = true;
    }
    return errors;
}

double
DisturbanceModel::expected(const State *cells, std::size_t n,
                           const CellMask &updated) const
{
    assert(n == updated.size());
    double expected = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (updated.test(static_cast<unsigned>(i)))
            continue;
        const double p = der_[stateIndex(cells[i])];
        if (p <= 0.0)
            continue;
        const unsigned exposures = resetNeighbours(updated, i);
        // P(at least one of `exposures` independent pulses disturbs).
        double survive = 1.0;
        for (unsigned e = 0; e < exposures; ++e)
            survive *= 1.0 - p;
        expected += 1.0 - survive;
    }
    return expected;
}

double
DisturbanceModel::expected(const std::vector<State> &cells,
                           const std::vector<bool> &updated) const
{
    assert(cells.size() == updated.size());
    return expected(cells.data(), cells.size(),
                    maskFromVector(updated));
}

} // namespace wlcrc::pcm
