#include "wear.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace wlcrc::pcm
{

double
WearSummary::imbalance() const
{
    return avgCellWrites > 0
               ? static_cast<double>(maxCellWrites) / avgCellWrites
               : 0.0;
}

WearTracker::WearTracker(WearTracker &&o) noexcept
    : cellsPerLine_(o.cellsPerLine_), wear_(std::move(o.wear_)),
      touched_(o.touched_), total_(o.total_), max_(o.max_),
      sumSquares_(o.sumSquares_)
{
    o.clear();
}

WearTracker &
WearTracker::operator=(WearTracker &&o) noexcept
{
    if (this != &o) {
        cellsPerLine_ = o.cellsPerLine_;
        wear_ = std::move(o.wear_);
        touched_ = o.touched_;
        total_ = o.total_;
        max_ = o.max_;
        sumSquares_ = o.sumSquares_;
        o.clear();
    }
    return *this;
}

void
WearTracker::clear()
{
    wear_.clear();
    touched_ = 0;
    total_ = 0;
    max_ = 0;
    sumSquares_ = 0;
}

std::vector<uint32_t> &
WearTracker::lineFor(uint64_t addr)
{
    auto it = wear_.find(addr);
    if (it == wear_.end()) {
        it = wear_
                 .emplace(addr,
                          std::vector<uint32_t>(cellsPerLine_, 0))
                 .first;
    }
    return it->second;
}

void
WearTracker::bump(uint32_t &w)
{
    if (!w)
        ++touched_;
    sumSquares_ += 2 * static_cast<uint64_t>(w) + 1;
    ++w;
    ++total_;
    max_ = std::max<uint64_t>(max_, w);
}

void
WearTracker::recordProgram(uint64_t addr, unsigned cell)
{
    assert(cell < cellsPerLine_);
    bump(lineFor(addr)[cell]);
}

void
WearTracker::recordLine(uint64_t addr,
                        const std::vector<bool> &updated)
{
    assert(updated.size() == cellsPerLine_);
    std::vector<uint32_t> *cells = nullptr;
    for (unsigned c = 0; c < cellsPerLine_; ++c) {
        if (!updated[c])
            continue;
        if (!cells)
            cells = &lineFor(addr);
        bump((*cells)[c]);
    }
}

void
WearTracker::recordLine(uint64_t addr, const CellMask &updated)
{
    assert(updated.size() == cellsPerLine_);
    std::vector<uint32_t> *cells = nullptr;
    for (unsigned w = 0; w < updated.words(); ++w) {
        uint64_t bits = updated.word(w);
        if (bits && !cells)
            cells = &lineFor(addr);
        while (bits) {
            const unsigned c =
                w * 64 + static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            bump((*cells)[c]);
        }
    }
}

void
WearTracker::merge(const WearTracker &o)
{
    if (&o == this)
        throw std::invalid_argument(
            "WearTracker::merge: merging a tracker into itself "
            "would double every count");
    if (o.cellsPerLine_ != cellsPerLine_)
        throw std::invalid_argument(
            "WearTracker::merge: cellsPerLine mismatch (" +
            std::to_string(cellsPerLine_) + " vs " +
            std::to_string(o.cellsPerLine_) + ")");
    for (const auto &[addr, cells] : o.wear_) {
        std::vector<uint32_t> &mine = lineFor(addr);
        for (unsigned c = 0; c < cellsPerLine_; ++c) {
            if (!cells[c])
                continue;
            const uint64_t before = mine[c];
            mine[c] += cells[c];
            const uint64_t after = mine[c];
            if (!before)
                ++touched_;
            total_ += cells[c];
            sumSquares_ +=
                static_cast<unsigned __int128>(after) * after -
                static_cast<unsigned __int128>(before) * before;
            max_ = std::max(max_, after);
        }
    }
}

uint64_t
WearTracker::cellWrites(uint64_t addr, unsigned cell) const
{
    const auto it = wear_.find(addr);
    return it == wear_.end() ? 0 : it->second[cell];
}

const std::vector<uint32_t> *
WearTracker::lineWear(uint64_t addr) const
{
    const auto it = wear_.find(addr);
    return it == wear_.end() ? nullptr : &it->second;
}

WearSummary
WearTracker::summary() const
{
    WearSummary s;
    s.touchedCells = touched_;
    s.totalWrites = total_;
    s.maxCellWrites = max_;
    if (s.touchedCells) {
        s.avgCellWrites = static_cast<double>(s.totalWrites) /
                          static_cast<double>(s.touchedCells);
        const double meanSq = static_cast<double>(sumSquares_) /
                              static_cast<double>(s.touchedCells);
        const double variance =
            std::max(0.0, meanSq - s.avgCellWrites * s.avgCellWrites);
        s.covCellWrites = std::sqrt(variance) / s.avgCellWrites;
    }
    return s;
}

std::map<uint32_t, uint64_t>
WearTracker::histogram() const
{
    std::map<uint32_t, uint64_t> hist;
    for (const auto &[addr, cells] : wear_) {
        for (const uint32_t w : cells) {
            if (w)
                ++hist[w];
        }
    }
    return hist;
}

uint64_t
WearTracker::projectedLifetime(uint64_t cell_endurance,
                               uint64_t line_writes_so_far) const
{
    const WearSummary s = summary();
    if (!s.maxCellWrites || !line_writes_so_far)
        return 0;
    if (s.maxCellWrites >= cell_endurance)
        return 0;
    // The most-worn cell accrues maxCellWrites per
    // line_writes_so_far line writes; extrapolate to endurance.
    const double rate = static_cast<double>(s.maxCellWrites) /
                        static_cast<double>(line_writes_so_far);
    return static_cast<uint64_t>(
        static_cast<double>(cell_endurance - s.maxCellWrites) /
        rate);
}

} // namespace wlcrc::pcm
