#include "device.hh"

#include <cassert>

namespace wlcrc::pcm
{

Device::Device(unsigned cells_per_line, const WriteUnit &unit,
               uint64_t seed)
    : cellsPerLine_(cells_per_line), unit_(unit), rng_(seed)
{
}

std::vector<State> &
Device::line(uint64_t addr)
{
    auto it = lines_.find(addr);
    if (it == lines_.end()) {
        it = lines_
                 .emplace(addr, std::vector<State>(cellsPerLine_,
                                                   State::S1))
                 .first;
    }
    return it->second;
}

std::vector<State> *
Device::tryLine(uint64_t addr)
{
    auto it = lines_.find(addr);
    return it == lines_.end() ? nullptr : &it->second;
}

WriteStats
Device::write(uint64_t addr, const TargetLine &target,
              bool verify_n_restore)
{
    return writeLine(addr, line(addr), target, verify_n_restore);
}

WriteStats
Device::writeLine(uint64_t addr, std::vector<State> &stored,
                  const TargetLine &target, bool verify_n_restore)
{
    assert(target.size() == cellsPerLine_);
    assert(tryLine(addr) == &stored);
    CellMask updated;
    const WriteStats st =
        unit_.program(stored, target, rng_, verify_n_restore,
                      wear_ ? &updated : nullptr);
    if (wear_)
        wear_->recordLine(addr, updated);
    return st;
}

void
Device::attachWearTracker(WearTracker *tracker)
{
    assert(!tracker || tracker->cellsPerLine() == cellsPerLine_);
    wear_ = tracker;
}

} // namespace wlcrc::pcm
