#include "replay.hh"

#include <algorithm>
#include <array>
#include <cassert>

namespace wlcrc::trace
{

void
ReplayResult::merge(const ReplayResult &o)
{
    energyPj.merge(o.energyPj);
    dataEnergyPj.merge(o.dataEnergyPj);
    auxEnergyPj.merge(o.auxEnergyPj);
    updatedCells.merge(o.updatedCells);
    dataUpdated.merge(o.dataUpdated);
    auxUpdated.merge(o.auxUpdated);
    disturbErrors.merge(o.disturbErrors);
    dataDisturbed.merge(o.dataDisturbed);
    auxDisturbed.merge(o.auxDisturbed);
    writes += o.writes;
    compressedWrites += o.compressedWrites;
    vnrIterations += o.vnrIterations;
}

Replayer::Replayer(const coset::LineCodec &codec,
                   const pcm::WriteUnit &unit, uint64_t seed,
                   bool verify_n_restore)
    : codec_(codec), device_(codec.cellCount(), unit, seed),
      vnr_(verify_n_restore), batch_(batchLines), targets_(batchLines)
{
}

std::vector<pcm::State> &
Replayer::primedLine(const WriteTransaction &txn)
{
    if (auto *stored = device_.tryLine(txn.lineAddr))
        return *stored;
    // Prime: store the old contents, unmeasured.
    auto &stored = device_.line(txn.lineAddr);
    codec_.encodeInto(txn.oldData, {stored.data(), stored.size()},
                      scratch_, staging_);
    std::copy_n(staging_.states(), staging_.size(), stored.begin());
    return stored;
}

pcm::WriteStats
Replayer::applyWrite(const WriteTransaction &txn,
                     const pcm::TargetLine &target,
                     std::vector<pcm::State> &stored)
{
    // Compression-flag bookkeeping for single-flag-cell formats.
    if (target.size() == lineSymbols + 1 &&
        target.aux(lineSymbols) &&
        target[lineSymbols] != pcm::State::S2) {
        ++result_.compressedWrites;
    }

    const pcm::WriteStats st =
        device_.writeLine(txn.lineAddr, stored, target, vnr_);
    result_.energyPj.add(st.totalEnergyPj());
    result_.dataEnergyPj.add(st.dataEnergyPj);
    result_.auxEnergyPj.add(st.auxEnergyPj);
    result_.updatedCells.add(st.totalUpdated());
    result_.dataUpdated.add(st.dataUpdated);
    result_.auxUpdated.add(st.auxUpdated);
    result_.disturbErrors.add(st.totalDisturbed());
    result_.dataDisturbed.add(st.dataDisturbed);
    result_.auxDisturbed.add(st.auxDisturbed);
    result_.vnrIterations += st.vnrIterations;
    ++result_.writes;
    return st;
}

pcm::WriteStats
Replayer::step(const WriteTransaction &txn)
{
    auto &stored = primedLine(txn);
    codec_.encodeInto(txn.newData, {stored.data(), stored.size()},
                      scratch_, staging_);
    return applyWrite(txn, staging_, stored);
}

void
Replayer::replayIndependent(const WriteTransaction *txns,
                            std::size_t count)
{
    assert(count <= batchLines);
    // Prime first-touch lines in stream order, then collect job
    // pointers: unordered_map guarantees reference stability across
    // inserts, and the block's lines are distinct, so encoding jobs
    // against pre-write states equals encoding them one at a time.
    std::array<std::vector<pcm::State> *, batchLines> lines;
    for (std::size_t i = 0; i < count; ++i) {
        auto &stored = primedLine(txns[i]);
        lines[i] = &stored;
        jobs_[i] = {&txns[i].newData, stored.data(), &targets_[i]};
    }
    codec_.encodeBatch(jobs_.data(), count, scratch_);
    for (std::size_t i = 0; i < count; ++i)
        applyWrite(txns[i], targets_[i], *lines[i]);
}

void
Replayer::replayBlock(const WriteTransaction *txns, std::size_t n)
{
    // Split the block into maximal runs of distinct line addresses:
    // a repeated address must observe the preceding write's stored
    // state, so it starts a new run. Blocks are small enough that
    // the quadratic distinctness scan stays cheap.
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i + 1;
        for (; j < n; ++j) {
            bool dup = false;
            for (std::size_t k = i; k < j && !dup; ++k)
                dup = txns[k].lineAddr == txns[j].lineAddr;
            if (dup)
                break;
        }
        replayIndependent(txns + i, j - i);
        i = j;
    }
}

} // namespace wlcrc::trace
