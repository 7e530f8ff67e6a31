/**
 * @file
 * Behavioural PCM device: a sparse store of per-line cell states
 * that applies codec-produced target lines through the WriteUnit.
 */

#ifndef WLCRC_PCM_DEVICE_HH
#define WLCRC_PCM_DEVICE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "pcm/cell.hh"
#include "pcm/wear.hh"
#include "pcm/write_unit.hh"

namespace wlcrc::pcm
{

/**
 * Sparse PCM cell array. Lines are allocated on first touch with all
 * cells in S1 (the post-RESET state of a fresh device).
 *
 * The device does not know about encodings; it stores raw cell states
 * of `cellsPerLine` cells per line (data + dedicated aux cells, as
 * required by the attached codec) and applies differential writes.
 */
class Device
{
  public:
    /**
     * @param cells_per_line  total cells per stored line.
     * @param unit            energy/disturbance write unit.
     * @param seed            seed for disturbance sampling.
     */
    Device(unsigned cells_per_line, const WriteUnit &unit,
           uint64_t seed = 1);

    /** @return mutable stored states of line @p addr (line-aligned
     *  address, i.e. byte address >> 6). */
    std::vector<State> &line(uint64_t addr);

    /** @return the stored line, or nullptr if never written. */
    std::vector<State> *tryLine(uint64_t addr);

    /**
     * Apply @p target to line @p addr through differential write.
     * @return per-write statistics.
     */
    WriteStats write(uint64_t addr, const TargetLine &target,
                     bool verify_n_restore = false);

    /**
     * As write(), but @p stored is the reference line(addr) already
     * returned for this address — skips the per-write hash lookup
     * (the replay hot path holds the line across prime + encode +
     * program).
     */
    WriteStats writeLine(uint64_t addr, std::vector<State> &stored,
                         const TargetLine &target,
                         bool verify_n_restore = false);

    unsigned cellsPerLine() const { return cellsPerLine_; }

    /**
     * Attach a wear tracker; every subsequent write records its
     * per-cell update mask. Pass nullptr to detach. The tracker must
     * outlive the device and have matching cellsPerLine.
     */
    void attachWearTracker(WearTracker *tracker);

  private:
    unsigned cellsPerLine_;
    WriteUnit unit_;
    Rng rng_;
    std::unordered_map<uint64_t, std::vector<State>> lines_;
    WearTracker *wear_ = nullptr;
};

} // namespace wlcrc::pcm

#endif // WLCRC_PCM_DEVICE_HH
