/**
 * @file
 * Per-cell wear tracking and lifetime projection.
 *
 * PCM endurance is bounded by per-cell write counts (the paper uses
 * "updated cells per write" as its endurance proxy; this module adds
 * the cell-level view a memory vendor would track). A WearTracker
 * records how many RESET programs each cell of each line received
 * and projects device lifetime under a cell endurance budget.
 *
 * Recording costs what the write changes, not what the device holds:
 * one hash lookup per recorded line, and running totals (touched
 * cells, total programs, maximum, exact sum of squares) that make
 * summary() O(1).
 */

#ifndef WLCRC_PCM_WEAR_HH
#define WLCRC_PCM_WEAR_HH

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "pcm/cell.hh"

namespace wlcrc::pcm
{

/** Wear summary across all tracked lines. */
struct WearSummary
{
    uint64_t maxCellWrites = 0;   //!< most-worn cell
    double avgCellWrites = 0.0;   //!< mean over touched cells
    uint64_t touchedCells = 0;    //!< cells written at least once
    uint64_t totalWrites = 0;     //!< total cell programs
    /** Coefficient of variation (stddev/mean) over touched cells:
     *  0.0 = perfectly even wear across every written cell. */
    double covCellWrites = 0.0;
    /** Ratio max/avg: 1.0 = perfectly even wear. */
    double imbalance() const;
};

/** Tracks per-cell program counts. */
class WearTracker
{
  public:
    explicit WearTracker(unsigned cells_per_line)
        : cellsPerLine_(cells_per_line)
    {}

    WearTracker(const WearTracker &) = default;
    WearTracker &operator=(const WearTracker &) = default;

    /**
     * Moves leave @p o an empty tracker of the same line width: its
     * running totals go with its lines, so summary() never reports
     * wear the tracker no longer holds.
     */
    WearTracker(WearTracker &&o) noexcept;
    WearTracker &operator=(WearTracker &&o) noexcept;

    /** Record that cell @p cell of line @p addr was programmed. */
    void recordProgram(uint64_t addr, unsigned cell);

    /** Record a whole-line update mask. */
    void recordLine(uint64_t addr, const std::vector<bool> &updated);

    /** Allocation-free variant used by the device's write path. */
    void recordLine(uint64_t addr, const CellMask &updated);

    /**
     * Fold another tracker's per-cell counts into this one. Used to
     * combine the per-shard trackers of a sharded replay (shards
     * partition the address space, so maps are typically disjoint;
     * overlapping lines add cell-wise, so merged totals equal a
     * single-shard replay of the concatenated streams).
     *
     * @throws std::invalid_argument if the trackers' cellsPerLine
     *         differ, or if @p o is this tracker itself (a
     *         self-merge would silently double every count).
     */
    void merge(const WearTracker &o);

    /** Write count of one cell (0 if untouched). */
    uint64_t cellWrites(uint64_t addr, unsigned cell) const;

    /** Per-cell counts of one line, or nullptr if never written. */
    const std::vector<uint32_t> *lineWear(uint64_t addr) const;

    /**
     * Aggregate wear statistics, in O(1) from running totals.
     *
     * The sum of squared per-cell counts is kept as an exact 128-bit
     * integer (a w -> w+1 step adds 2w+1) and converted to double
     * once, so avg and CoV come from exact sums. A rescan that adds
     * w*w into a double in hash-map order is exact, and therefore
     * bit-identical to this, while its partial sums stay below 2^53;
     * past that this value is the correctly rounded one and, unlike
     * the rescan, does not depend on map order.
     */
    WearSummary summary() const;

    /**
     * Wear histogram: for each observed per-cell write count, the
     * number of touched cells with exactly that count. Ordered by
     * write count, so iterating it is deterministic (CSV export).
     */
    std::map<uint32_t, uint64_t> histogram() const;

    /** Number of distinct lines with at least one tracked write. */
    std::size_t trackedLines() const { return wear_.size(); }

    /**
     * Projected writes-to-first-cell-failure for a per-cell
     * endurance of @p cell_endurance programs, extrapolating the
     * observed wear distribution linearly.
     *
     * @return projected number of further line writes before the
     *         most-worn cell exceeds its endurance, or 0 if it
     *         already has.
     */
    uint64_t projectedLifetime(uint64_t cell_endurance,
                               uint64_t line_writes_so_far) const;

    unsigned cellsPerLine() const { return cellsPerLine_; }

  private:
    /** The line's counts, created (all zero) on first use. */
    std::vector<uint32_t> &lineFor(uint64_t addr);

    /** Count one program of a cell whose count is @p w. */
    void bump(uint32_t &w);

    /** Drop every line and zero the running totals. */
    void clear();

    unsigned cellsPerLine_;
    std::unordered_map<uint64_t, std::vector<uint32_t>> wear_;
    // Running totals over every cell, kept current by each record
    // and merge.
    uint64_t touched_ = 0;
    uint64_t total_ = 0;
    uint64_t max_ = 0;
    unsigned __int128 sumSquares_ = 0;
};

} // namespace wlcrc::pcm

#endif // WLCRC_PCM_WEAR_HH
