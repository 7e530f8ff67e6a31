/**
 * @file
 * LifetimeEngine: replays a transaction stream through a codec, a
 * WearLeveler and the PCM device until the device dies (or a write
 * cap is hit), under deterministic per-cell endurance budgets.
 *
 * The engine separates two kinds of device traffic:
 *  - demand writes: the trace's own transactions, replayed through a
 *    stock trace::Replayer at the leveler-mapped physical address —
 *    so all per-write metrics (energy, updated cells, disturbance)
 *    stay comparable with non-leveled replays;
 *  - remap copies: physical line moves the leveler requests, written
 *    directly to the device (wear-tracked, energy-accounted in the
 *    device totals, but never folded into demand statistics) and
 *    counted as LifetimeResult::extraWrites.
 *
 * Endurance budgets are derived by hashing (physical line, cell,
 * seed) — no generator state — so a replay's death point is a pure
 * function of the spec, independent of scheduling or backends.
 */

#ifndef WLCRC_WEARLEVEL_LIFETIME_HH
#define WLCRC_WEARLEVEL_LIFETIME_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "coset/codec.hh"
#include "pcm/wear.hh"
#include "pcm/write_unit.hh"
#include "trace/replay.hh"
#include "trace/transaction.hh"
#include "tracefile/source.hh"
#include "wearlevel/config.hh"
#include "wearlevel/leveler.hh"

namespace wlcrc::wearlevel
{

/** Outcome of one lifetime (or leveled single-pass) replay. */
struct LifetimeResult
{
    bool died = false;          //!< a line exceeded its ECC budget
    uint64_t demandWrites = 0;  //!< trace transactions applied
    /** Demand writes completed when the device died; for a device
     *  that survived to the write cap, the writes it survived
     *  (compare `died` to tell the two apart). */
    uint64_t writesToFailure = 0;
    uint64_t extraWrites = 0;   //!< remap copies written
    uint64_t remapEvents = 0;   //!< leveling actions performed
    uint64_t tableBytes = 0;    //!< leveler mapping-state overhead
    uint64_t failedLine = 0;    //!< physical line that died
    unsigned failedCell = 0;    //!< first dead cell of that line
    uint64_t deadCells = 0;     //!< budget-exhausted cells at stop
    uint64_t maxCellWear = 0;   //!< most-worn cell at stop
    double finalWearCov = 0.0;  //!< wear CoV over touched cells
    /**
     * Wear CoV sampled every `covSampleEvery` demand writes. The
     * interval starts small and doubles (decimating the series)
     * whenever 128 samples accumulate, so the timeline is bounded
     * and deterministic at any horizon.
     */
    std::vector<double> wearCovTimeline;
    uint64_t covSampleEvery = 0;
};

/**
 * Deterministic per-cell endurance budget: mean * (1 + cov * z)
 * rounded, floored at 1, with z a standard-normal deviate (clamped
 * to ±3) hashed from (physical line, cell, seed).
 */
uint64_t cellBudget(const EnduranceConfig &endurance, uint64_t seed,
                    uint64_t physLine, unsigned cell);

/** Replays one spec's stream to failure through a leveler. */
class LifetimeEngine
{
  public:
    struct Options
    {
        LevelerConfig leveler;
        EnduranceConfig endurance;
        uint64_t seed = 1;  //!< device + budget seed
        bool vnr = false;   //!< Verify-n-Restore per write
    };

    /** Demand-write cap when EnduranceConfig::maxWrites is 0. */
    static constexpr uint64_t defaultWriteCap = 1000000;

    LifetimeEngine(const coset::LineCodec &codec,
                   const pcm::WriteUnit &unit, Options opts);
    ~LifetimeEngine();

    /**
     * Replay @p source — once when @p loopUntilDeath is false, or
     * repeatedly from the top until the device dies or the write
     * cap is reached. Each pass opens a fresh cursor, so memory does
     * not grow with the stream's length. Death checks run only when
     * the endurance config is active. May be called once per engine.
     */
    LifetimeResult run(const tracefile::TransactionSource &source,
                       bool loopUntilDeath);

    /** Demand-write replay metrics (remap copies excluded). */
    const trace::ReplayResult &replayResult() const;

    /** Per-cell wear including remap copies (physical addresses). */
    const pcm::WearTracker &wearTracker() const { return wear_; }

  private:
    bool checkLine(uint64_t physLine, LifetimeResult &res);
    void applyMoves(const std::vector<LineMove> &moves,
                    LifetimeResult &res);
    void sampleCov(LifetimeResult &res);

    const coset::LineCodec &codec_;
    Options opts_;
    trace::Replayer replayer_;
    pcm::WearTracker wear_;
    std::unique_ptr<WearLeveler> leveler_;
    /** Last payload written per logical line: what a remap copy
     *  re-encodes at the new physical location. */
    std::unordered_map<uint64_t, Line512> lastData_;
    /** Budgets are hashed lazily per line and cached. */
    std::unordered_map<uint64_t, std::vector<uint64_t>> budgets_;
    std::unordered_map<uint64_t, unsigned> deadPerLine_;
    coset::EncodeScratch scratch_;
    pcm::TargetLine staging_;
    bool ran_ = false;
};

/**
 * Deterministic hot-spot trace for wear-leveling evaluation:
 * @p writes transactions over @p lines distinct lines, where a
 * `hotFraction` share of writes targets the first max(1, lines/8)
 * lines. Old data is tracked per line, so differential writes see
 * consistent prior contents. Purely a function of the arguments.
 */
std::vector<trace::WriteTransaction>
hotspotTrace(uint64_t lines, uint64_t writes, uint64_t seed,
             double hotFraction = 0.8);

} // namespace wlcrc::wearlevel

#endif // WLCRC_WEARLEVEL_LIFETIME_HH
