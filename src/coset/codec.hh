/**
 * @file
 * LineCodec: the common interface of every encoding scheme evaluated
 * in the paper (Baseline, FNW, FlipMin, DIN, 6cosets, COC+4cosets,
 * WLC+4cosets, WLCRC, ...).
 *
 * A codec translates a 512-bit payload into target cell states for a
 * stored line of `cellCount()` cells (256 data cells plus any
 * dedicated auxiliary cells), *given* the currently stored states so
 * that candidate selection can minimise the differential-write cost.
 * Decoding recovers the payload from stored states alone: formats are
 * self-describing.
 *
 * Hot-path design: the replay loop calls encodeInto() with a reusable
 * EncodeScratch and TargetLine, so a steady-state write performs no
 * heap allocation. Candidate scoring goes through per-stored-state
 * *cost rows* — a 4x4 writeEnergy table precomputed per EnergyModel —
 * turning the O(cells x candidates) double math of the coset search
 * into array indexing. encodeBatch() encodes a block of independent
 * (distinct-line) writes per virtual dispatch, which is how the
 * sharded replay drives codecs.
 *
 * No codec overrides encodeBatch(), yet the block path pays: the
 * replayer primes a block's lines, then encodes them all, then
 * programs them all, and that measured 4-8% more perfbench writes/s
 * than one step() per write (numbers in trace/replay.hh). Keep the
 * block path when simplifying the replay loop.
 */

#ifndef WLCRC_COSET_CODEC_HH
#define WLCRC_COSET_CODEC_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/line512.hh"
#include "pcm/energy_model.hh"
#include "pcm/write_unit.hh"

namespace wlcrc::coset
{

class Mapping;

namespace detail
{
/** Global scalar-scoring test switch (see setScalarScoringForTest). */
inline std::atomic<bool> scalarScoringFlag{false};
} // namespace detail

/**
 * Reusable per-replayer encode workspace, threaded through
 * encodeInto() so codecs stage selector bits, per-block picks and
 * compression streams without allocating per write. The fixed arrays
 * cover the selection codecs outright; the growable buffers (used by
 * the compression-backed DIN format) reach steady-state capacity
 * after the first few writes.
 *
 * Contents are scratch: no call may assume anything about the values
 * left by a previous call.
 */
struct EncodeScratch
{
    /** Per-block candidate picks (restricted/grouped selection). */
    std::array<uint8_t, lineSymbols> pick0{};
    std::array<uint8_t, lineSymbols> pick1{};
    /** Bit-string staging (selector bits, DIN group bits). */
    std::array<uint8_t, lineBits> bitsA{};
    std::array<uint8_t, lineBits> bitsB{};
    /** Aux cell-state staging. */
    std::array<pcm::State, lineSymbols> states{};
    /** Growable staging for compression-backed formats. */
    std::vector<uint8_t> bytes;
};

/** Abstract line encoding scheme. */
class LineCodec
{
  public:
    explicit LineCodec(const pcm::EnergyModel &energy);

    virtual ~LineCodec() = default;

    /** Display name used by benches and reports. */
    virtual std::string name() const = 0;

    /** Total stored cells per line (data + dedicated aux cells). */
    virtual unsigned cellCount() const = 0;

    /**
     * Encode @p data against the currently stored cell states into
     * @p target (reset by the codec). The hot-path entry: performs no
     * heap allocation in steady state.
     *
     * @param data     the new 512-bit payload.
     * @param stored   current states of all cellCount() cells.
     * @param scratch  reusable workspace owned by the caller.
     * @param target   receives target states + aux-region layout.
     */
    virtual void encodeInto(const Line512 &data,
                            std::span<const pcm::State> stored,
                            EncodeScratch &scratch,
                            pcm::TargetLine &target) const = 0;

    /**
     * One independent line write of a batch: every job's line is
     * distinct, so jobs do not observe each other's targets.
     */
    struct EncodeJob
    {
        const Line512 *data;        //!< payload to store
        const pcm::State *stored;   //!< cellCount() current states
        pcm::TargetLine *target;    //!< output slot
    };

    /**
     * Encode a block of independent writes. The default loops over
     * encodeInto(); hot codecs may override to amortise per-call
     * setup across a shard's block of transactions. None does today,
     * and the block order still pays (see the file comment): do not
     * fold it back into per-write step() calls.
     */
    virtual void encodeBatch(const EncodeJob *jobs, std::size_t count,
                             EncodeScratch &scratch) const;

    /**
     * Convenience wrapper for tests, tools and examples: allocates a
     * fresh target and scratch per call.
     */
    pcm::TargetLine encode(const Line512 &data,
                           const std::vector<pcm::State> &stored) const;

    /** Recover the payload from stored states. */
    virtual Line512 decode(
        const std::vector<pcm::State> &stored) const = 0;

    const pcm::EnergyModel &energyModel() const { return energy_; }

    /**
     * Test hook: when set, cost rows are recomputed from the
     * EnergyModel on every fetch (the pre-refactor scalar scoring)
     * instead of read from the cached 4x4 table. Selection must be
     * identical either way; tests/encode_equivalence_test.cc replays
     * every scheme under both modes and asserts it.
     */
    static void setScalarScoringForTest(bool on);

    static bool
    scalarScoringForTest()
    {
        return detail::scalarScoringFlag.load(
            std::memory_order_relaxed);
    }

  protected:
    /** Cost of writing @p target into a cell storing @p stored. */
    double
    cellCost(pcm::State stored, pcm::State target) const
    {
        return costRow(stored)[pcm::stateIndex(target)];
    }

    /**
     * The 4-entry write-cost row of a cell storing @p stored:
     * row[stateIndex(t)] == writeEnergy(stored, t). Under the scalar
     * test hook the row is recomputed from the EnergyModel into a
     * small thread-local ring of staging buffers, so callers may
     * hold at most four rows at once in that mode (none hold more
     * than two).
     */
    const double *
    costRow(pcm::State stored) const
    {
        if (scalarScoringForTest()) [[unlikely]]
            return scalarRow(stored);
        return costs_[pcm::stateIndex(stored)].data();
    }

    /**
     * Build the per-(stored state, symbol) candidate-cost rows the
     * SIMD scoring kernels consume:
     *   rows[(s * 4 + sym) * stride + c] =
     *       costRow(s)[stateIndex(candidates[c]->encode(sym))]
     * with lanes past the candidate count zero-padded. Values are
     * copied from the cached cost table, so kernel scoring is
     * numerically identical to cached scalar scoring by
     * construction. @p stride is 4 or 8 (accumRows4 / accumRows8).
     */
    void buildCandidateCostRows(
        std::span<const Mapping *const> candidates, unsigned stride,
        double *rows) const;

  private:
    const double *scalarRow(pcm::State stored) const;

    pcm::EnergyModel energy_;
    std::array<std::array<double, pcm::numStates>, pcm::numStates>
        costs_;
};

using CodecPtr = std::unique_ptr<LineCodec>;

} // namespace wlcrc::coset

#endif // WLCRC_COSET_CODEC_HH
