/**
 * @file
 * Replayer: drives a codec + PCM device with a transaction stream and
 * aggregates the per-write metrics the paper's figures report.
 *
 * For the first write to a line, the replayer primes the device with
 * the transaction's old contents (unmeasured) so the measured write
 * always differentiates against realistically encoded prior state.
 *
 * The replayer owns one EncodeScratch and one TargetLine, so a
 * steady-state write performs no heap allocation. pushBlock() is the
 * block entry the runner's shard groups and the live service's bank
 * workers use: it replays up to batchLines transactions the caller
 * gathered and encodes the block's independent (distinct-line) runs
 * through LineCodec::encodeBatch — one virtual dispatch per run
 * instead of per write, with identical results to step()-ing every
 * transaction in order. runBatch() is its pull twin, which gathers
 * the blocks itself from a fill callback.
 *
 * The block path pays although no codec overrides encodeBatch: a
 * block primes its lines, encodes them and programs them in three
 * passes instead of interleaving the three per write. Replacing
 * replayBlock() with one step() per write measured synth-sweep
 * writes/s 8.2% lower and serve-capture 4.2% lower (perfbench, 4
 * alternating pairs of 8 s each on a 4-vCPU Xeon VM, slower in every
 * pair). Do not delete it as dead weight.
 */

#ifndef WLCRC_TRACE_REPLAY_HH
#define WLCRC_TRACE_REPLAY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "coset/codec.hh"
#include "pcm/device.hh"
#include "stats/stats.hh"
#include "trace/transaction.hh"

namespace wlcrc::trace
{

/** Aggregated per-write metrics over a replay. */
struct ReplayResult
{
    stats::RunningStat energyPj;        //!< total energy per write
    stats::RunningStat dataEnergyPj;    //!< data-cell energy
    stats::RunningStat auxEnergyPj;     //!< aux-cell energy
    stats::RunningStat updatedCells;    //!< cells programmed
    stats::RunningStat dataUpdated;
    stats::RunningStat auxUpdated;
    stats::RunningStat disturbErrors;   //!< disturbance errors
    stats::RunningStat dataDisturbed;
    stats::RunningStat auxDisturbed;
    uint64_t writes = 0;
    uint64_t compressedWrites = 0; //!< flag-cell = compressed formats
    uint64_t vnrIterations = 0;    //!< total Verify-n-Restore passes

    /**
     * Fold another replay's metrics into this one, as if both
     * transaction streams had been replayed back-to-back. Used to
     * combine per-shard results of a sharded replay.
     */
    void merge(const ReplayResult &o);
};

/** Replays transactions through one codec onto one device. */
class Replayer
{
  public:
    /** Transactions per replayed block. */
    static constexpr std::size_t batchLines = 32;

    /**
     * @param codec  encoding scheme under test.
     * @param unit   energy/disturbance model.
     * @param seed   device disturbance-sampling seed.
     * @param verify_n_restore  run the VnR repair loop per write.
     */
    Replayer(const coset::LineCodec &codec, const pcm::WriteUnit &unit,
             uint64_t seed = 7, bool verify_n_restore = false);

    /** Replay one transaction (priming the line if first touch). */
    pcm::WriteStats step(const WriteTransaction &txn);

    /** Replay @p count transactions pulled from @p source. */
    template <typename Source>
    void
    run(Source &source, uint64_t count)
    {
        for (uint64_t i = 0; i < count; ++i) {
            const WriteTransaction &txn = source.next();
            step(txn);
        }
    }

    /**
     * Pull twin of pushBlock(): @p fill is called with a slot to
     * write the next transaction into and returns false when the
     * stream is exhausted. Results are identical to step()-ing the
     * same stream in order.
     *
     * @return number of transactions replayed.
     */
    template <typename FillFn>
    uint64_t
    runBatch(FillFn &&fill)
    {
        uint64_t total = 0;
        for (;;) {
            std::size_t n = 0;
            while (n < batchLines && fill(batch_[n]))
                ++n;
            if (n == 0)
                break;
            replayBlock(batch_.data(), n);
            total += n;
            if (n < batchLines)
                break;
        }
        return total;
    }

    /**
     * Replay @p n <= batchLines transactions as one block, for
     * callers that gather blocks themselves (a runner shard group
     * routes one cursor's records to several shard replayers; a
     * serve bank replays what its queue holds). Results are
     * identical to step()-ing them.
     */
    void
    pushBlock(const WriteTransaction *txns, std::size_t n)
    {
        replayBlock(txns, n);
    }

    const ReplayResult &result() const { return result_; }
    pcm::Device &device() { return device_; }

  private:
    /** Replay a block sequentially-equivalently (see .cc). */
    void replayBlock(const WriteTransaction *txns, std::size_t n);
    /** Encode-and-write @p count distinct-line transactions. */
    void replayIndependent(const WriteTransaction *txns,
                           std::size_t count);
    /** Prime the line on first touch; @return its stored states. */
    std::vector<pcm::State> &primedLine(const WriteTransaction &txn);
    /** Program @p target and fold the write into the result. */
    pcm::WriteStats applyWrite(const WriteTransaction &txn,
                               const pcm::TargetLine &target,
                               std::vector<pcm::State> &stored);

    const coset::LineCodec &codec_;
    pcm::Device device_;
    ReplayResult result_;
    bool vnr_;
    coset::EncodeScratch scratch_;
    pcm::TargetLine staging_;
    std::vector<WriteTransaction> batch_;
    std::vector<pcm::TargetLine> targets_;
    /** replayIndependent's encode jobs (a member, so no block pays
     *  to initialise them). */
    std::array<coset::LineCodec::EncodeJob, batchLines> jobs_{};
};

} // namespace wlcrc::trace

#endif // WLCRC_TRACE_REPLAY_HH
