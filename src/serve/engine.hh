/**
 * @file
 * BankEngine: the encode core of the live write-stream service.
 *
 * Each bank is a shard of the offline runner's sharded replay
 * (runner/backend.hh): bank = lineAddr % banks, and bank b's
 * replayer and wear tracker come from runner::shardReplayer for
 * shard b of the engine's spec(). Each bank owns one encode worker
 * thread fed by its own BoundedQueue, so connections writing to
 * disjoint banks never contend — the only shared state between a
 * producer and an encode is the bank's queue mutex stripe. The
 * worker takes whatever is queued, up to Replayer::batchLines
 * records, and replays it as one block (Replayer::pushBlock), which
 * equals replaying the records one by one. Because the sharding
 * function, the seeds and the per-bank arrival order match the
 * runner's shards, and the final result is the runner's mergeShards
 * fold, a captured stream replayed offline with --shards <banks>
 * reproduces the engine's merged statistics bit for bit (the
 * capture-replay equivalence the serve tests enforce).
 *
 * Telemetry is captured without stalling encode: after every block,
 * a bank's worker publishes its ReplayResult into a per-bank
 * seqlock slot (two relaxed counter bumps around a trivially-
 * copyable struct copy). Snapshot readers retry until they observe
 * a stable epoch; the encode path never waits on a reader.
 */

#ifndef WLCRC_SERVE_ENGINE_HH
#define WLCRC_SERVE_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runner/backend.hh"
#include "serve/queue.hh"
#include "trace/replay.hh"
#include "trace/transaction.hh"

namespace wlcrc::serve
{

/** Engine knobs (a subset of the server's configuration). */
struct EngineConfig
{
    std::string scheme = "WLCRC-16"; //!< factory codec name
    unsigned banks = 4;              //!< device shards / workers
    uint64_t seed = 1;               //!< master seed (one shard per bank)
    std::size_t queueCapacity = 1024; //!< per-bank ring capacity
    double s3 = 307.0;               //!< S3 SET energy override (pJ)
    double s4 = 547.0;               //!< S4 SET energy override (pJ)
    bool vnr = false;                //!< Verify-n-Restore per write
    uint64_t wearEndurance = 0;      //!< track wear when non-zero
};

/**
 * Per-connection admission ticket. Producers bump `accepted` as
 * they enqueue; the owning bank worker bumps `encoded` after the
 * write is applied. drainWait() blocks until the two meet — the
 * Bye/shutdown flush that guarantees a ByeAck (and a closed capture
 * file) covers every admitted write.
 */
struct ConnTicket
{
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> encoded{0};
};

/** One bank's telemetry row. */
struct BankSnapshot
{
    std::size_t queueDepth = 0;
    uint64_t stalls = 0;     //!< backpressure events (full pushes)
    /** Per-cell wear CoV (if tracked), as of the bank's last
     *  published block. */
    double wearCov = 0.0;
    /** As of the bank's last published block; replay.writes is the
     *  bank's encoded write count. */
    trace::ReplayResult replay;
};

/** Address-sharded, mutex-striped encode engine. */
class BankEngine
{
  public:
    /** Builds codec + per-bank replayers; @throws on bad scheme. */
    explicit BankEngine(const EngineConfig &cfg);

    /** Joins workers (stop() if still running). */
    ~BankEngine();

    BankEngine(const BankEngine &) = delete;
    BankEngine &operator=(const BankEngine &) = delete;

    /** Spawn the per-bank encode workers. */
    void start();

    /**
     * Close every bank queue, drain what is already admitted, and
     * join the workers. Idempotent.
     */
    void stop();

    /**
     * Admit one write: route to bank lineAddr % banks and enqueue,
     * blocking under backpressure. @p ticket (may be null) is
     * credited on admission and again after encode; it must outlive
     * the engine's drain of this item — connections guarantee that
     * by drainWait()ing before teardown, and the server keeps every
     * ticket alive until the engine has stopped.
     * @return false once the engine is stopping (write not admitted).
     */
    bool submit(const trace::WriteTransaction &txn,
                ConnTicket *ticket);

    /** Block until every write admitted on @p ticket is encoded. */
    void drainWait(const ConnTicket &ticket) const;

    /** Writes admitted across all banks. */
    uint64_t totalAccepted() const
    {
        return accepted_.load(std::memory_order_relaxed);
    }

    /** Writes encoded across all banks. */
    uint64_t totalEncoded() const
    {
        return encoded_.load(std::memory_order_relaxed);
    }

    /**
     * Non-blocking per-bank telemetry snapshot (seqlock read; never
     * stalls a worker). Stable only in the sense of each bank's own
     * epoch — banks are sampled independently.
     */
    std::vector<BankSnapshot> snapshot() const;

    /**
     * The published per-bank snapshots merged in bank order — the
     * merge order of the runner's shards. Live, it is as of each
     * bank's last block; after stop() it is exact.
     */
    trace::ReplayResult mergedResult() const;

    /**
     * The exact result, folded by runner::mergeShards over the
     * banks: spec() with lines = writes encoded, the merged replay
     * and, when wear is tracked, the merged wear summary and
     * projected lifetime. Call after stop(); it leaves the banks'
     * trackers in place, so repeated calls agree.
     */
    runner::ExperimentResult finalResult() const;

    /**
     * The runner spec the banks replay as: the scheme, seed, device
     * knobs and banks as shards, workload "live". Its `lines` is not
     * meaningful (finalResult() sets it).
     */
    const runner::ExperimentSpec &spec() const { return spec_; }

    unsigned banks() const { return static_cast<unsigned>(banks_.size()); }
    const EngineConfig &config() const { return cfg_; }

  private:
    struct Item
    {
        trace::WriteTransaction txn;
        ConnTicket *ticket = nullptr;
    };

    /** One bank: queue + worker + replayer + seqlock slot. */
    struct Bank
    {
        explicit Bank(std::size_t queueCapacity)
            : queue(queueCapacity)
        {}

        BoundedQueue<Item> queue;
        std::unique_ptr<trace::Replayer> replayer;
        std::thread worker;

        // Seqlock: worker bumps seq to odd, copies the replayer's
        // result into snap, bumps to even. Readers retry on
        // odd/changed epochs.
        std::atomic<uint64_t> seq{0};
        trace::ReplayResult snap;
        std::atomic<double> wearCov{0.0};
    };

    void workerLoop(Bank &bank, runner::ShardOutcome &outcome);
    void publish(Bank &bank, const runner::ShardOutcome &outcome) const;
    trace::ReplayResult readSnap(const Bank &bank) const;

    EngineConfig cfg_;
    runner::ExperimentSpec spec_;
    runner::ShardKit kit_;
    /** Bank b's runner shard outcome: its wear tracker while it
     *  runs, its exact replay once its worker has exited. */
    std::vector<runner::ShardOutcome> outcomes_;
    std::vector<std::unique_ptr<Bank>> banks_;
    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> encoded_{0};
    std::atomic<bool> stopping_{false};
    bool started_ = false;
    bool stopped_ = false;
};

} // namespace wlcrc::serve

#endif // WLCRC_SERVE_ENGINE_HH
