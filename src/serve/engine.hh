/**
 * @file
 * BankEngine: the encode core of the live write-stream service.
 *
 * Device state is sharded by bank exactly the way the offline
 * runner shards a replay: bank = lineAddr % banks, and bank b's
 * Replayer is seeded with shardSeed(seed, b, banks). Each bank owns
 * one encode worker thread fed by its own BoundedQueue, so
 * connections writing to disjoint banks never contend — the only
 * shared state between a producer and an encode is the bank's queue
 * mutex stripe. Because the sharding function, the seeds and the
 * per-bank arrival order match the runner's shard cursors, a
 * captured stream replayed offline with --shards <banks> reproduces
 * the engine's merged statistics bit for bit (the capture-replay
 * equivalence the serve tests enforce).
 *
 * Telemetry is captured without stalling encode: after every write,
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
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "coset/codec.hh"
#include "pcm/wear.hh"
#include "pcm/write_unit.hh"
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
    uint64_t seed = 1;               //!< master seed (shardSeed per bank)
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
    uint64_t writes = 0;     //!< writes encoded so far
    std::size_t queueDepth = 0;
    uint64_t stalls = 0;     //!< backpressure events (full pushes)
    /** Per-cell wear CoV (if tracked), as of the bank's last
     *  published write. */
    double wearCov = 0.0;
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
     * Merged ReplayResult over all banks, folded in bank order —
     * the same merge order the offline runner uses for shards, so
     * the result is comparable field-for-field with a sharded
     * offline replay of the captured stream. Only exact after
     * stop(); beforehand it merges the live snapshots.
     */
    trace::ReplayResult mergedResult() const;

    /**
     * Merged per-cell wear tracker (bank order), or nullopt when
     * wear tracking is off. Call after stop().
     */
    std::optional<pcm::WearTracker> mergedWear() const;

    unsigned banks() const { return static_cast<unsigned>(banks_.size()); }
    const EngineConfig &config() const { return cfg_; }

  private:
    struct Item
    {
        trace::WriteTransaction txn;
        ConnTicket *ticket = nullptr;
    };

    /** One bank: queue + worker + replay state + seqlock slot. */
    struct Bank
    {
        explicit Bank(std::size_t queueCapacity)
            : queue(queueCapacity)
        {}

        BoundedQueue<Item> queue;
        std::unique_ptr<trace::Replayer> replayer;
        std::optional<pcm::WearTracker> wear;
        std::thread worker;

        // Seqlock: worker bumps seq to odd, copies result_ into
        // snap, bumps to even. Readers retry on odd/changed epochs.
        std::atomic<uint64_t> seq{0};
        trace::ReplayResult snap;
        std::atomic<uint64_t> writes{0};
        std::atomic<double> wearCov{0.0};
    };

    void workerLoop(Bank &bank);
    void publish(Bank &bank) const;
    trace::ReplayResult readSnap(const Bank &bank) const;

    EngineConfig cfg_;
    coset::CodecPtr codec_;
    pcm::WriteUnit unit_;
    std::vector<std::unique_ptr<Bank>> banks_;
    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> encoded_{0};
    std::atomic<bool> stopping_{false};
    bool started_ = false;
    bool stopped_ = false;
};

} // namespace wlcrc::serve

#endif // WLCRC_SERVE_ENGINE_HH
