#include "engine.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <type_traits>

#include "runner/runner.hh"

namespace wlcrc::serve
{

namespace
{

/** The runner spec the banks of an engine configured @p cfg form. */
runner::ExperimentSpec
liveSpec(const EngineConfig &cfg)
{
    runner::ExperimentSpec spec;
    spec.scheme = cfg.scheme;
    spec.workload = "live";
    spec.seed = cfg.seed;
    spec.shards = std::max(cfg.banks, 1u);
    spec.device = {cfg.s3, cfg.s4, cfg.vnr, cfg.wearEndurance};
    return spec;
}

} // namespace

// The seqlock slot is copied with memcpy between epoch bumps; that
// is only sound for a trivially copyable result struct.
static_assert(
    std::is_trivially_copyable_v<trace::ReplayResult>,
    "ReplayResult must stay trivially copyable for the seqlock");

BankEngine::BankEngine(const EngineConfig &cfg)
    : cfg_(cfg), spec_(liveSpec(cfg)), kit_(spec_),
      // Sized once: each device points at its shard's wear tracker.
      outcomes_(spec_.shards)
{
    cfg_.banks = spec_.shards;
    banks_.reserve(cfg_.banks);
    for (unsigned b = 0; b < cfg_.banks; ++b) {
        auto bank = std::make_unique<Bank>(cfg_.queueCapacity);
        bank->replayer = runner::shardReplayer(spec_, kit_, b, outcomes_[b]);
        banks_.push_back(std::move(bank));
    }
}

BankEngine::~BankEngine()
{
    stop();
}

void
BankEngine::start()
{
    if (started_)
        return;
    started_ = true;
    for (std::size_t b = 0; b < banks_.size(); ++b)
        banks_[b]->worker = std::thread(
            [this, b] { workerLoop(*banks_[b], outcomes_[b]); });
}

void
BankEngine::stop()
{
    if (stopped_)
        return;
    stopped_ = true;
    stopping_.store(true, std::memory_order_release);
    for (auto &bank : banks_)
        bank->queue.close();
    for (auto &bank : banks_)
        if (bank->worker.joinable())
            bank->worker.join();
}

bool
BankEngine::submit(const trace::WriteTransaction &txn,
                   ConnTicket *ticket)
{
    if (stopping_.load(std::memory_order_acquire))
        return false;
    Item item;
    item.txn = txn;
    item.ticket = ticket;
    Bank &bank =
        *banks_[runner::shardOf(txn.lineAddr, cfg_.banks)];
    if (!bank.queue.push(item))
        return false;
    if (ticket)
        ticket->accepted.fetch_add(1, std::memory_order_relaxed);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
BankEngine::drainWait(const ConnTicket &ticket) const
{
    // Polling keeps the encode path free of wakeup bookkeeping; a
    // drain happens once per connection close, never per write.
    while (ticket.encoded.load(std::memory_order_acquire) <
           ticket.accepted.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::microseconds(50));
}

void
BankEngine::publish(Bank &bank,
                    const runner::ShardOutcome &outcome) const
{
    const uint64_t s = bank.seq.load(std::memory_order_relaxed);
    bank.seq.store(s + 1, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_release);
    std::memcpy(&bank.snap, &bank.replayer->result(),
                sizeof bank.snap);
    std::atomic_thread_fence(std::memory_order_release);
    bank.seq.store(s + 2, std::memory_order_release);
    // summary() is O(1), so the CoV is current at every publish.
    if (outcome.wear)
        bank.wearCov.store(outcome.wear->summary().covCellWrites,
                           std::memory_order_relaxed);
}

trace::ReplayResult
BankEngine::readSnap(const Bank &bank) const
{
    trace::ReplayResult out;
    for (;;) {
        const uint64_t s1 = bank.seq.load(std::memory_order_acquire);
        if (s1 & 1)
            continue;
        std::atomic_thread_fence(std::memory_order_acquire);
        std::memcpy(&out, &bank.snap, sizeof out);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (bank.seq.load(std::memory_order_acquire) == s1)
            return out;
    }
}

void
BankEngine::workerLoop(Bank &bank, runner::ShardOutcome &outcome)
{
    constexpr std::size_t block = trace::Replayer::batchLines;
    std::array<Item, block> items;
    std::array<trace::WriteTransaction, block> txns;
    while (const std::size_t n = bank.queue.popSome(items.data(), block)) {
        for (std::size_t i = 0; i < n; ++i)
            txns[i] = items[i].txn;
        bank.replayer->pushBlock(txns.data(), n);
        encoded_.fetch_add(n, std::memory_order_relaxed);
        publish(bank, outcome);
        for (std::size_t i = 0; i < n; ++i)
            if (items[i].ticket)
                items[i].ticket->encoded.fetch_add(
                    1, std::memory_order_release);
    }
    outcome.replay = bank.replayer->result();
}

std::vector<BankSnapshot>
BankEngine::snapshot() const
{
    std::vector<BankSnapshot> out;
    out.reserve(banks_.size());
    for (const auto &bank : banks_) {
        BankSnapshot s;
        s.queueDepth = bank->queue.depth();
        s.stalls = bank->queue.stallCount();
        s.wearCov = bank->wearCov.load(std::memory_order_relaxed);
        s.replay = readSnap(*bank);
        out.push_back(s);
    }
    return out;
}

trace::ReplayResult
BankEngine::mergedResult() const
{
    trace::ReplayResult merged;
    for (const auto &bank : banks_)
        merged.merge(readSnap(*bank));
    return merged;
}

runner::ExperimentResult
BankEngine::finalResult() const
{
    runner::ExperimentSpec spec = spec_;
    spec.lines = totalEncoded();
    return runner::mergeShards(spec, outcomes_);
}

} // namespace wlcrc::serve
