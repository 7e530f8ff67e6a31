#include "engine.hh"

#include <chrono>
#include <cstring>
#include <type_traits>

#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"
#include "runner/runner.hh"
#include "wlcrc/factory.hh"

namespace wlcrc::serve
{

// The seqlock slot is copied with memcpy between epoch bumps; that
// is only sound for a trivially copyable result struct.
static_assert(
    std::is_trivially_copyable_v<trace::ReplayResult>,
    "ReplayResult must stay trivially copyable for the seqlock");

BankEngine::BankEngine(const EngineConfig &cfg)
    : cfg_(cfg),
      codec_(core::makeCodec(
          cfg.scheme, pcm::EnergyModel::withHighStateEnergies(
                          cfg.s3, cfg.s4))),
      unit_(pcm::EnergyModel::withHighStateEnergies(cfg.s3, cfg.s4),
            pcm::DisturbanceModel())
{
    const unsigned banks = cfg_.banks ? cfg_.banks : 1;
    cfg_.banks = banks;
    banks_.reserve(banks);
    for (unsigned b = 0; b < banks; ++b) {
        auto bank = std::make_unique<Bank>(cfg_.queueCapacity);
        // Seed bank b the way the offline runner seeds shard b of a
        // banks-way sharded replay — the root of the capture-replay
        // equivalence guarantee.
        bank->replayer = std::make_unique<trace::Replayer>(
            *codec_, unit_,
            runner::shardSeed(cfg_.seed, b, banks), cfg_.vnr);
        if (cfg_.wearEndurance) {
            bank->wear.emplace(codec_->cellCount());
            bank->replayer->device().attachWearTracker(&*bank->wear);
        }
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
    for (auto &bank : banks_) {
        Bank *b = bank.get();
        bank->worker = std::thread([this, b] { workerLoop(*b); });
    }
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
BankEngine::publish(Bank &bank) const
{
    const uint64_t s = bank.seq.load(std::memory_order_relaxed);
    bank.seq.store(s + 1, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_release);
    std::memcpy(&bank.snap, &bank.replayer->result(),
                sizeof bank.snap);
    std::atomic_thread_fence(std::memory_order_release);
    bank.seq.store(s + 2, std::memory_order_release);
    // summary() is O(1), so the CoV is current at every publish.
    if (bank.wear)
        bank.wearCov.store(bank.wear->summary().covCellWrites,
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
BankEngine::workerLoop(Bank &bank)
{
    Item item;
    while (bank.queue.pop(item)) {
        bank.replayer->step(item.txn);
        bank.writes.fetch_add(1, std::memory_order_relaxed);
        encoded_.fetch_add(1, std::memory_order_relaxed);
        publish(bank);
        if (item.ticket)
            item.ticket->encoded.fetch_add(
                1, std::memory_order_release);
    }
    publish(bank);
}

std::vector<BankSnapshot>
BankEngine::snapshot() const
{
    std::vector<BankSnapshot> out;
    out.reserve(banks_.size());
    for (const auto &bank : banks_) {
        BankSnapshot s;
        s.writes = bank->writes.load(std::memory_order_relaxed);
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
    if (stopped_) {
        // Workers are joined: read the exact per-bank results in
        // bank order, matching the runner's shard merge.
        for (const auto &bank : banks_)
            merged.merge(bank->replayer->result());
    } else {
        for (const auto &bank : banks_)
            merged.merge(readSnap(*bank));
    }
    return merged;
}

std::optional<pcm::WearTracker>
BankEngine::mergedWear() const
{
    if (!cfg_.wearEndurance)
        return std::nullopt;
    std::optional<pcm::WearTracker> merged;
    for (const auto &bank : banks_) {
        if (!bank->wear)
            continue;
        if (!merged)
            merged = *bank->wear;
        else
            merged->merge(*bank->wear);
    }
    return merged;
}

} // namespace wlcrc::serve
