#include "lifetime.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/rng.hh"

namespace wlcrc::wearlevel
{

namespace
{

/** SplitMix64 finalizer: the stateless mixing primitive behind the
 *  budget hash (matches the generator family used elsewhere). */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
cellBudget(const EnduranceConfig &endurance, uint64_t seed,
           uint64_t physLine, unsigned cell)
{
    if (!endurance.active())
        return std::numeric_limits<uint64_t>::max();
    if (endurance.cov <= 0.0)
        return std::max<uint64_t>(1, endurance.meanWrites);
    // Sum of 12 hash-derived uniforms minus 6: an Irwin-Hall
    // approximation of N(0, 1) with no generator state to carry.
    uint64_t h = mix64(seed ^ mix64(physLine ^ mix64(cell)));
    double sum = 0.0;
    for (int k = 0; k < 12; ++k) {
        h = mix64(h);
        sum += static_cast<double>(h >> 11) * 0x1.0p-53;
    }
    const double z = std::clamp(sum - 6.0, -3.0, 3.0);
    const double budget = std::max(
        1.0, static_cast<double>(endurance.meanWrites) *
                 (1.0 + endurance.cov * z));
    return static_cast<uint64_t>(std::llround(budget));
}

LifetimeEngine::LifetimeEngine(const coset::LineCodec &codec,
                               const pcm::WriteUnit &unit,
                               Options opts)
    : codec_(codec), opts_(std::move(opts)),
      replayer_(codec, unit, opts_.seed, opts_.vnr),
      wear_(codec.cellCount()),
      leveler_(makeLeveler(opts_.leveler))
{
    replayer_.device().attachWearTracker(&wear_);
}

LifetimeEngine::~LifetimeEngine()
{
    replayer_.device().attachWearTracker(nullptr);
}

const trace::ReplayResult &
LifetimeEngine::replayResult() const
{
    return replayer_.result();
}

bool
LifetimeEngine::checkLine(uint64_t physLine, LifetimeResult &res)
{
    const std::vector<uint32_t> *wear = wear_.lineWear(physLine);
    if (!wear)
        return false;
    auto budgetIt = budgets_.find(physLine);
    if (budgetIt == budgets_.end()) {
        std::vector<uint64_t> budgets(wear->size());
        for (unsigned c = 0; c < budgets.size(); ++c)
            budgets[c] =
                cellBudget(opts_.endurance, opts_.seed, physLine, c);
        budgetIt =
            budgets_.emplace(physLine, std::move(budgets)).first;
    }
    const auto &budgets = budgetIt->second;
    unsigned dead = 0;
    unsigned firstDead = 0;
    for (unsigned c = 0; c < wear->size(); ++c) {
        if ((*wear)[c] >= budgets[c]) {
            if (!dead)
                firstDead = c;
            ++dead;
        }
    }
    auto &known = deadPerLine_[physLine];
    res.deadCells += dead - known;
    known = dead;
    if (dead > opts_.endurance.eccDeadCells) {
        res.died = true;
        res.failedLine = physLine;
        res.failedCell = firstDead;
        res.writesToFailure = res.demandWrites;
        return true;
    }
    return false;
}

void
LifetimeEngine::applyMoves(const std::vector<LineMove> &moves,
                           LifetimeResult &res)
{
    for (const LineMove &move : moves) {
        // A logical line that was never written has no contents to
        // relocate; the move costs nothing.
        const auto it = lastData_.find(move.logical);
        if (it == lastData_.end())
            continue;
        auto &stored = replayer_.device().line(move.toPhys);
        codec_.encodeInto(it->second,
                          {stored.data(), stored.size()}, scratch_,
                          staging_);
        replayer_.device().writeLine(move.toPhys, stored, staging_,
                                     opts_.vnr);
        ++res.extraWrites;
        if (opts_.endurance.active() && checkLine(move.toPhys, res))
            return;
    }
}

void
LifetimeEngine::sampleCov(LifetimeResult &res)
{
    res.wearCovTimeline.push_back(wear_.summary().covCellWrites);
    if (res.wearCovTimeline.size() < 128)
        return;
    // Bound the series: keep every second sample (the ones landing
    // on multiples of the doubled interval) and halve its length.
    std::vector<double> kept;
    kept.reserve(64);
    for (std::size_t i = 1; i < res.wearCovTimeline.size(); i += 2)
        kept.push_back(res.wearCovTimeline[i]);
    res.wearCovTimeline = std::move(kept);
    res.covSampleEvery *= 2;
}

LifetimeResult
LifetimeEngine::run(const tracefile::TransactionSource &source,
                    bool loopUntilDeath)
{
    if (ran_)
        throw std::logic_error(
            "LifetimeEngine::run may be called once per engine");
    ran_ = true;

    LifetimeResult res;
    res.covSampleEvery = 64;
    const uint64_t cap = opts_.endurance.maxWrites
                             ? opts_.endurance.maxWrites
                             : defaultWriteCap;
    std::vector<LineMove> moves;
    for (bool more = true; more && !res.died;) {
        auto cursor = source.open();
        uint64_t pass = 0;
        while (!res.died && res.demandWrites < cap) {
            const auto t = cursor->next();
            if (!t)
                break;
            ++pass;
            const uint64_t phys = leveler_->map(t->lineAddr);
            trace::WriteTransaction mapped = *t;
            mapped.lineAddr = phys;
            replayer_.step(mapped);
            lastData_.insert_or_assign(t->lineAddr, t->newData);
            ++res.demandWrites;
            if (opts_.endurance.active() && checkLine(phys, res))
                break;
            moves.clear();
            leveler_->onWrite(t->lineAddr, moves);
            applyMoves(moves, res);
            if (!res.died && res.demandWrites % res.covSampleEvery == 0)
                sampleCov(res);
        }
        // An empty pass would loop forever without writing.
        more = loopUntilDeath && pass > 0 && res.demandWrites < cap;
    }

    // A device that outlives the write cap survived at least this
    // many demand writes; reporting that count keeps the column
    // monotone instead of collapsing survivors to zero.
    if (!res.died)
        res.writesToFailure = res.demandWrites;

    const LevelerStats lstats = leveler_->stats();
    res.remapEvents = lstats.remapEvents;
    res.tableBytes = lstats.tableBytes;
    const pcm::WearSummary wsum = wear_.summary();
    res.finalWearCov = wsum.covCellWrites;
    res.maxCellWear = wsum.maxCellWrites;
    return res;
}

std::vector<trace::WriteTransaction>
hotspotTrace(uint64_t lines, uint64_t writes, uint64_t seed,
             double hotFraction)
{
    if (lines == 0)
        throw std::invalid_argument(
            "hotspotTrace: need at least one line");
    Rng rng(seed);
    const uint64_t hotLines = std::max<uint64_t>(1, lines / 8);
    std::vector<Line512> last(lines);
    std::vector<trace::WriteTransaction> txns;
    txns.reserve(writes);
    for (uint64_t i = 0; i < writes; ++i) {
        uint64_t addr;
        if (hotLines < lines && !rng.chance(hotFraction))
            addr = hotLines + rng.nextBelow(lines - hotLines);
        else
            addr = rng.nextBelow(hotLines);
        // Mutate two random words so differential writes keep a
        // realistic partial-update profile.
        Line512 data = last[addr];
        for (int k = 0; k < 2; ++k)
            data.setWord(static_cast<unsigned>(rng.nextBelow(8)),
                         rng.next());
        trace::WriteTransaction t;
        t.lineAddr = addr;
        t.oldData = last[addr];
        t.newData = data;
        txns.push_back(t);
        last[addr] = data;
    }
    return txns;
}

} // namespace wlcrc::wearlevel
