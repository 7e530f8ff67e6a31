#include "source.hh"

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/crc32.hh"
#include "common/env.hh"
#include "tracefile/format.hh"

namespace wlcrc::tracefile
{

namespace
{

/** Cursor over a shared in-memory vector. */
class VectorCursor : public TraceCursor
{
  public:
    VectorCursor(
        std::shared_ptr<const std::vector<trace::WriteTransaction>>
            txns,
        ShardFilter filter)
        : txns_(std::move(txns)), filter_(filter)
    {}

    std::optional<trace::WriteTransaction>
    next() override
    {
        while (pos_ < txns_->size()) {
            const auto &t = (*txns_)[pos_++];
            if (filter_.accepts(t.lineAddr))
                return t;
        }
        return std::nullopt;
    }

    std::size_t bufferBytes() const override { return 0; }

  private:
    std::shared_ptr<const std::vector<trace::WriteTransaction>>
        txns_;
    ShardFilter filter_;
    std::size_t pos_ = 0;
};

/** Record-at-a-time scan of a WLCTRC01 file. */
class V1Cursor : public TraceCursor
{
  public:
    V1Cursor(const std::string &path, ShardFilter filter)
        : reader_(path), filter_(filter)
    {}

    std::optional<trace::WriteTransaction>
    next() override
    {
        while (auto t = reader_.read()) {
            if (filter_.accepts(t->lineAddr))
                return t;
        }
        return std::nullopt;
    }

    std::size_t bufferBytes() const override { return recordBytes; }

  private:
    trace::TraceReader reader_;
    ShardFilter filter_;
};

/** Draws a synthesized stream from its own generator. */
template <typename Generator>
class SynthCursor : public TraceCursor
{
  public:
    SynthCursor(Generator gen, uint64_t lines, ShardFilter filter)
        : gen_(std::move(gen)), left_(lines), filter_(filter)
    {}

    std::optional<trace::WriteTransaction>
    next() override
    {
        while (left_ > 0) {
            --left_;
            const trace::WriteTransaction &t = gen_.next();
            if (filter_.accepts(t.lineAddr))
                return t;
        }
        return std::nullopt;
    }

    std::size_t bufferBytes() const override { return recordBytes; }

  private:
    Generator gen_;
    uint64_t left_;
    ShardFilter filter_;
};

/** Synchronous block-wise walk of a mapping with index pruning. */
class MappedCursor : public TraceCursor
{
  public:
    MappedCursor(std::shared_ptr<const MappedTrace> mt,
                 ShardFilter filter)
        : trace_(std::move(mt)), filter_(filter)
    {}

    std::optional<trace::WriteTransaction>
    next() override
    {
        while (true) {
            if (inBlock_ && rec_ < view_.count) {
                const uint8_t *p =
                    view_.data + std::size_t{rec_++} * recordBytes;
                if (filter_.accepts(getLe64(p)))
                    return decodeRecord(p);
                continue;
            }
            if (inBlock_) {
                ++block_; // finished the current block
                inBlock_ = false;
            }
            // Advance to the next block the filter can intersect.
            while (block_ < trace_->blockCount()) {
                const auto &info = trace_->blockInfo(block_);
                if (filter_.all() ||
                    blockIntersects(filter_, info.minAddr,
                                    info.maxAddr))
                    break;
                ++block_; // pruned: address range misses the shard
            }
            if (block_ >= trace_->blockCount())
                return std::nullopt;
            // Checksum (and decompress) on first entry.
            view_ = trace_->readBlock(block_, scratch_);
            ++visited_;
            inBlock_ = true;
            rec_ = 0;
        }
    }

    std::size_t
    bufferBytes() const override
    {
        return std::size_t{trace_->recordsPerBlock()} * recordBytes;
    }

    uint64_t blocksVisited() const override { return visited_; }

  private:
    std::shared_ptr<const MappedTrace> trace_;
    ShardFilter filter_;
    std::vector<uint8_t> scratch_;
    BlockView view_;
    uint64_t block_ = 0;
    uint32_t rec_ = 0;
    bool inBlock_ = false;
    uint64_t visited_ = 0;
};

/**
 * Decode-ahead block walk: a producer thread prunes, checksums and
 * decompresses blocks into a bounded ring of preallocated slots
 * while the consumer drains records — block decode overlaps the
 * caller's encode work. Slot buffers are sized by the first
 * compressed block and reused forever after (zero steady-state
 * allocations). Errors travel through the ring as exception_ptrs
 * and rethrow exactly where the synchronous cursor would have
 * thrown, so the record/error stream is bit-identical to
 * MappedCursor's.
 */
class PrefetchCursor : public TraceCursor
{
  public:
    PrefetchCursor(std::shared_ptr<const MappedTrace> mt,
                   ShardFilter filter, unsigned depth)
        : trace_(std::move(mt)), filter_(filter),
          slots_(depth > 0 ? depth : 1)
    {
        producer_ = std::thread([this] { produce(); });
    }

    ~PrefetchCursor() override
    {
        {
            std::lock_guard lk(m_);
            stop_ = true;
        }
        cvFree_.notify_all();
        producer_.join();
    }

    std::optional<trace::WriteTransaction>
    next() override
    {
        while (true) {
            if (cur_) {
                while (rec_ < cur_->view.count) {
                    const uint8_t *p =
                        cur_->view.data +
                        std::size_t{rec_++} * recordBytes;
                    if (filter_.accepts(getLe64(p)))
                        return decodeRecord(p);
                }
                {
                    std::lock_guard lk(m_);
                    cur_->filled = false;
                    ++consSeq_;
                }
                cvFree_.notify_one();
                cur_ = nullptr;
            }
            std::unique_lock lk(m_);
            cvFilled_.wait(lk, [this] {
                return prodSeq_ > consSeq_ || producerDone_;
            });
            if (prodSeq_ == consSeq_ && producerDone_)
                return std::nullopt;
            Slot &s = slots_[consSeq_ % slots_.size()];
            if (s.err) {
                // Consume the slot so destruction can't deadlock,
                // then surface the error exactly like a synchronous
                // readBlock() at this block would have.
                const std::exception_ptr err = s.err;
                s.err = nullptr;
                s.filled = false;
                ++consSeq_;
                lk.unlock();
                cvFree_.notify_one();
                std::rethrow_exception(err);
            }
            cur_ = &s;
            rec_ = 0;
            ++visited_;
        }
    }

    std::size_t
    bufferBytes() const override
    {
        return slots_.size() *
               std::size_t{trace_->recordsPerBlock()} * recordBytes;
    }

    uint64_t blocksVisited() const override { return visited_; }

  private:
    struct Slot
    {
        std::vector<uint8_t> scratch;
        BlockView view;
        std::exception_ptr err;
        bool filled = false;
    };

    void
    produce()
    {
        for (uint64_t b = 0; b < trace_->blockCount(); ++b) {
            const auto &info = trace_->blockInfo(b);
            if (!filter_.all() &&
                !blockIntersects(filter_, info.minAddr,
                                 info.maxAddr))
                continue;
            Slot &s = slots_[prodSeq_ % slots_.size()];
            {
                std::unique_lock lk(m_);
                cvFree_.wait(lk,
                             [&] { return stop_ || !s.filled; });
                if (stop_)
                    return;
            }
            // The slot is exclusively ours until filled is set.
            bool bad = false;
            try {
                s.view = trace_->readBlock(b, s.scratch);
                s.err = nullptr;
            } catch (...) {
                s.err = std::current_exception();
                bad = true;
            }
            {
                std::lock_guard lk(m_);
                s.filled = true;
                ++prodSeq_;
                if (bad)
                    producerDone_ = true; // error ends the stream
            }
            cvFilled_.notify_one();
            if (bad)
                return;
        }
        {
            std::lock_guard lk(m_);
            producerDone_ = true;
        }
        cvFilled_.notify_one();
    }

    std::shared_ptr<const MappedTrace> trace_;
    ShardFilter filter_;
    std::vector<Slot> slots_;
    std::thread producer_;
    std::mutex m_;
    std::condition_variable cvFilled_, cvFree_;
    uint64_t prodSeq_ = 0;  //!< slots published (guarded by m_)
    uint64_t consSeq_ = 0;  //!< slots released (guarded by m_)
    bool producerDone_ = false;
    bool stop_ = false;
    Slot *cur_ = nullptr; //!< slot the consumer is draining
    uint32_t rec_ = 0;
    uint64_t visited_ = 0;
};

/**
 * Staging depth for a cursor over @p trace: WLCRC_DECODE_AHEAD when
 * set (0 = synchronous), else 2 for compressed containers and 0 for
 * raw ones (raw blocks are zero-copy views; staging would only add
 * thread handoffs).
 */
unsigned
decodeAheadDepth(const MappedTrace &trace)
{
    const uint64_t def = trace.anyCompressed() ? 2 : 0;
    const uint64_t depth = envU64("WLCRC_DECODE_AHEAD", def);
    return static_cast<unsigned>(std::min<uint64_t>(depth, 64));
}

} // namespace

// --------------------------------------------------- partitioning

const char *
partitionName(Partition p)
{
    return p == Partition::modulo ? "modulo" : "range";
}

Partition
parsePartitionName(const std::string &name)
{
    if (name == "modulo")
        return Partition::modulo;
    if (name == "range")
        return Partition::range;
    throw std::invalid_argument(
        "unknown partition mode: " + name +
        " (expected modulo or range)");
}

bool
blockIntersects(const ShardFilter &filter, uint64_t minAddr,
                uint64_t maxAddr)
{
    if (filter.all())
        return true;
    if (filter.mode == Partition::modulo)
        return rangeHasResidue(minAddr, maxAddr, filter.shards,
                               filter.shard);
    return maxAddr >= filter.lo && minAddr <= filter.hi;
}

ShardFilter
rangePartition(std::pair<uint64_t, uint64_t> bounds, unsigned shards,
               unsigned shard)
{
    ShardFilter f;
    f.shards = shards;
    f.shard = shard;
    f.mode = Partition::range;
    if (shards <= 1)
        return f;
    const uint64_t lo = bounds.first;
    const uint64_t hi = bounds.second;
    if (lo > hi)
        throw std::invalid_argument(
            "rangePartition: inverted address bounds");
    // 128-bit arithmetic: span can be 2^64 for the full space, and
    // the per-shard products overflow 64 bits long before that.
    const unsigned __int128 span =
        static_cast<unsigned __int128>(hi) - lo + 1;
    f.lo = lo + static_cast<uint64_t>(span * shard / shards);
    f.hi = shard + 1 == shards
               ? hi
               : lo + static_cast<uint64_t>(
                          span * (shard + 1) / shards) -
                     1;
    return f;
}

// ---------------------------------------------------- ScannedSource

std::pair<uint64_t, uint64_t>
ScannedSource::addrBounds() const
{
    std::lock_guard lock(scanMutex_);
    if (!bounds_) {
        auto cursor = open({});
        auto t = cursor->next();
        uint64_t lo = t ? t->lineAddr : 0;
        uint64_t hi = lo;
        for (; t; t = cursor->next()) {
            lo = std::min(lo, t->lineAddr);
            hi = std::max(hi, t->lineAddr);
        }
        bounds_ = {lo, hi};
    }
    return *bounds_;
}

uint64_t
ScannedSource::contentDigest() const
{
    std::lock_guard lock(scanMutex_);
    if (!digest_)
        digest_ = scanDigest();
    return *digest_;
}

uint64_t
ScannedSource::scanDigest() const
{
    uint32_t crc = 0;
    uint64_t n = 0;
    uint8_t buf[recordBytes];
    auto cursor = open({});
    while (auto t = cursor->next()) {
        encodeRecord(buf, *t);
        crc = crc32(buf, sizeof buf, crc);
        ++n;
    }
    return (uint64_t{crc} << 32) ^ n;
}

// ------------------------------------------------------ VectorSource

VectorSource::VectorSource(
    std::shared_ptr<const std::vector<trace::WriteTransaction>> txns)
    : txns_(std::move(txns))
{
    if (!txns_)
        throw std::invalid_argument(
            "VectorSource: null transaction vector");
}

std::unique_ptr<TraceCursor>
VectorSource::open(const ShardFilter &filter) const
{
    return std::make_unique<VectorCursor>(txns_, filter);
}

std::string
VectorSource::describe() const
{
    std::ostringstream os;
    os << "memory (" << txns_->size() << " records)";
    return os.str();
}

// ----------------------------------------------------- SynthSource

SynthSource::SynthSource(bool random, std::string workload,
                         uint64_t seed, uint64_t lines)
    : random_(random), workload_(std::move(workload)), seed_(seed),
      lines_(lines)
{
    if (!random_)
        trace::WorkloadProfile::byName(workload_); // validate now
}

SynthSource::SynthSource(
    std::vector<trace::MixedSynthesizer::Program> programs,
    uint64_t seed, uint64_t lines)
    : programs_(std::move(programs)), seed_(seed), lines_(lines)
{
    (void)trace::MixedSynthesizer(programs_, seed_); // validate now
}

std::unique_ptr<TraceCursor>
SynthSource::open(const ShardFilter &filter) const
{
    if (!programs_.empty())
        return std::make_unique<SynthCursor<trace::MixedSynthesizer>>(
            trace::MixedSynthesizer(programs_, seed_), lines_, filter);
    if (random_)
        return std::make_unique<SynthCursor<trace::RandomWorkload>>(
            trace::RandomWorkload(seed_), lines_, filter);
    return std::make_unique<SynthCursor<trace::TraceSynthesizer>>(
        trace::TraceSynthesizer(
            trace::WorkloadProfile::byName(workload_), seed_),
        lines_, filter);
}

std::string
SynthSource::describe() const
{
    std::ostringstream os;
    os << "synthesized "
       << (!programs_.empty() ? "blend" : random_ ? "random" : workload_)
       << " seed " << seed_ << " (" << lines_ << " records)";
    return os.str();
}

// ------------------------------------------------------ V1FileSource

V1FileSource::V1FileSource(std::string path) : path_(std::move(path))
{
    // Constructing a reader validates existence and magic up front;
    // the byte count then pins the record count without a scan. A
    // trailing partial record surfaces when a cursor reaches it.
    trace::TraceReader probe(path_);
    const auto bytes = std::filesystem::file_size(path_);
    records_ = (bytes - sizeof(magicV1)) / recordBytes;
}

std::unique_ptr<TraceCursor>
V1FileSource::open(const ShardFilter &filter) const
{
    return std::make_unique<V1Cursor>(path_, filter);
}

std::string
V1FileSource::describe() const
{
    std::ostringstream os;
    os << "wlctrc01:" << path_ << " (" << records_
       << " records, streamed)";
    return os.str();
}

uint64_t
V1FileSource::scanDigest() const
{
    // One streaming read of the whole file, header included.
    std::ifstream in(path_, std::ios::binary);
    if (!in)
        throw std::runtime_error("V1FileSource: cannot reopen " +
                                 path_);
    uint32_t crc = 0;
    uint64_t bytes = 0;
    char buf[1 << 16];
    while (in.read(buf, sizeof buf) || in.gcount() > 0) {
        crc = crc32(buf, static_cast<std::size_t>(in.gcount()), crc);
        bytes += static_cast<uint64_t>(in.gcount());
        if (in.eof())
            break;
    }
    return (uint64_t{crc} << 32) ^ bytes;
}

// ------------------------------------------------- MappedTraceSource

MappedTraceSource::MappedTraceSource(const std::string &path)
    : trace_(std::make_shared<const MappedTrace>(path))
{}

MappedTraceSource::MappedTraceSource(
    std::shared_ptr<const MappedTrace> mt)
    : trace_(std::move(mt))
{
    if (!trace_)
        throw std::invalid_argument(
            "MappedTraceSource: null mapping");
}

std::unique_ptr<TraceCursor>
MappedTraceSource::open(const ShardFilter &filter) const
{
    const unsigned depth = decodeAheadDepth(*trace_);
    if (depth == 0 || trace_->records() == 0)
        return std::make_unique<MappedCursor>(trace_, filter);
    return std::make_unique<PrefetchCursor>(trace_, filter, depth);
}

std::pair<uint64_t, uint64_t>
MappedTraceSource::addrBounds() const
{
    return {trace_->minAddr(), trace_->maxAddr()};
}

uint64_t
MappedTraceSource::contentDigest() const
{
    // The codec-invariant content CRC covers every block's raw CRC,
    // which cover every record byte — one word pins the whole
    // container (and matches the v2 digest of the same records).
    return (uint64_t{trace_->contentCrc()} << 32) ^
           trace_->records();
}

std::string
MappedTraceSource::describe() const
{
    std::ostringstream os;
    os << "wlctrc0" << (trace_->format() == TraceFormat::v3 ? 3 : 2)
       << ":" << trace_->path() << " (" << trace_->records()
       << " records, " << trace_->blockCount() << " blocks of "
       << trace_->recordsPerBlock() << ", mmap)";
    return os.str();
}

// -------------------------------------------------------------- free

std::shared_ptr<TransactionSource>
openTraceSource(const std::string &path)
{
    switch (detectFormat(path)) {
    case TraceFormat::v1:
        return std::make_shared<V1FileSource>(path);
    case TraceFormat::v2:
    case TraceFormat::v3:
        return std::make_shared<MappedTraceSource>(path);
    }
    throw std::logic_error("openTraceSource: unreachable");
}

std::vector<trace::WriteTransaction>
gather(const TransactionSource &source)
{
    std::vector<trace::WriteTransaction> txns;
    txns.reserve(source.records());
    auto cursor = source.open({});
    while (auto t = cursor->next())
        txns.push_back(*t);
    return txns;
}

} // namespace wlcrc::tracefile
