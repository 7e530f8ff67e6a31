/**
 * @file
 * TransactionSource: the abstraction the sharded replay consumes
 * instead of a shared std::vector<WriteTransaction>.
 *
 * A source is an immutable, shareable description of a transaction
 * stream; open() hands out an independent forward cursor, optionally
 * restricted to one shard's address partition. Cursors of the same
 * source never share mutable state, so every shard of every grid
 * point can stream concurrently.
 *
 * Partitions come in two flavours (ShardFilter::mode):
 *  - modulo: addr % shards == shard — the default; spreads any
 *    address pattern evenly but intersects almost every block of an
 *    unsorted container;
 *  - range:  lo <= addr <= hi — equal slices of the source's
 *    address span (rangePartition()); on a locality-sorted
 *    container (wlcrc_trace sort) each shard touches only its own
 *    contiguous run of blocks, so pruning skips nearly everything
 *    else.
 *
 * Implementations:
 *  - VectorSource      wraps an in-memory stream (tests, custom
 *                      replay hooks, grid convenience API);
 *  - SynthSource       re-derives a synthesized stream (random,
 *                      one workload profile or a blend) from its
 *                      seed on every open() — nothing is stored;
 *  - V1FileSource      streams a WLCTRC01 dump record by record —
 *                      one record buffered, nothing slurped;
 *  - MappedTraceSource walks a WLCTRC02/03 container block-wise over
 *                      a shared MappedTrace: a sharded cursor skips
 *                      whole blocks whose [min, max] address range
 *                      cannot intersect its partition, and each
 *                      visited block is CRC-checked (and, for v3,
 *                      decompressed and re-checked) on entry.
 *
 * The first three store no index: ScannedSource derives their
 * address bounds and content digest from one scan over open({}).
 *
 * Decode-ahead: cursors over a compressed container stage block
 * verify+decompress on a background producer thread through a
 * bounded ring of preallocated buffers (zero steady-state
 * allocations), so decode overlaps the consumer's encode work.
 * Depth comes from WLCRC_DECODE_AHEAD (0 forces synchronous decode;
 * unset defaults to 2 for compressed containers, 0 otherwise — raw
 * blocks are served zero-copy and gain nothing from staging). The
 * record stream, errors included, is bit-identical either way;
 * decode-ahead is a result-invariant execution knob like WLCRC_SIMD
 * and is excluded from spec hashes.
 *
 * openTraceSource() sniffs the on-disk format and returns the right
 * implementation, so consumers (wlcrc_sim --trace-in, examples)
 * accept all generations transparently.
 */

#ifndef WLCRC_TRACEFILE_SOURCE_HH
#define WLCRC_TRACEFILE_SOURCE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tracefile/mapped_trace.hh"
#include "trace/trace_io.hh"
#include "trace/transaction.hh"
#include "trace/workload.hh"

namespace wlcrc::tracefile
{

/** How a sharded replay partitions the address space. */
enum class Partition
{
    modulo, //!< addr % shards == shard (default)
    range,  //!< equal slices of the source's [min, max] span
};

/** @return "modulo" or "range". */
const char *partitionName(Partition p);

/** Parse "modulo" / "range". @throws std::invalid_argument. */
Partition parsePartitionName(const std::string &name);

/** Address partition a cursor is restricted to. */
struct ShardFilter
{
    unsigned shards = 1; //!< shard count; <= 1 means unfiltered
    unsigned shard = 0;  //!< this cursor's shard
    Partition mode = Partition::modulo;
    uint64_t lo = 0;              //!< range mode: inclusive low bound
    uint64_t hi = ~uint64_t{0};   //!< range mode: inclusive high bound

    bool all() const { return shards <= 1; }

    bool
    accepts(uint64_t addr) const
    {
        if (all())
            return true;
        if (mode == Partition::modulo)
            return addr % shards == shard;
        return addr >= lo && addr <= hi;
    }
};

/**
 * @return true if a block whose addresses span [minAddr, maxAddr]
 * can contain a record @p filter accepts — the block-pruning
 * predicate (modulo residue coverage or interval intersection).
 */
bool blockIntersects(const ShardFilter &filter, uint64_t minAddr,
                     uint64_t maxAddr);

/**
 * Build shard @p shard's range filter by slicing @p bounds (the
 * source's inclusive [min, max] address span) into @p shards
 * near-equal contiguous pieces. Every address lands in exactly one
 * shard, for any bounds including the full 64-bit span.
 */
ShardFilter rangePartition(std::pair<uint64_t, uint64_t> bounds,
                           unsigned shards, unsigned shard);

/** Forward-only pull cursor over one shard's transactions. */
class TraceCursor
{
  public:
    virtual ~TraceCursor() = default;

    /** @return the next matching transaction, or nullopt at end. */
    virtual std::optional<trace::WriteTransaction> next() = 0;

    /**
     * Upper bound on the trace bytes this cursor ever buffers at
     * once — the streaming memory model: one record for a v1 file
     * scan, one block view for a container scan (times the staging
     * depth when decode-ahead is active), 0 for an already
     * materialised in-memory stream.
     */
    virtual std::size_t bufferBytes() const = 0;

    /**
     * Blocks this cursor has decoded so far. Non-blocked sources
     * report 0; for MappedTraceSource the gap between this and the
     * container's blockCount() is the index-pruning win.
     */
    virtual uint64_t blocksVisited() const { return 0; }
};

/** Shareable, immutable description of a transaction stream. */
class TransactionSource
{
  public:
    virtual ~TransactionSource() = default;

    /** Open an independent cursor over @p filter's partition. */
    virtual std::unique_ptr<TraceCursor>
    open(const ShardFilter &filter = {}) const = 0;

    /** Total records in the stream (all shards). */
    virtual uint64_t records() const = 0;

    /** Human-readable origin, e.g. "wlctrc02:foo.trc (12 blocks)". */
    virtual std::string describe() const = 0;

    /**
     * Inclusive [min, max] line-address bounds of the stream ({0, 0}
     * when empty) — the basis of range partitioning. Containers read
     * it off the footer index (free); a ScannedSource scans once and
     * caches.
     */
    virtual std::pair<uint64_t, uint64_t> addrBounds() const = 0;

    /**
     * 64-bit digest of the stream's record content, independent of
     * the label. Two sources with equal digests replay the same
     * records in the same container framing; the result cache folds
     * it into specHash() so editing a trace file in place
     * invalidates cached results (docs/caching.md). A WLCTRC02/03
     * source reads it straight off the footer (free) — for v3 the
     * digest covers the uncompressed content, so rewriting a file
     * with a different codec keeps it stable while any payload
     * change moves it; a ScannedSource checksums its stream on the
     * first call and caches.
     */
    virtual uint64_t contentDigest() const = 0;

    /**
     * On-disk path backing this source, or "" for in-memory
     * streams. A spec is process-serializable (remote workers) only
     * if its source has a path a worker process can re-open.
     */
    virtual std::string filePath() const { return {}; }

    /**
     * Short tag used as the report "source" column. Defaults to
     * "trace" for every implementation so replaying one stream via
     * vector, v1, v2 or v3 yields byte-identical reports; set it
     * when a source axis needs distinguishable rows.
     */
    const std::string &label() const { return label_; }
    void setLabel(std::string l) { label_ = std::move(l); }

  private:
    std::string label_ = "trace";
};

/**
 * A source with no stored index. addrBounds() and contentDigest()
 * each scan open({}) once, on the first call, and cache the result
 * (thread-safe). The digest is a CRC over the encoded records folded
 * with their count, so equal record streams give equal digests.
 */
class ScannedSource : public TransactionSource
{
  public:
    std::pair<uint64_t, uint64_t> addrBounds() const final;
    uint64_t contentDigest() const final;

  protected:
    /** The digest contentDigest() caches (record CRC by default). */
    virtual uint64_t scanDigest() const;

  private:
    mutable std::mutex scanMutex_;
    mutable std::optional<uint64_t> digest_;
    mutable std::optional<std::pair<uint64_t, uint64_t>> bounds_;
};

/** In-memory stream (shared, read-only). */
class VectorSource : public ScannedSource
{
  public:
    explicit VectorSource(
        std::shared_ptr<const std::vector<trace::WriteTransaction>>
            txns);

    std::unique_ptr<TraceCursor>
    open(const ShardFilter &filter) const override;
    uint64_t records() const override { return txns_->size(); }
    std::string describe() const override;

    /** The backing stream — lets consumers that genuinely need a
     *  vector (custom replay hooks) borrow it instead of copying. */
    const std::vector<trace::WriteTransaction> &
    transactions() const
    {
        return *txns_;
    }

  private:
    std::shared_ptr<const std::vector<trace::WriteTransaction>>
        txns_;
};

/**
 * The first @p lines records of a synthesized stream: the random
 * workload, one profile's TraceSynthesizer or a MixedSynthesizer
 * blend, seeded with @p seed. Every open() re-derives the stream
 * from the seed and yields the records its filter accepts, so any
 * number of passes replay the identical stream in one record of
 * memory.
 */
class SynthSource : public ScannedSource
{
  public:
    /**
     * The random workload when @p random, else @p workload's profile.
     * @throws std::invalid_argument if @p workload is unknown.
     */
    SynthSource(bool random, std::string workload, uint64_t seed,
                uint64_t lines);
    /**
     * A blend of @p programs.
     * @throws std::invalid_argument as MixedSynthesizer does.
     */
    SynthSource(std::vector<trace::MixedSynthesizer::Program> programs,
                uint64_t seed, uint64_t lines);

    std::unique_ptr<TraceCursor>
    open(const ShardFilter &filter) const override;
    uint64_t records() const override { return lines_; }
    std::string describe() const override;

  private:
    bool random_ = false;
    std::string workload_;
    std::vector<trace::MixedSynthesizer::Program> programs_;
    uint64_t seed_;
    uint64_t lines_;
};

/** Streaming WLCTRC01 file scan; each cursor re-opens the file. */
class V1FileSource : public ScannedSource
{
  public:
    /** @throws std::runtime_error on open failure or bad magic. */
    explicit V1FileSource(std::string path);

    std::unique_ptr<TraceCursor>
    open(const ShardFilter &filter) const override;
    uint64_t records() const override { return records_; }
    std::string describe() const override;
    std::string filePath() const override { return path_; }
    const std::string &path() const { return path_; }

  protected:
    /** A full-file CRC: a v1 dump stores no checksums. */
    uint64_t scanDigest() const override;

  private:
    std::string path_;
    uint64_t records_;
};

/** Block-pruned streaming over a shared WLCTRC02/03 mapping. */
class MappedTraceSource : public TransactionSource
{
  public:
    /** Map @p path (see MappedTrace for failure modes). */
    explicit MappedTraceSource(const std::string &path);
    /** Wrap an existing mapping. */
    explicit MappedTraceSource(std::shared_ptr<const MappedTrace> mt);

    std::unique_ptr<TraceCursor>
    open(const ShardFilter &filter) const override;
    uint64_t records() const override { return trace_->records(); }
    std::string describe() const override;
    std::pair<uint64_t, uint64_t> addrBounds() const override;
    uint64_t contentDigest() const override;
    std::string filePath() const override { return trace_->path(); }

    const MappedTrace &trace() const { return *trace_; }

  private:
    std::shared_ptr<const MappedTrace> trace_;
};

/**
 * Open @p path as a TransactionSource, auto-detecting WLCTRC01/02/03
 * by magic. @throws std::runtime_error for anything else.
 */
std::shared_ptr<TransactionSource>
openTraceSource(const std::string &path);

/**
 * Materialise a source's full (unfiltered) stream. Only for
 * consumers that genuinely need a vector — custom replay hooks,
 * format conversion tests; no stock or lifetime replay calls this.
 */
std::vector<trace::WriteTransaction>
gather(const TransactionSource &source);

} // namespace wlcrc::tracefile

#endif // WLCRC_TRACEFILE_SOURCE_HH
