/**
 * @file
 * TraceFileWriter: streaming writer of the WLCTRC03 container, the
 * only one any tool writes. WriterOptions::format = v2 remains for
 * the fixture files of the reader tests.
 *
 * Records are serialized into a single in-memory block buffer
 * (recordsPerBlock × 136 B); a full buffer is checksummed, appended
 * to the file and its index entry queued for the footer. close()
 * flushes the final partial block and writes the index + trailer.
 *
 * For WLCTRC03 each full buffer is additionally run through the
 * configured codec into a reused compression scratch and stored
 * compressed when that strictly shrinks it, raw otherwise — so a v3
 * file never carries an expanded block. Memory use is two blocks
 * (records + compression scratch) regardless of trace length, with
 * zero allocations after the first block.
 */

#ifndef WLCRC_TRACEFILE_WRITER_HH
#define WLCRC_TRACEFILE_WRITER_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/lz.hh"
#include "tracefile/format.hh"
#include "trace/transaction.hh"

namespace wlcrc::tracefile
{

/** Construction knobs of a TraceFileWriter. */
struct WriterOptions
{
    /**
     * Block capacity; smaller blocks mean a tighter streaming-memory
     * bound and finer-grained shard pruning, at the cost of a larger
     * footer index (and, for v3, a shallower compression window).
     */
    uint32_t recordsPerBlock = defaultRecordsPerBlock;
    /** Container generation to emit (v3; v2 for reader fixtures). */
    TraceFormat format = TraceFormat::v3;
    /** Block codec for v3 output; ignored for v2. */
    BlockCodec codec = BlockCodec::lz;
};

/** Blocked, indexed trace writer (WLCTRC03, or v2 for fixtures). */
class TraceFileWriter
{
  public:
    /**
     * Open @p path for writing and emit the header.
     * @throws std::runtime_error on open failure,
     *         std::invalid_argument for recordsPerBlock = 0, format
     *         v1, or a codec byte outside raw and lz.
     */
    explicit TraceFileWriter(const std::string &path,
                             const WriterOptions &options = {});

    /** Flushes and finalizes via close() if still open. */
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Append one record. @throws std::runtime_error after close. */
    void write(const trace::WriteTransaction &txn);

    /**
     * Flush the pending partial block, write the footer index and
     * trailer, and close the file. Idempotent.
     * @throws std::runtime_error if the underlying stream failed.
     */
    void close();

    /** Records accepted so far. */
    uint64_t written() const { return total_; }

  private:
    void flushBlock();

    std::ofstream out_;
    std::string path_;
    WriterOptions options_;
    std::vector<uint8_t> block_; //!< serialized pending records
    std::vector<uint8_t> compressed_; //!< v3 compression scratch
    LzScratch lzScratch_;
    uint32_t pending_ = 0; //!< records in block_
    uint64_t pendingMin_ = 0;
    uint64_t pendingMax_ = 0;
    std::vector<BlockInfo> index_;
    uint64_t total_ = 0;
    uint64_t offset_ = headerBytes; //!< next stored-block offset
    bool open_ = true;
};

} // namespace wlcrc::tracefile

#endif // WLCRC_TRACEFILE_WRITER_HH
