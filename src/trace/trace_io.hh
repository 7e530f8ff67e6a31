/**
 * @file
 * Binary trace file format, so externally collected traces (gem5,
 * Pin, Simics) can be replayed through the same pipeline as the
 * synthetic workloads.
 *
 * Format: 8-byte magic "WLCTRC01", then records of
 *   u64 lineAddr | 64 bytes old data | 64 bytes new data
 * in little-endian byte order.
 *
 * No tool writes WLCTRC01 any more (they write WLCTRC03, see
 * tracefile/writer.hh); TraceWriter remains to write the reader
 * tests' fixtures, TraceReader to read existing dumps.
 */

#ifndef WLCRC_TRACE_TRACE_IO_HH
#define WLCRC_TRACE_TRACE_IO_HH

#include <fstream>
#include <optional>
#include <string>

#include "trace/transaction.hh"

namespace wlcrc::trace
{

/** Sequential trace file writer. */
class TraceWriter
{
  public:
    /** @throws std::runtime_error if the file cannot be opened. */
    explicit TraceWriter(const std::string &path);

    void write(const WriteTransaction &txn);

    /**
     * Flush and close the file. Idempotent.
     * @throws std::runtime_error if any write failed (a full disk
     * must not pass for a successfully persisted trace).
     */
    void close();

    uint64_t written() const { return count_; }

  private:
    std::ofstream out_;
    std::string path_;
    uint64_t count_ = 0;
};

/** Sequential trace file reader. */
class TraceReader
{
  public:
    /** @throws std::runtime_error on open failure or bad magic. */
    explicit TraceReader(const std::string &path);

    /**
     * @return the next transaction, or nullopt at clean end of file.
     * @throws std::runtime_error if the file ends mid-record (a
     * truncated dump must not silently pass for a shorter trace);
     * the message names the offending byte offset.
     */
    std::optional<WriteTransaction> read();

  private:
    std::ifstream in_;
    std::string path_;
    uint64_t offset_; //!< byte offset of the next unread record
};

} // namespace wlcrc::trace

#endif // WLCRC_TRACE_TRACE_IO_HH
