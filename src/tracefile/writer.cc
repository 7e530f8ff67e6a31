#include "writer.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/crc32.hh"

namespace wlcrc::tracefile
{

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 const WriterOptions &options)
    : out_(path, std::ios::binary), path_(path), options_(options)
{
    if (!out_)
        throw std::runtime_error("TraceFileWriter: cannot open " +
                                 path);
    if (options_.recordsPerBlock == 0)
        throw std::invalid_argument(
            "TraceFileWriter: recordsPerBlock must be > 0");
    if (options_.format != TraceFormat::v2 &&
        options_.format != TraceFormat::v3)
        throw std::invalid_argument(
            "TraceFileWriter: only v2 and v3 containers are "
            "writable");
    if (options_.codec != BlockCodec::raw &&
        options_.codec != BlockCodec::lz)
        throw std::invalid_argument(
            "TraceFileWriter: unknown codec byte " +
            std::to_string(static_cast<unsigned>(options_.codec)));
    const bool v3 = options_.format == TraceFormat::v3;
    block_.resize(std::size_t{options_.recordsPerBlock} *
                  recordBytes);
    if (v3 && options_.codec != BlockCodec::raw)
        // Strict-win cap: a block that does not shrink stays raw.
        compressed_.resize(block_.size());

    uint8_t header[headerBytes] = {};
    std::memcpy(header, v3 ? magicV3 : magicV2, sizeof(magicV2));
    putLe32(header + 8, options_.recordsPerBlock);
    out_.write(reinterpret_cast<const char *>(header),
               sizeof(header));
}

TraceFileWriter::~TraceFileWriter()
{
    try {
        close();
    } catch (...) {
        // Destructors must not throw; a failed close surfaces when
        // the file is next opened (bad trailer / index).
    }
}

void
TraceFileWriter::write(const trace::WriteTransaction &txn)
{
    if (!open_)
        throw std::runtime_error(
            "TraceFileWriter: write after close on " + path_);
    encodeRecord(block_.data() +
                     std::size_t{pending_} * recordBytes,
                 txn);
    if (pending_ == 0) {
        pendingMin_ = txn.lineAddr;
        pendingMax_ = txn.lineAddr;
    } else {
        pendingMin_ = std::min(pendingMin_, txn.lineAddr);
        pendingMax_ = std::max(pendingMax_, txn.lineAddr);
    }
    ++pending_;
    ++total_;
    if (pending_ == options_.recordsPerBlock)
        flushBlock();
}

void
TraceFileWriter::flushBlock()
{
    const std::size_t rawLen = std::size_t{pending_} * recordBytes;
    BlockInfo info;
    info.count = pending_;
    info.crc = crc32(block_.data(), rawLen);
    info.minAddr = pendingMin_;
    info.maxAddr = pendingMax_;
    info.offset = offset_;

    const uint8_t *stored = block_.data();
    std::size_t storedLen = rawLen;
    info.codec = BlockCodec::raw;
    if (options_.format == TraceFormat::v3 &&
        options_.codec != BlockCodec::raw) {
        const std::size_t c =
            lzCompress(block_.data(), rawLen, compressed_.data(),
                       rawLen - 1, &lzScratch_);
        if (c != 0) {
            stored = compressed_.data();
            storedLen = c;
            info.codec = options_.codec;
        }
    }
    info.storedBytes = static_cast<uint32_t>(storedLen);
    info.storedCrc = info.codec == BlockCodec::raw
                         ? info.crc
                         : crc32(stored, storedLen);

    out_.write(reinterpret_cast<const char *>(stored),
               static_cast<std::streamsize>(storedLen));
    offset_ += storedLen;
    index_.push_back(info);
    pending_ = 0;
}

void
TraceFileWriter::close()
{
    if (!open_)
        return;
    open_ = false;
    if (pending_ > 0)
        flushBlock();

    const bool v3 = options_.format == TraceFormat::v3;
    const uint32_t entryBytes =
        v3 ? indexEntryBytesV3 : indexEntryBytes;
    std::vector<uint8_t> footer(index_.size() * entryBytes);
    for (std::size_t i = 0; i < index_.size(); ++i) {
        uint8_t *e = footer.data() + i * entryBytes;
        putLe32(e, index_[i].count);
        putLe32(e + 4, index_[i].crc);
        putLe64(e + 8, index_[i].minAddr);
        putLe64(e + 16, index_[i].maxAddr);
        if (v3) {
            putLe64(e + 24, index_[i].offset);
            putLe32(e + 32, index_[i].storedBytes);
            putLe32(e + 36, index_[i].storedCrc);
            e[40] = static_cast<uint8_t>(index_[i].codec);
            // bytes 41..47 stay zero (reserved)
        }
    }
    const uint64_t indexOffset = offset_;
    out_.write(reinterpret_cast<const char *>(footer.data()),
               static_cast<std::streamsize>(footer.size()));

    uint8_t trailer[trailerBytes] = {};
    putLe64(trailer, indexOffset);
    putLe64(trailer + 8, index_.size());
    putLe64(trailer + 16, total_);
    putLe32(trailer + 24, crc32(footer.data(), footer.size()));
    std::memcpy(trailer + 32, v3 ? magicIndexV3 : magicIndex,
                sizeof(magicIndex));
    out_.write(reinterpret_cast<const char *>(trailer),
               sizeof(trailer));

    out_.close();
    if (!out_)
        throw std::runtime_error("TraceFileWriter: write to " +
                                 path_ + " failed");
}

} // namespace wlcrc::tracefile
