#include "mapped_trace.hh"

#include <cstring>
#include <stdexcept>
#include <string>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/crc32.hh"
#include "common/lz.hh"

namespace wlcrc::tracefile
{

namespace
{

[[noreturn]] void
fail(const std::string &path, const std::string &what)
{
    throw std::runtime_error("MappedTrace: " + path + ": " + what);
}

} // namespace

MappedTrace::MappedTrace(const std::string &path) : path_(path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fail(path, "cannot open");
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        fail(path, "cannot stat");
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ < headerBytes + trailerBytes) {
        ::close(fd);
        fail(path, "too short to be a WLCTRC02/03 container");
    }
    void *map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference
    if (map == MAP_FAILED)
        fail(path, "mmap failed");
    base_ = static_cast<const uint8_t *>(map);

    try {
        if (std::memcmp(base_, magicV2, sizeof(magicV2)) == 0)
            format_ = TraceFormat::v2;
        else if (std::memcmp(base_, magicV3, sizeof(magicV3)) == 0)
            format_ = TraceFormat::v3;
        else
            fail(path, "bad WLCTRC02/03 magic");
        const bool v3 = format_ == TraceFormat::v3;
        recordsPerBlock_ = getLe32(base_ + 8);
        if (recordsPerBlock_ == 0)
            fail(path, "recordsPerBlock is 0");

        const uint8_t *trailer = base_ + size_ - trailerBytes;
        if (std::memcmp(trailer + 32,
                        v3 ? magicIndexV3 : magicIndex,
                        sizeof(magicIndex)) != 0)
            fail(path, "bad trailer magic (file truncated?)");
        const uint64_t indexOffset = getLe64(trailer);
        const uint64_t blockCount = getLe64(trailer + 8);
        records_ = getLe64(trailer + 16);
        indexCrc_ = getLe32(trailer + 24);
        const uint32_t entryBytes =
            v3 ? indexEntryBytesV3 : indexEntryBytes;

        // Bound every trailer field against the mapped size before
        // any pointer arithmetic: all products below stay < size_,
        // so crafted values can't wrap the checks and walk the crc
        // off the mapping.
        if (indexOffset < headerBytes ||
            indexOffset > size_ - trailerBytes)
            fail(path, "trailer index offset outside the file");
        const uint64_t indexArea = size_ - trailerBytes - indexOffset;
        if (blockCount > indexArea / entryBytes ||
            blockCount * entryBytes != indexArea)
            fail(path, "trailer offsets inconsistent with file size");
        if (!v3) {
            const uint64_t recordArea = indexOffset - headerBytes;
            if (records_ > recordArea / recordBytes ||
                records_ * uint64_t{recordBytes} != recordArea)
                fail(path,
                     "record area size disagrees with totalRecords");
        }

        const uint8_t *footer = base_ + indexOffset;
        if (crc32(footer, indexArea) != indexCrc_)
            fail(path, "footer index checksum mismatch");

        if (v3)
            parseIndexV3(footer, blockCount, indexOffset);
        else
            parseIndexV2(footer, blockCount, indexOffset);

        // The codec-invariant content fingerprint: CRC over the
        // v2-style entry serialization. For v2 this reproduces the
        // stored footer bytes, so contentCrc_ == indexCrc_.
        uint8_t entry[indexEntryBytes];
        uint32_t crc = 0;
        for (const auto &info : index_) {
            putLe32(entry, info.count);
            putLe32(entry + 4, info.crc);
            putLe64(entry + 8, info.minAddr);
            putLe64(entry + 16, info.maxAddr);
            crc = crc32(entry, sizeof(entry), crc);
        }
        contentCrc_ = crc;
    } catch (...) {
        ::munmap(const_cast<uint8_t *>(base_), size_);
        throw;
    }
}

void
MappedTrace::parseIndexV2(const uint8_t *footer, uint64_t blockCount,
                          uint64_t indexOffset)
{
    index_.reserve(blockCount);
    uint64_t counted = 0;
    for (uint64_t b = 0; b < blockCount; ++b) {
        const uint8_t *e = footer + b * indexEntryBytes;
        BlockInfo info;
        info.count = getLe32(e);
        info.crc = getLe32(e + 4);
        info.minAddr = getLe64(e + 8);
        info.maxAddr = getLe64(e + 16);
        if (info.count == 0 || info.count > recordsPerBlock_)
            fail(path_, "block " + std::to_string(b) +
                            " has impossible record count");
        if (b + 1 < blockCount && info.count != recordsPerBlock_)
            fail(path_, "non-final block " + std::to_string(b) +
                            " is not full");
        if (info.minAddr > info.maxAddr)
            fail(path_, "block " + std::to_string(b) +
                            " has inverted address range");
        // Storage geometry is implied by the fixed blocking.
        info.offset = headerBytes +
                      b * uint64_t{recordsPerBlock_} * recordBytes;
        info.storedBytes = info.count * recordBytes;
        info.storedCrc = info.crc;
        info.codec = BlockCodec::raw;
        counted += info.count;
        storedBytes_ += info.storedBytes;
        if (b == 0 || info.minAddr < minAddr_)
            minAddr_ = info.minAddr;
        if (b == 0 || info.maxAddr > maxAddr_)
            maxAddr_ = info.maxAddr;
        index_.push_back(info);
    }
    if (counted != records_)
        fail(path_, "index record counts disagree with trailer");
    (void)indexOffset;
}

void
MappedTrace::parseIndexV3(const uint8_t *footer, uint64_t blockCount,
                          uint64_t indexOffset)
{
    index_.reserve(blockCount);
    uint64_t counted = 0;
    uint64_t expectOffset = headerBytes;
    for (uint64_t b = 0; b < blockCount; ++b) {
        const uint8_t *e = footer + b * indexEntryBytesV3;
        BlockInfo info;
        info.count = getLe32(e);
        info.crc = getLe32(e + 4);
        info.minAddr = getLe64(e + 8);
        info.maxAddr = getLe64(e + 16);
        info.offset = getLe64(e + 24);
        info.storedBytes = getLe32(e + 32);
        info.storedCrc = getLe32(e + 36);
        const uint8_t codec = e[40];
        if (info.count == 0 || info.count > recordsPerBlock_)
            fail(path_, "block " + std::to_string(b) +
                            " has impossible record count");
        if (b + 1 < blockCount && info.count != recordsPerBlock_)
            fail(path_, "non-final block " + std::to_string(b) +
                            " is not full");
        if (info.minAddr > info.maxAddr)
            fail(path_, "block " + std::to_string(b) +
                            " has inverted address range");
        if (codec > static_cast<uint8_t>(BlockCodec::lz))
            fail(path_, "block " + std::to_string(b) +
                            " uses unknown codec byte " +
                            std::to_string(codec));
        info.codec = static_cast<BlockCodec>(codec);
        const uint64_t rawLen =
            uint64_t{info.count} * recordBytes;
        // Stored blocks must tile [header, indexOffset) exactly:
        // a lying offset or size cannot point outside the mapped
        // record area or overlap a neighbour.
        if (info.offset != expectOffset)
            fail(path_, "block " + std::to_string(b) +
                            " stored offset breaks the block chain");
        if (info.storedBytes == 0 ||
            info.storedBytes > indexOffset - info.offset)
            fail(path_, "block " + std::to_string(b) +
                            " stored size runs past the index");
        if (info.codec == BlockCodec::raw &&
            info.storedBytes != rawLen)
            fail(path_, "block " + std::to_string(b) +
                            " raw stored size disagrees with its "
                            "record count");
        if (info.codec != BlockCodec::raw &&
            info.storedBytes >= rawLen)
            fail(path_, "block " + std::to_string(b) +
                            " compressed block larger than raw "
                            "(writer never emits this)");
        expectOffset = info.offset + info.storedBytes;
        if (info.codec != BlockCodec::raw)
            anyCompressed_ = true;
        counted += info.count;
        storedBytes_ += info.storedBytes;
        if (b == 0 || info.minAddr < minAddr_)
            minAddr_ = info.minAddr;
        if (b == 0 || info.maxAddr > maxAddr_)
            maxAddr_ = info.maxAddr;
        index_.push_back(info);
    }
    if (counted != records_)
        fail(path_, "index record counts disagree with trailer");
    if (expectOffset != indexOffset)
        fail(path_, "stored blocks do not fill the record area");
}

MappedTrace::~MappedTrace()
{
    if (base_)
        ::munmap(const_cast<uint8_t *>(base_), size_);
}

const uint8_t *
MappedTrace::storedData(uint64_t b) const
{
    return base_ + index_[b].offset;
}

BlockView
MappedTrace::readBlock(uint64_t b,
                       std::vector<uint8_t> &scratch) const
{
    const auto &info = index_[b];
    const uint8_t *stored = storedData(b);
    if (info.codec == BlockCodec::raw) {
        if (crc32(stored, info.storedBytes) != info.crc)
            fail(path_, "block " + std::to_string(b) +
                            " checksum mismatch (corrupt trace)");
        return {stored, info.count};
    }
    if (crc32(stored, info.storedBytes) != info.storedCrc)
        fail(path_, "block " + std::to_string(b) +
                        " stored-byte checksum mismatch (corrupt "
                        "compressed block)");
    const std::size_t rawLen =
        std::size_t{info.count} * recordBytes;
    if (scratch.size() < rawLen)
        scratch.resize(rawLen);
    std::size_t got = 0;
    try {
        got = lzDecompress(stored, info.storedBytes, scratch.data(),
                           rawLen);
    } catch (const std::exception &e) {
        fail(path_, "block " + std::to_string(b) +
                        " failed to decompress: " + e.what());
    }
    if (got != rawLen)
        fail(path_, "block " + std::to_string(b) +
                        " decompressed to " + std::to_string(got) +
                        " bytes, expected " + std::to_string(rawLen));
    if (crc32(scratch.data(), rawLen) != info.crc)
        fail(path_, "block " + std::to_string(b) +
                        " checksum mismatch after decompression "
                        "(corrupt trace)");
    return {scratch.data(), info.count};
}

trace::WriteTransaction
MappedTrace::recordInBlock(uint64_t b, uint32_t i) const
{
    const auto &info = index_[b];
    if (info.codec == BlockCodec::raw)
        return decodeRecord(storedData(b) +
                            std::size_t{i} * recordBytes);
    std::vector<uint8_t> scratch;
    const BlockView view = readBlock(b, scratch);
    return decodeRecord(view.data + std::size_t{i} * recordBytes);
}

trace::WriteTransaction
MappedTrace::record(uint64_t i) const
{
    if (i >= records_)
        fail(path_, "record index " + std::to_string(i) +
                        " out of range");
    // All blocks but the last are full, so the block is a division.
    return recordInBlock(i / recordsPerBlock_,
                         static_cast<uint32_t>(i % recordsPerBlock_));
}

void
MappedTrace::verifyBlock(uint64_t b) const
{
    std::vector<uint8_t> scratch;
    (void)readBlock(b, scratch);
}

uint64_t
MappedTrace::verifyAll() const
{
    std::vector<uint8_t> scratch;
    for (uint64_t b = 0; b < index_.size(); ++b)
        (void)readBlock(b, scratch);
    return records_;
}

} // namespace wlcrc::tracefile
