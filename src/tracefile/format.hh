/**
 * @file
 * On-disk layout of the WLCTRC02/WLCTRC03 indexed trace containers.
 *
 * The legacy WLCTRC01 format (trace/trace_io.hh) is a bare record
 * dump: fine for piping, useless for out-of-core replay — finding
 * anything means scanning everything. WLCTRC02 adds blocking and a
 * footer index so readers can seek, prune and audit:
 *
 *   header   16 B   magic "WLCTRC02", u32 recordsPerBlock, u32 0
 *   blocks   fixed-size runs of recordBytes-sized records; every
 *            block holds exactly recordsPerBlock records except the
 *            last, which holds the remainder (no padding)
 *   index    one 24 B entry per block:
 *            u32 count, u32 crc32(block bytes), u64 minAddr,
 *            u64 maxAddr  (min/max over the block's line addresses)
 *   trailer  40 B   u64 indexOffset, u64 blockCount,
 *            u64 totalRecords, u32 crc32(index bytes), u32 0,
 *            magic "WLCIDX02"
 *
 * WLCTRC03 keeps the record payload and blocking identical but
 * stores each block independently compressed (docs/trace-format.md
 * has the byte-level spec):
 *
 *   header   16 B   magic "WLCTRC03", u32 recordsPerBlock, u32 0
 *   blocks   variable-size stored byte runs, back to back; each is
 *            one block's records either raw or compressed with the
 *            codec named in its index entry
 *   index    one 48 B entry per block:
 *            u32 count, u32 rawCrc (crc32 of the *uncompressed*
 *            record bytes), u64 minAddr, u64 maxAddr,
 *            u64 offset (absolute file offset of the stored bytes),
 *            u32 storedBytes, u32 storedCrc (crc32 of the stored
 *            bytes), u8 codec (BlockCodec), 7 zero bytes
 *   trailer  40 B   as v2, magic "WLCIDX03"
 *
 * A writer compresses each block and falls back to raw storage when
 * the codec does not strictly shrink it, so a v3 file is never
 * larger than its v2 equivalent plus the bigger index. Records are
 * the same 136 bytes in all generations (u64 lineAddr, 64 B old
 * data, 64 B new data, little-endian), so conversion between any
 * two formats is re-framing, never re-encoding. Every tool writes
 * WLCTRC03; v1 and v2 files stay readable everywhere and `wlcrc_trace
 * convert` turns them into v3. The trailer sits at
 * EOF, so a reader finds the index with one seek; the per-block
 * min/max addresses let a sharded replay skip whole blocks whose
 * address range cannot intersect its partition.
 */

#ifndef WLCRC_TRACEFILE_FORMAT_HH
#define WLCRC_TRACEFILE_FORMAT_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "trace/transaction.hh"

namespace wlcrc::tracefile
{

/** Magic of the legacy sequential format (trace/trace_io). */
inline constexpr char magicV1[8] = {'W', 'L', 'C', 'T',
                                    'R', 'C', '0', '1'};
/** Magic opening a WLCTRC02 container. */
inline constexpr char magicV2[8] = {'W', 'L', 'C', 'T',
                                    'R', 'C', '0', '2'};
/** Magic opening a WLCTRC03 container. */
inline constexpr char magicV3[8] = {'W', 'L', 'C', 'T',
                                    'R', 'C', '0', '3'};
/** Magic closing the v2 trailer (read backwards from EOF). */
inline constexpr char magicIndex[8] = {'W', 'L', 'C', 'I',
                                       'D', 'X', '0', '2'};
/** Magic closing the v3 trailer. */
inline constexpr char magicIndexV3[8] = {'W', 'L', 'C', 'I',
                                         'D', 'X', '0', '3'};

/** Serialized size of one record: u64 addr + old + new line. */
inline constexpr uint32_t recordBytes = 8 + 2 * (lineBits / 8);
/** Serialized size of the file header. */
inline constexpr uint32_t headerBytes = 16;
/** Serialized size of one v2 footer-index entry. */
inline constexpr uint32_t indexEntryBytes = 24;
/** Serialized size of one v3 footer-index entry. */
inline constexpr uint32_t indexEntryBytesV3 = 48;
/** Serialized size of the trailer. */
inline constexpr uint32_t trailerBytes = 40;
/** Default block capacity: 4096 records ≈ 544 KiB per block. */
inline constexpr uint32_t defaultRecordsPerBlock = 4096;

/** Per-block storage codec of a WLCTRC03 container. */
enum class BlockCodec : uint8_t
{
    raw = 0, //!< records stored verbatim
    lz = 1,  //!< dependency-free LZ (common/lz.hh)
    // Bytes >= 2 are unassigned: an index entry carrying one fails
    // at open with "unknown codec byte".
};

/** @return "raw" or "lz". */
const char *codecName(BlockCodec c);

/** Parse "raw" / "lz". @throws std::invalid_argument. */
BlockCodec parseCodecName(const std::string &name);

/**
 * Decoded footer-index entry of one block. For a v2 container the
 * storage fields are synthesized at load time (offset from the
 * fixed blocking, storedBytes = count × recordBytes, codec = raw,
 * storedCrc = rawCrc), so readers treat both generations uniformly.
 */
struct BlockInfo
{
    uint32_t count = 0;   //!< records stored in the block
    uint32_t crc = 0;     //!< crc32 of the *uncompressed* records
    uint64_t minAddr = 0; //!< smallest line address in the block
    uint64_t maxAddr = 0; //!< largest line address in the block
    uint64_t offset = 0;  //!< file offset of the stored bytes
    uint32_t storedBytes = 0; //!< on-disk size of the stored bytes
    uint32_t storedCrc = 0;   //!< crc32 of the stored bytes
    BlockCodec codec = BlockCodec::raw;
};

// Little-endian scalar accessors on raw buffers. The container is
// byte-order-pinned like WLCTRC01, so files are portable. Values are
// assembled byte by byte, so the result does not depend on host byte
// order; compilers fuse each into one load or store. They are inline
// because every replayed record passes through them.

inline void
putLe32(uint8_t *dst, uint32_t v)
{
    dst[0] = static_cast<uint8_t>(v);
    dst[1] = static_cast<uint8_t>(v >> 8);
    dst[2] = static_cast<uint8_t>(v >> 16);
    dst[3] = static_cast<uint8_t>(v >> 24);
}

inline void
putLe64(uint8_t *dst, uint64_t v)
{
    putLe32(dst, static_cast<uint32_t>(v));
    putLe32(dst + 4, static_cast<uint32_t>(v >> 32));
}

inline uint32_t
getLe32(const uint8_t *src)
{
    uint8_t b[4];
    std::memcpy(b, src, 4);
    return uint32_t{b[0]} | uint32_t{b[1]} << 8 |
           uint32_t{b[2]} << 16 | uint32_t{b[3]} << 24;
}

inline uint64_t
getLe64(const uint8_t *src)
{
    uint8_t b[8];
    std::memcpy(b, src, 8);
    return uint64_t{b[0]} | uint64_t{b[1]} << 8 | uint64_t{b[2]} << 16 |
           uint64_t{b[3]} << 24 | uint64_t{b[4]} << 32 |
           uint64_t{b[5]} << 40 | uint64_t{b[6]} << 48 |
           uint64_t{b[7]} << 56;
}

/** Serialize @p txn into @p dst (recordBytes bytes). */
inline void
encodeRecord(uint8_t *dst, const trace::WriteTransaction &txn)
{
    putLe64(dst, txn.lineAddr);
    for (unsigned w = 0; w < lineWords; ++w)
        putLe64(dst + 8 + 8 * w, txn.oldData.word(w));
    for (unsigned w = 0; w < lineWords; ++w)
        putLe64(dst + 8 + 8 * (lineWords + w), txn.newData.word(w));
}

/** Decode a record serialized by encodeRecord(). */
inline trace::WriteTransaction
decodeRecord(const uint8_t *src)
{
    std::array<uint64_t, lineWords> oldWords;
    std::array<uint64_t, lineWords> newWords;
    for (unsigned w = 0; w < lineWords; ++w) {
        oldWords[w] = getLe64(src + 8 + 8 * w);
        newWords[w] = getLe64(src + 8 + 8 * (lineWords + w));
    }
    return {getLe64(src), Line512(oldWords), Line512(newWords)};
}

/**
 * @return true if [minAddr, maxAddr] contains an address congruent
 * to @p residue mod @p mod — the block-pruning predicate: a block
 * whose address range has no such address holds nothing for the
 * shard replaying that residue class.
 */
bool rangeHasResidue(uint64_t minAddr, uint64_t maxAddr,
                     unsigned mod, unsigned residue);

/** Trace container generations. */
enum class TraceFormat
{
    v1, //!< WLCTRC01 sequential dump
    v2, //!< WLCTRC02 blocked + indexed container
    v3, //!< WLCTRC03 per-block-compressed container
};

/** @return "v1", "v2" or "v3". */
const char *formatName(TraceFormat f);

/**
 * Sniff the leading magic of @p path.
 * @throws std::runtime_error if the file cannot be opened or starts
 * with neither trace magic.
 */
TraceFormat detectFormat(const std::string &path);

} // namespace wlcrc::tracefile

#endif // WLCRC_TRACEFILE_FORMAT_HH
