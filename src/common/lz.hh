/**
 * @file
 * Dependency-free LZ block codec for the WLCTRC03 trace container.
 *
 * Byte-oriented LZSS in the LZ4 family: a stream of sequences, each
 * a token byte (literal-length nibble, match-length nibble, both
 * 255-continued), the literal bytes, then a 2-byte little-endian
 * match offset into the previously decoded output (64 KiB window)
 * and the extended match length. The final sequence may be
 * literals-only: the input ends after its literal run, and its match
 * nibble is 0. Minimum match length is 4 bytes; offsets are 1-based
 * and must stay inside the bytes already produced.
 *
 * Trace blocks are runs of 136-byte records whose address and data
 * words repeat heavily on biased workloads, so even this greedy
 * single-pass matcher shrinks them several-fold; blocks that do not
 * shrink are stored raw by the writer (tracefile/writer.hh).
 *
 * The decoder is hostile-input safe: every read is bounds-checked
 * against the input, every write against the output capacity, and
 * malformed streams throw std::runtime_error naming the defect —
 * they never over-read, over-write or loop forever. wlcrc_fuzz
 * hammers this contract with seeded mutations.
 */

#ifndef WLCRC_COMMON_LZ_HH
#define WLCRC_COMMON_LZ_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wlcrc
{

/**
 * Reusable compressor state (the position hash table). Passing the
 * same scratch to successive lzCompress() calls makes compression
 * allocation-free after the first block — the writer's steady-state
 * guarantee.
 */
struct LzScratch
{
    std::vector<uint32_t> table;
};

/**
 * @return an output capacity that lzCompress() can never exceed for
 * @p rawLen input bytes (worst case: incompressible data stored as
 * one long literal run).
 */
std::size_t lzCompressBound(std::size_t rawLen);

/**
 * Compress @p src[0..srcLen) into @p dst.
 * @return the compressed size, or 0 if the result would not fit in
 * @p dstCap — callers pass dstCap = srcLen - 1 to demand a strict
 * win and store the block raw otherwise.
 */
std::size_t lzCompress(const uint8_t *src, std::size_t srcLen,
                       uint8_t *dst, std::size_t dstCap,
                       LzScratch *scratch = nullptr);

/**
 * Decompress @p src[0..srcLen) into @p dst[0..dstCap). Bytes of
 * @p dst past the returned count may be overwritten too (the wide
 * copies store whole 8- and 16-byte chunks), never past @p dstCap.
 * @return the number of bytes produced (<= dstCap).
 * @throws std::runtime_error on any malformed input: truncated
 * runs, offsets outside the decoded window, or output overflowing
 * @p dstCap.
 */
std::size_t lzDecompress(const uint8_t *src, std::size_t srcLen,
                         uint8_t *dst, std::size_t dstCap);

} // namespace wlcrc

#endif // WLCRC_COMMON_LZ_HH
