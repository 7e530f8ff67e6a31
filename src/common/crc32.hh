/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte
 * buffers. The 16-byte-aligned bulk of a buffer of 64 bytes or more
 * goes to the active SIMD kernel (simd::Ops::crc32: carry-less
 * multiply folding on AVX2 hosts, the ARMv8 CRC instructions on
 * NEON builds that have them); the head, the tail and short buffers
 * go through the scalar slice-by-8 table loop, which is also the
 * reference every kernel must match.
 *
 * Every trace container uses it: the WLCTRC02 and WLCTRC03 record
 * blocks (raw and stored CRCs), their footer indexes and trailers,
 * serve's capture files (written through the same writer), and the
 * content digests that key sourced sweep specs and the result cache.
 * So corruption is detected at read time instead of silently
 * skewing replay metrics.
 */

#ifndef WLCRC_COMMON_CRC32_HH
#define WLCRC_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace wlcrc
{

/**
 * @return the CRC-32 of @p data[0..len), optionally continuing from
 * a previous buffer's checksum @p seed (pass the prior return value
 * to checksum a stream in pieces; the default starts a new message).
 */
uint32_t crc32(const void *data, std::size_t len, uint32_t seed = 0);

} // namespace wlcrc

#endif // WLCRC_COMMON_CRC32_HH
