#include "crc32.hh"

#include <array>
#include <cstring>

namespace wlcrc
{

namespace
{

/**
 * Slice-by-8 tables: tables[0] is the classic bytewise table, and
 * tables[k][b] is the CRC register after byte b then k zero bytes, so
 * eight lookups, one per byte, advance the CRC by a whole 8-byte word.
 */
constexpr std::array<std::array<uint32_t, 256>, 8>
makeTables()
{
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c >> 1) ^ ((c & 1) ? 0xedb88320u : 0u);
        t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i)
        for (std::size_t k = 1; k < 8; ++k)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    return t;
}

constexpr auto tables = makeTables();

} // namespace

uint32_t
crc32(const void *data, std::size_t len, uint32_t seed)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint32_t c = seed ^ 0xffffffffu;
    for (; len >= 8; p += 8, len -= 8) {
        // Assembled byte by byte, so the result does not depend on
        // host byte order; compilers fuse this into one load.
        uint8_t b[8];
        std::memcpy(b, p, 8);
        const uint32_t lo =
            c ^ (uint32_t{b[0]} | uint32_t{b[1]} << 8 |
                 uint32_t{b[2]} << 16 | uint32_t{b[3]} << 24);
        c = tables[7][lo & 0xff] ^ tables[6][(lo >> 8) & 0xff] ^
            tables[5][(lo >> 16) & 0xff] ^ tables[4][lo >> 24] ^
            tables[3][b[4]] ^ tables[2][b[5]] ^ tables[1][b[6]] ^
            tables[0][b[7]];
    }
    for (; len; ++p, --len)
        c = tables[0][(c ^ *p) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

} // namespace wlcrc
