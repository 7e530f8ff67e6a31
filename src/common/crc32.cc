#include "crc32.hh"

#include <cstdint>

#include "simd.hh"

namespace wlcrc
{

uint32_t
crc32(const void *data, std::size_t len, uint32_t seed)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint32_t c = seed ^ 0xffffffffu;
    // The kernel folds 16-byte blocks from an aligned start, at
    // least four of them; the table loop takes the unaligned head
    // and the tail shorter than one block.
    constexpr std::size_t kernelMin = 64;
    if (len >= kernelMin) {
        const std::size_t head =
            (16 - reinterpret_cast<std::uintptr_t>(p) % 16) % 16;
        const std::size_t bulk = (len - head) & ~std::size_t{15};
        if (bulk >= kernelMin) {
            c = simd::detail::scalarCrc32(c, p, head);
            c = simd::ops().crc32(c, p + head, bulk);
            p += head + bulk;
            len -= head + bulk;
        }
    }
    return simd::detail::scalarCrc32(c, p, len) ^ 0xffffffffu;
}

} // namespace wlcrc
