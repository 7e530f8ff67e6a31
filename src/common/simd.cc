#include "simd.hh"

#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace wlcrc::simd
{

// The SWAR census reads 8 cells per 64-bit load, byte k at bits 8k.
static_assert(std::endian::native == std::endian::little);

namespace
{

// ------------------------------------------------- scalar reference

/** Bit k of the result = bit 8k of @p x (x has no other bits set). */
inline uint64_t
gatherByteBits(uint64_t x)
{
    // Byte k's bit lands at 8k + (56 - 7k) = 56 + k. Every other
    // partial product lands on its own bit below 56 or past 63, so
    // no carry reaches the top byte.
    return (x * 0x0102040810204080ull) >> 56;
}

/** Difference mask and target-state bit planes of 64 cells. */
struct WordPlanes
{
    uint64_t diff = 0; //!< bit i: a[i] != b[i]
    uint64_t p0 = 0;   //!< bit i: bit 0 of b[i]
    uint64_t p1 = 0;   //!< bit i: bit 1 of b[i]
};

WordPlanes
scanWord(const uint8_t *a, const uint8_t *b)
{
    constexpr uint64_t ones = 0x0101010101010101ull;
    constexpr uint64_t low7 = 0x7f7f7f7f7f7f7f7full;
    WordPlanes r;
    for (unsigned k = 0; k < 8; ++k) {
        uint64_t x;
        uint64_t y;
        std::memcpy(&x, a + 8 * k, 8);
        std::memcpy(&y, b + 8 * k, 8);
        const uint64_t d = x ^ y;
        // Bit 7 of each byte of `nz` is set iff that byte of d is
        // nonzero.
        const uint64_t nz = ((d & low7) + low7) | d;
        r.diff |= gatherByteBits((nz >> 7) & ones) << (8 * k);
        r.p0 |= gatherByteBits(y & ones) << (8 * k);
        r.p1 |= gatherByteBits((y >> 1) & ones) << (8 * k);
    }
    return r;
}

} // namespace

namespace detail
{

void
scalarProgramCensus(const uint8_t *stored, const uint8_t *target,
                    const uint64_t *auxWords, unsigned n,
                    uint64_t *diff, uint32_t counts[2][4])
{
    uint32_t c[2][4] = {};
    uint8_t padA[64];
    uint8_t padB[64];
    const unsigned nw = (n + 63) / 64;
    for (unsigned w = 0; w < nw; ++w) {
        const unsigned base = w * 64;
        const uint8_t *a = stored + base;
        const uint8_t *b = target + base;
        if (n - base < 64) {
            // Zero both tails: padding cells never differ.
            std::memset(padA, 0, sizeof padA);
            std::memset(padB, 0, sizeof padB);
            std::memcpy(padA, a, n - base);
            std::memcpy(padB, b, n - base);
            a = padA;
            b = padB;
        }
        const WordPlanes pl = scanWord(a, b);
        diff[w] = pl.diff;
        if (!pl.diff)
            continue;
        const uint64_t s[4] = {~pl.p1 & ~pl.p0, ~pl.p1 & pl.p0,
                               pl.p1 & ~pl.p0, pl.p1 & pl.p0};
        const uint64_t side[2] = {pl.diff & ~auxWords[w],
                                  pl.diff & auxWords[w]};
        for (unsigned x = 0; x < 2; ++x)
            for (unsigned t = 0; t < 4; ++t)
                c[x][t] += popcount64(side[x] & s[t]);
    }
    std::memcpy(counts, c, sizeof c);
}

} // namespace detail

namespace
{

/**
 * Slice-by-8 tables: tables[0] is the classic bytewise table, and
 * tables[k][b] is the CRC register after byte b then k zero bytes, so
 * eight lookups, one per byte, advance the CRC by a whole 8-byte word.
 */
constexpr std::array<std::array<uint32_t, 256>, 8>
makeCrcTables()
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

constexpr auto crcTables = makeCrcTables();

} // namespace

namespace detail
{

uint32_t
scalarCrc32(uint32_t reg, const uint8_t *p, std::size_t len)
{
    const auto &t = crcTables;
    uint32_t c = reg;
    for (; len >= 8; p += 8, len -= 8) {
        // Assembled byte by byte, so the result does not depend on
        // host byte order; compilers fuse this into one load.
        uint8_t b[8];
        std::memcpy(b, p, 8);
        const uint32_t lo =
            c ^ (uint32_t{b[0]} | uint32_t{b[1]} << 8 |
                 uint32_t{b[2]} << 16 | uint32_t{b[3]} << 24);
        c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][b[4]] ^
            t[2][b[5]] ^ t[1][b[6]] ^ t[0][b[7]];
    }
    for (; len; ++p, --len)
        c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
    return c;
}

} // namespace detail

namespace
{

void
scalarMapSymbols(uint64_t word, const uint8_t *map4, unsigned lo,
                 unsigned hi, uint8_t *out)
{
    for (unsigned c = lo; c <= hi; ++c)
        out[c] = map4[(word >> (2 * c)) & 3];
}

void
scalarAccumRows4(const double *rows, const uint8_t *stored,
                 uint64_t word, unsigned lo, unsigned hi, double *acc)
{
    for (unsigned c = lo; c <= hi; ++c) {
        const unsigned sym =
            static_cast<unsigned>((word >> (2 * c)) & 3);
        const double *row = rows + (stored[c] * 4u + sym) * 4u;
        for (unsigned m = 0; m < 4; ++m)
            acc[m] += row[m];
    }
}

void
scalarAccumRows8(const double *rows, const uint8_t *stored,
                 uint64_t word, unsigned lo, unsigned hi, double *acc)
{
    for (unsigned c = lo; c <= hi; ++c) {
        const unsigned sym =
            static_cast<unsigned>((word >> (2 * c)) & 3);
        const double *row = rows + (stored[c] * 4u + sym) * 8u;
        for (unsigned m = 0; m < 8; ++m)
            acc[m] += row[m];
    }
}

void
scalarAccumBlocks4(const double *rows, const uint8_t *stored,
                   uint64_t word, const uint8_t *lo,
                   const uint8_t *hi, unsigned nblocks, double *acc)
{
    for (unsigned b = 0; b < nblocks; ++b)
        scalarAccumRows4(rows, stored, word, lo[b], hi[b],
                         acc + 4 * b);
}

void
scalarMapBlocks(uint64_t word, const uint8_t *const *tables,
                const uint8_t *lo, const uint8_t *hi,
                unsigned nblocks, uint8_t *out)
{
    for (unsigned b = 0; b < nblocks; ++b)
        scalarMapSymbols(word, tables[b], lo[b], hi[b], out);
}

constexpr Ops scalarOps = {detail::scalarProgramCensus,
                           scalarMapSymbols, scalarAccumRows4,
                           scalarAccumRows8, scalarAccumBlocks4,
                           scalarMapBlocks, detail::scalarCrc32};

bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(_M_X64)
    // simd_avx2.cc is also built with -mpopcnt -mpclmul.
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("popcnt") &&
           __builtin_cpu_supports("pclmul");
#else
    return false;
#endif
}

} // namespace

// Defined in simd_avx2.cc / simd_neon.cc; null when the translation
// unit was built without the matching instruction set.
const Ops *avx2OpsOrNull();
const Ops *neonOpsOrNull();

const char *
kernelName(Kernel k)
{
    switch (k) {
    case Kernel::Scalar:
        return "scalar";
    case Kernel::Avx2:
        return "avx2";
    case Kernel::Neon:
        return "neon";
    }
    return "?";
}

bool
kernelAvailable(Kernel k)
{
    switch (k) {
    case Kernel::Scalar:
        return true;
    case Kernel::Avx2:
        return avx2OpsOrNull() != nullptr && cpuHasAvx2();
    case Kernel::Neon:
        return neonOpsOrNull() != nullptr;
    }
    return false;
}

Kernel
bestKernel()
{
    if (kernelAvailable(Kernel::Avx2))
        return Kernel::Avx2;
    if (kernelAvailable(Kernel::Neon))
        return Kernel::Neon;
    return Kernel::Scalar;
}

Kernel
parseKernel(const std::string &text)
{
    if (text == "auto")
        return bestKernel();
    if (text == "scalar")
        return Kernel::Scalar;
    if (text == "avx2")
        return Kernel::Avx2;
    if (text == "neon")
        return Kernel::Neon;
    throw std::invalid_argument(
        "unknown SIMD kernel '" + text +
        "' (expected auto|scalar|avx2|neon)");
}

const Ops &
opsFor(Kernel k)
{
    if (!kernelAvailable(k)) {
        throw std::invalid_argument(
            std::string("SIMD kernel '") + kernelName(k) +
            "' is not available on this machine");
    }
    switch (k) {
    case Kernel::Avx2:
        return *avx2OpsOrNull();
    case Kernel::Neon:
        return *neonOpsOrNull();
    default:
        return scalarOps;
    }
}

namespace detail
{

std::atomic<const Ops *> activeOps{nullptr};

/** Kernel of the table in activeOps (valid once activeOps is set). */
std::atomic<Kernel> activeKind{Kernel::Scalar};

const Ops &
resolveActiveOps()
{
    // Lazy env resolution; racing threads resolve identically, so
    // the unsynchronised stores are benign.
    const char *env = std::getenv("WLCRC_SIMD");
    const Kernel k =
        parseKernel(env && *env ? env : std::string("auto"));
    const Ops &t = opsFor(k);
    activeKind.store(k, std::memory_order_relaxed);
    activeOps.store(&t, std::memory_order_release);
    return t;
}

} // namespace detail

void
setKernel(Kernel k)
{
    const Ops &t = opsFor(k); // validates availability
    detail::activeKind.store(k, std::memory_order_relaxed);
    detail::activeOps.store(&t, std::memory_order_release);
}

void
setKernelFromText(const std::string &text)
{
    setKernel(parseKernel(text));
}

Kernel
activeKernel()
{
    if (!detail::activeOps.load(std::memory_order_relaxed))
        detail::resolveActiveOps();
    return detail::activeKind.load(std::memory_order_relaxed);
}

} // namespace wlcrc::simd
