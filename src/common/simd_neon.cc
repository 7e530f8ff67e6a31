/**
 * @file
 * NEON (aarch64) implementations of the simd.hh kernels. Compiled
 * only on aarch64, where NEON is architecturally guaranteed; other
 * platforms get the null registration below.
 *
 * Bit-identity contract as in simd_avx2.cc: integer kernels are
 * exact, and the accumulation kernels issue per-lane vaddq_f64 adds
 * in scalar cell order, so sums match the scalar reference exactly.
 * The CRC-32 kernel uses the ARMv8 CRC32 instructions where the
 * build targets them (__ARM_FEATURE_CRC32, e.g. -march=armv8.1-a),
 * and the scalar table loop elsewhere.
 */

#include "simd.hh"

#if defined(__aarch64__)

#include <arm_neon.h>
#include <cstring>

#if defined(__ARM_FEATURE_CRC32)
#include <arm_acle.h>
#endif

namespace wlcrc::simd
{

namespace
{

/** Symbols 16h..16h+15 of @p word as one byte-per-symbol vector. */
inline uint8x16_t
symbolsHalf(uint64_t word, unsigned h)
{
    const uint8x16_t bytes =
        vreinterpretq_u8_u64(vdupq_n_u64(word));
    const uint8x16_t spread0 = {0, 0, 0, 0, 1, 1, 1, 1,
                                2, 2, 2, 2, 3, 3, 3, 3};
    const uint8x16_t spread1 = {4, 4, 4, 4, 5, 5, 5, 5,
                                6, 6, 6, 6, 7, 7, 7, 7};
    const uint8x16_t v =
        vqtbl1q_u8(bytes, h ? spread1 : spread0);
    // Per-byte right shift by 2 * (c % 4): ushl with negative counts.
    const int8x16_t shifts = {0, -2, -4, -6, 0, -2, -4, -6,
                              0, -2, -4, -6, 0, -2, -4, -6};
    const uint8x16_t shifted = vshlq_u8(v, shifts);
    return vandq_u8(shifted, vdupq_n_u8(3));
}

void
mapSymbolsNeon(uint64_t word, const uint8_t *map4, unsigned lo,
               unsigned hi, uint8_t *out)
{
    uint8x16_t lut = vdupq_n_u8(0);
    lut = vsetq_lane_u8(map4[0], lut, 0);
    lut = vsetq_lane_u8(map4[1], lut, 1);
    lut = vsetq_lane_u8(map4[2], lut, 2);
    lut = vsetq_lane_u8(map4[3], lut, 3);
    alignas(16) uint8_t tmp[32];
    vst1q_u8(tmp, vqtbl1q_u8(lut, symbolsHalf(word, 0)));
    vst1q_u8(tmp + 16, vqtbl1q_u8(lut, symbolsHalf(word, 1)));
    if (lo == 0 && hi == 31) {
        std::memcpy(out, tmp, 32);
        return;
    }
    std::memcpy(out + lo, tmp + lo, hi - lo + 1);
}

void
accumRows4Neon(const double *rows, const uint8_t *stored,
               uint64_t word, unsigned lo, unsigned hi, double *acc)
{
    float64x2_t a0 = vld1q_f64(acc);
    float64x2_t a1 = vld1q_f64(acc + 2);
    uint64_t w = word >> (2 * lo);
    for (unsigned c = lo; c <= hi; ++c) {
        const auto sym = static_cast<unsigned>(w & 3);
        w >>= 2;
        const double *row = rows + (stored[c] * 4u + sym) * 4u;
        a0 = vaddq_f64(a0, vld1q_f64(row));
        a1 = vaddq_f64(a1, vld1q_f64(row + 2));
    }
    vst1q_f64(acc, a0);
    vst1q_f64(acc + 2, a1);
}

void
accumRows8Neon(const double *rows, const uint8_t *stored,
               uint64_t word, unsigned lo, unsigned hi, double *acc)
{
    float64x2_t a0 = vld1q_f64(acc);
    float64x2_t a1 = vld1q_f64(acc + 2);
    float64x2_t a2 = vld1q_f64(acc + 4);
    float64x2_t a3 = vld1q_f64(acc + 6);
    uint64_t w = word >> (2 * lo);
    for (unsigned c = lo; c <= hi; ++c) {
        const auto sym = static_cast<unsigned>(w & 3);
        w >>= 2;
        const double *row = rows + (stored[c] * 4u + sym) * 8u;
        a0 = vaddq_f64(a0, vld1q_f64(row));
        a1 = vaddq_f64(a1, vld1q_f64(row + 2));
        a2 = vaddq_f64(a2, vld1q_f64(row + 4));
        a3 = vaddq_f64(a3, vld1q_f64(row + 6));
    }
    vst1q_f64(acc, a0);
    vst1q_f64(acc + 2, a1);
    vst1q_f64(acc + 4, a2);
    vst1q_f64(acc + 6, a3);
}

void
accumBlocks4Neon(const double *rows, const uint8_t *stored,
                 uint64_t word, const uint8_t *lo, const uint8_t *hi,
                 unsigned nblocks, double *acc)
{
    // Independent per-block accumulator pairs, added in ascending
    // cell order per block — bit-identical to accumRows4 per block.
    for (unsigned b = 0; b < nblocks; ++b)
        accumRows4Neon(rows, stored, word, lo[b], hi[b],
                       acc + 4 * b);
}

void
mapBlocksNeon(uint64_t word, const uint8_t *const *tables,
              const uint8_t *lo, const uint8_t *hi, unsigned nblocks,
              uint8_t *out)
{
    // Decode the word's symbols once; per-block table lookups land
    // in a staging buffer whose covered span is copied out.
    alignas(16) uint8_t tmp[32];
    const uint8x16_t s0 = symbolsHalf(word, 0);
    const uint8x16_t s1 = symbolsHalf(word, 1);
    for (unsigned b = 0; b < nblocks; ++b) {
        const uint8_t *map4 = tables[b];
        uint8x16_t lut = vdupq_n_u8(0);
        lut = vsetq_lane_u8(map4[0], lut, 0);
        lut = vsetq_lane_u8(map4[1], lut, 1);
        lut = vsetq_lane_u8(map4[2], lut, 2);
        lut = vsetq_lane_u8(map4[3], lut, 3);
        alignas(16) uint8_t st[32];
        vst1q_u8(st, vqtbl1q_u8(lut, s0));
        vst1q_u8(st + 16, vqtbl1q_u8(lut, s1));
        std::memcpy(tmp + lo[b], st + lo[b], hi[b] - lo[b] + 1);
    }
    const unsigned a = lo[0];
    const unsigned z = hi[nblocks - 1];
    std::memcpy(out + a, tmp + a, z - a + 1);
}

#if defined(__ARM_FEATURE_CRC32)
/** CRC-32 register update, one crc32x instruction per 8 bytes. */
uint32_t
crc32Neon(uint32_t reg, const uint8_t *p, std::size_t len)
{
    for (; len >= 8; p += 8, len -= 8) {
        uint64_t w;
        std::memcpy(&w, p, 8); // aarch64 Linux is little-endian
        reg = __crc32d(reg, w);
    }
    return reg; // len is a multiple of 16: nothing is left
}
#else
constexpr auto crc32Neon = detail::scalarCrc32;
#endif

// The census has no NEON kernel: it runs the scalar SWAR one.
constexpr Ops neonOps = {detail::scalarProgramCensus, mapSymbolsNeon,
                         accumRows4Neon, accumRows8Neon,
                         accumBlocks4Neon, mapBlocksNeon, crc32Neon};

} // namespace

const Ops *
neonOpsOrNull()
{
    return &neonOps;
}

} // namespace wlcrc::simd

#else // !__aarch64__

namespace wlcrc::simd
{

const Ops *
neonOpsOrNull()
{
    return nullptr;
}

} // namespace wlcrc::simd

#endif
