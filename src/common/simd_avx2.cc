/**
 * @file
 * AVX2 implementations of the simd.hh kernels. This translation unit
 * is compiled with -mavx2 -mpopcnt -mpclmul on x86-64 (see
 * CMakeLists.txt) while the rest of the library stays at the
 * baseline ISA; dispatch guarantees the functions here only run on
 * CPUs reporting all three.
 *
 * Bit-identity: mapSymbolsAvx2/programCensusAvx2 and crc32Avx2 are
 * pure integer transforms; accumRows4/8 add the same doubles in the
 * same cell order as the scalar reference (vaddpd is four
 * independent per-lane adds), so every kernel reproduces the scalar
 * results exactly.
 */

#include "simd.hh"

#if defined(__AVX2__)

#include <cstring>
#include <immintrin.h>

namespace wlcrc::simd
{

namespace
{

/** Bit i = the top bit of byte i of the 64 bytes (lo, hi). */
inline uint64_t
byteSigns(__m256i lo, __m256i hi)
{
    const auto l = static_cast<uint32_t>(_mm256_movemask_epi8(lo));
    const auto h = static_cast<uint32_t>(_mm256_movemask_epi8(hi));
    return uint64_t{l} | (uint64_t{h} << 32);
}

void
programCensusAvx2(const uint8_t *stored, const uint8_t *target,
                  const uint64_t *auxWords, unsigned n, uint64_t *diff,
                  uint32_t counts[2][4])
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
        const __m256i b0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b));
        const __m256i b1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + 32));
        const uint64_t d = ~byteSigns(
            _mm256_cmpeq_epi8(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a)),
                b0),
            _mm256_cmpeq_epi8(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a + 32)),
                b1));
        diff[w] = d;
        if (!d)
            continue;
        // A 16-bit shift by 7 (6) moves bit 0 (1) of every byte to
        // that byte's top bit; bits shifted in from the byte below
        // never reach it.
        const uint64_t p0 = byteSigns(_mm256_slli_epi16(b0, 7),
                                      _mm256_slli_epi16(b1, 7));
        const uint64_t p1 = byteSigns(_mm256_slli_epi16(b0, 6),
                                      _mm256_slli_epi16(b1, 6));
        const uint64_t s[4] = {~p1 & ~p0, ~p1 & p0, p1 & ~p0, p1 & p0};
        const uint64_t side[2] = {d & ~auxWords[w], d & auxWords[w]};
        for (unsigned x = 0; x < 2; ++x)
            for (unsigned t = 0; t < 4; ++t)
                c[x][t] += static_cast<uint32_t>(
                    _mm_popcnt_u64(side[x] & s[t]));
    }
    std::memcpy(counts, c, sizeof c);
}

/** All 32 symbols of @p word as one byte-per-symbol vector (0..3). */
inline __m256i
symbolsOf(uint64_t word)
{
    // Replicate the word into every 128-bit lane, then spread byte
    // k of the word over symbol bytes 4k..4k+3 (lane-local pshufb).
    const __m256i w = _mm256_set1_epi64x(
        static_cast<long long>(word));
    const __m256i spread = _mm256_setr_epi8(
        0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, //
        4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7);
    const __m256i bytes = _mm256_shuffle_epi8(w, spread);
    // Symbol c needs bits {2(c%4), 2(c%4)+1} of its byte: shift each
    // byte right by 0/2/4/6 depending on c % 4, then mask to 2 bits.
    const __m256i sh0 = bytes;
    const __m256i sh2 = _mm256_srli_epi16(bytes, 2);
    const __m256i sh4 = _mm256_srli_epi16(bytes, 4);
    const __m256i sh6 = _mm256_srli_epi16(bytes, 6);
    const __m256i pick1 = _mm256_set1_epi32(0x0000ff00);
    const __m256i pick2 = _mm256_set1_epi32(0x00ff0000);
    const __m256i pick3 =
        _mm256_set1_epi32(static_cast<int>(0xff000000u));
    __m256i sym = _mm256_blendv_epi8(sh0, sh2, pick1);
    sym = _mm256_blendv_epi8(sym, sh4, pick2);
    sym = _mm256_blendv_epi8(sym, sh6, pick3);
    return _mm256_and_si256(sym, _mm256_set1_epi8(3));
}

void
mapSymbolsAvx2(uint64_t word, const uint8_t *map4, unsigned lo,
               unsigned hi, uint8_t *out)
{
    const __m256i sym = symbolsOf(word);
    // 4-entry state LUT replicated per lane; pshufb indexes it with
    // each symbol byte.
    const __m256i lut = _mm256_set1_epi32(
        static_cast<int>(uint32_t{map4[0]} | (uint32_t{map4[1]} << 8) |
                         (uint32_t{map4[2]} << 16) |
                         (uint32_t{map4[3]} << 24)));
    const __m256i states = _mm256_shuffle_epi8(lut, sym);
    if (lo == 0 && hi == 31) {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out), states);
        return;
    }
    alignas(32) uint8_t tmp[32];
    _mm256_store_si256(reinterpret_cast<__m256i *>(tmp), states);
    std::memcpy(out + lo, tmp + lo, hi - lo + 1);
}

void
accumRows4Avx2(const double *rows, const uint8_t *stored,
               uint64_t word, unsigned lo, unsigned hi, double *acc)
{
    __m256d a = _mm256_loadu_pd(acc);
    uint64_t w = word >> (2 * lo);
    for (unsigned c = lo; c <= hi; ++c) {
        const auto sym = static_cast<unsigned>(w & 3);
        w >>= 2;
        const double *row = rows + (stored[c] * 4u + sym) * 4u;
        a = _mm256_add_pd(a, _mm256_loadu_pd(row));
    }
    _mm256_storeu_pd(acc, a);
}

void
accumRows8Avx2(const double *rows, const uint8_t *stored,
               uint64_t word, unsigned lo, unsigned hi, double *acc)
{
    __m256d a0 = _mm256_loadu_pd(acc);
    __m256d a1 = _mm256_loadu_pd(acc + 4);
    uint64_t w = word >> (2 * lo);
    for (unsigned c = lo; c <= hi; ++c) {
        const auto sym = static_cast<unsigned>(w & 3);
        w >>= 2;
        const double *row = rows + (stored[c] * 4u + sym) * 8u;
        a0 = _mm256_add_pd(a0, _mm256_loadu_pd(row));
        a1 = _mm256_add_pd(a1, _mm256_loadu_pd(row + 4));
    }
    _mm256_storeu_pd(acc, a0);
    _mm256_storeu_pd(acc + 4, a1);
}

void
accumBlocks4Avx2(const double *rows, const uint8_t *stored,
                 uint64_t word, const uint8_t *lo, const uint8_t *hi,
                 unsigned nblocks, double *acc)
{
    // One accumulator register per block: the per-block chains are
    // independent, so out-of-order execution overlaps them while
    // each chain still adds its cells in ascending order — the
    // per-block sums are bit-identical to accumRows4 per block.
    __m256d a[8];
    for (unsigned b = 0; b < nblocks; ++b)
        a[b] = _mm256_loadu_pd(acc + 4 * b);
    for (unsigned b = 0; b < nblocks; ++b) {
        uint64_t w = word >> (2 * lo[b]);
        __m256d ab = a[b];
        for (unsigned c = lo[b]; c <= hi[b]; ++c) {
            const auto sym = static_cast<unsigned>(w & 3);
            w >>= 2;
            const double *row = rows + (stored[c] * 4u + sym) * 4u;
            ab = _mm256_add_pd(ab, _mm256_loadu_pd(row));
        }
        a[b] = ab;
    }
    for (unsigned b = 0; b < nblocks; ++b)
        _mm256_storeu_pd(acc + 4 * b, a[b]);
}

void
mapBlocksAvx2(uint64_t word, const uint8_t *const *tables,
              const uint8_t *lo, const uint8_t *hi, unsigned nblocks,
              uint8_t *out)
{
    // Decode the word's 32 symbols once, then blend each block's
    // LUT result into place by cell-range mask and copy out the
    // contiguous covered span.
    const __m256i sym = symbolsOf(word);
    const __m256i ramp = _mm256_setr_epi8(
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, //
        16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30,
        31);
    __m256i res = _mm256_setzero_si256();
    for (unsigned b = 0; b < nblocks; ++b) {
        const uint8_t *map4 = tables[b];
        const __m256i lut = _mm256_set1_epi32(static_cast<int>(
            uint32_t{map4[0]} | (uint32_t{map4[1]} << 8) |
            (uint32_t{map4[2]} << 16) | (uint32_t{map4[3]} << 24)));
        const __m256i states = _mm256_shuffle_epi8(lut, sym);
        // Exclude cells below lo[b] or above hi[b] (ramp values are
        // 0..31, so signed byte compares are safe).
        const __m256i below = _mm256_cmpgt_epi8(
            _mm256_set1_epi8(static_cast<char>(lo[b])), ramp);
        const __m256i above = _mm256_cmpgt_epi8(
            ramp, _mm256_set1_epi8(static_cast<char>(hi[b])));
        res = _mm256_blendv_epi8(states, res,
                                 _mm256_or_si256(below, above));
    }
    alignas(32) uint8_t tmp[32];
    _mm256_store_si256(reinterpret_cast<__m256i *>(tmp), res);
    const unsigned a = lo[0];
    const unsigned z = hi[nblocks - 1];
    const unsigned len = z - a + 1;
    if (len >= 16) {
        std::memcpy(out + a, tmp + a, 16);
        std::memcpy(out + z + 1 - 16, tmp + z + 1 - 16, 16);
    } else if (len >= 8) {
        std::memcpy(out + a, tmp + a, 8);
        std::memcpy(out + z + 1 - 8, tmp + z + 1 - 8, 8);
    } else {
        for (unsigned c = a; c <= z; ++c)
            out[c] = tmp[c];
    }
}

/**
 * One carry-less fold: the 128 bits of @p acc, multiplied forward
 * by the distance that @p k encodes (low qword times k.lo, high
 * qword times k.hi), added to @p next.
 */
inline __m128i
fold(__m128i acc, __m128i k, __m128i next)
{
    return _mm_xor_si128(
        _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                      _mm_clmulepi64_si128(acc, k, 0x11)),
        next);
}

/**
 * CRC-32 by PCLMULQDQ folding (Gopal et al., "Fast CRC Computation
 * for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009),
 * bit-reflected constants for 0xEDB88320. Four 128-bit accumulators
 * fold 64 bytes per step, then collapse into one, which folds the
 * remaining 16-byte blocks, shrinks to 64 and then 32 bits, and ends
 * in a Barrett reduction. The result equals the slice-by-8 loop's
 * register exactly: both compute the polynomial remainder.
 */
uint32_t
crc32Avx2(uint32_t reg, const uint8_t *p, std::size_t len)
{
    // x^(512+32) and x^(512-32) mod P: fold across 4 x 128 bits.
    const __m128i k1k2 =
        _mm_set_epi64x(0x01c6e41596ll, 0x0154442bd4ll);
    // x^(128+32) and x^(128-32) mod P: fold across 128 bits.
    const __m128i k3k4 =
        _mm_set_epi64x(0x00ccaa009ell, 0x01751997d0ll);
    // x^64 mod P: fold 64 bits down to 32.
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124ll);
    // Barrett: P' (x^32 + reflected P) and mu = floor(x^64 / P).
    const __m128i poly =
        _mm_set_epi64x(0x01f7011641ll, 0x01db710641ll);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    const auto load = [](const uint8_t *q) {
        return _mm_load_si128(reinterpret_cast<const __m128i *>(q));
    };
    __m128i x0 = _mm_xor_si128(
        load(p), _mm_cvtsi32_si128(static_cast<int>(reg)));
    __m128i x1 = load(p + 16);
    __m128i x2 = load(p + 32);
    __m128i x3 = load(p + 48);
    p += 64;
    len -= 64;
    for (; len >= 64; p += 64, len -= 64) {
        x0 = fold(x0, k1k2, load(p));
        x1 = fold(x1, k1k2, load(p + 16));
        x2 = fold(x2, k1k2, load(p + 32));
        x3 = fold(x3, k1k2, load(p + 48));
    }
    x0 = fold(x0, k3k4, x1);
    x0 = fold(x0, k3k4, x2);
    x0 = fold(x0, k3k4, x3);
    for (; len >= 16; p += 16, len -= 16)
        x0 = fold(x0, k3k4, load(p));

    // 128 -> 64 bits: the low qword times x^(128-32) mod P, added to
    // the high qword.
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(x0, k3k4, 0x10));
    // 64 -> 32 bits.
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                       _mm_clmulepi64_si128(
                           _mm_and_si128(x0, low32), k5, 0x00));
    // Barrett reduction to the 32-bit remainder.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly,
                                     0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    return static_cast<uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

constexpr Ops avx2Ops = {programCensusAvx2, mapSymbolsAvx2,
                         accumRows4Avx2, accumRows8Avx2,
                         accumBlocks4Avx2, mapBlocksAvx2, crc32Avx2};

} // namespace

const Ops *
avx2OpsOrNull()
{
    return &avx2Ops;
}

} // namespace wlcrc::simd

#else // !__AVX2__

namespace wlcrc::simd
{

const Ops *
avx2OpsOrNull()
{
    return nullptr;
}

} // namespace wlcrc::simd

#endif
