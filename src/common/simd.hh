/**
 * @file
 * Runtime-dispatched SIMD kernels for the encode hot path and the
 * trace checksum.
 *
 * Three inner loops dominate LineCodec::encodeInto and the
 * differential write, and one dominates trace-block verification
 * (see docs/simd.md):
 *  - the differential-write census (which cells changed, and how
 *    many of them go to each target state),
 *  - per-candidate symbol mapping (2-bit symbols -> cell states),
 *  - cost-row candidate scoring (per-cell 4/8-lane double adds),
 *  - the CRC-32 of trace blocks, indexes and digests.
 *
 * Each loop is exposed here as a kernel in an Ops table with three
 * implementations: a scalar reference (always compiled, always the
 * ground truth), AVX2 (x86-64) and NEON (aarch64). Every vector
 * implementation is required to be *bit-identical* to the scalar
 * one — the accumulation kernels perform per-lane adds in the same
 * cell order, so IEEE-754 sums match exactly and the golden CSVs do
 * not depend on the dispatch choice. tests/simd_equivalence_test.cc
 * and tests/encode_fuzz_test.cc enforce this.
 *
 * Dispatch: the active kernel resolves lazily from $WLCRC_SIMD
 * ("auto" | "scalar" | "avx2" | "neon", default auto = best
 * available), or programmatically via setKernel() (wlcrc_sim --simd).
 * Unknown names and unavailable kernels fail loudly.
 */

#ifndef WLCRC_COMMON_SIMD_HH
#define WLCRC_COMMON_SIMD_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace wlcrc::simd
{

/** Kernel families, one per instruction set. */
enum class Kernel : uint8_t { Scalar = 0, Avx2 = 1, Neon = 2 };

/** Number of Kernel enumerators. */
inline constexpr unsigned numKernels = 3;

/**
 * The kernel function table. All pointers are always valid; the
 * scalar table is the reference implementation and the vector tables
 * must match it bit-for-bit.
 */
struct Ops
{
    /**
     * Differential-write census over one line of @p n cells.
     *
     * Difference mask: set bit i of @p diff (i < @p n) iff
     * stored[i] != target[i]. Writes exactly (n + 63) / 64 words;
     * bits past @p n in the last word are zero.
     *
     * Counts: counts[a][s] = the number of differing cells i with
     * target[i] == s whose aux bit (bit i % 64 of auxWords[i / 64])
     * is a. All eight counts are written. Every target byte must be
     * a cell state (0..3); @p auxWords holds (n + 63) / 64 words,
     * and its bits past @p n are ignored.
     */
    void (*programCensus)(const uint8_t *stored, const uint8_t *target,
                          const uint64_t *auxWords, unsigned n,
                          uint64_t *diff, uint32_t counts[2][4]);

    /**
     * Symbol mapping over one 64-bit word: for each cell c in
     * [@p lo, @p hi] (0 <= lo <= hi <= 31),
     *   out[c] = map4[(word >> (2 * c)) & 3].
     * Cells outside the range are not written.
     */
    void (*mapSymbols)(uint64_t word, const uint8_t *map4,
                       unsigned lo, unsigned hi, uint8_t *out);

    /**
     * 4-lane cost-row accumulation over one 64-bit word: for each
     * cell c ascending in [@p lo, @p hi] (0 <= lo <= hi <= 31),
     *   acc[m] += rows[(stored[c] * 4 + sym(c)) * 4 + m]  (m = 0..3)
     * where sym(c) = (word >> (2 * c)) & 3 and @p rows is a
     * [4 states][4 symbols][4 lanes] table. Adds are per-lane in
     * cell order, so sums are bit-identical across kernels.
     */
    void (*accumRows4)(const double *rows, const uint8_t *stored,
                       uint64_t word, unsigned lo, unsigned hi,
                       double *acc);

    /** 8-lane variant of accumRows4 (row stride 8, for 6cosets). */
    void (*accumRows8)(const double *rows, const uint8_t *stored,
                       uint64_t word, unsigned lo, unsigned hi,
                       double *acc);

    /**
     * Fused multi-block accumRows4 over one word: equivalent to
     *   for (b = 0; b < nblocks; ++b)
     *       accumRows4(rows, stored, word, lo[b], hi[b], acc + 4 * b)
     * in that exact order, so per-block sums stay bit-identical.
     * Blocks must be ascending and disjoint; nblocks <= 8, and all
     * 32 bytes of @p stored must be readable (vector kernels decode
     * the whole word's cells up front, whatever the block ranges).
     * One call scores every block of a word — the per-block
     * accumulator chains are independent, which is where the vector
     * kernels win.
     */
    void (*accumBlocks4)(const double *rows, const uint8_t *stored,
                         uint64_t word, const uint8_t *lo,
                         const uint8_t *hi, unsigned nblocks,
                         double *acc);

    /**
     * Fused multi-block symbol mapping over one word: for each block
     * b and each cell c in [lo[b], hi[b]],
     *   out[c] = tables[b][(word >> (2 * c)) & 3].
     * Blocks must be ascending and disjoint, and their union must be
     * the contiguous cell range [lo[0], hi[nblocks - 1]]; exactly
     * that range is written. Equivalent to nblocks mapSymbols calls
     * with per-block tables.
     */
    void (*mapBlocks)(uint64_t word, const uint8_t *const *tables,
                      const uint8_t *lo, const uint8_t *hi,
                      unsigned nblocks, uint8_t *out);

    /**
     * CRC-32 register update (IEEE 802.3, reflected polynomial
     * 0xEDB88320): @p reg advanced by the @p len bytes at @p data.
     * The register is the raw one, without the pre- and
     * post-inversion that wlcrc::crc32() applies. @p data is 16-byte
     * aligned and @p len is a multiple of 16, at least 64 — the
     * bulk that wlcrc::crc32() hands over; its head and tail go
     * through detail::scalarCrc32.
     */
    uint32_t (*crc32)(uint32_t reg, const uint8_t *data,
                      std::size_t len);
};

/**
 * Population count that never becomes a libgcc call. The baseline
 * build has no -mpopcnt, so std::popcount compiles to a call to
 * __popcountdi2; this SWAR form inlines to a dozen ALU ops. It is
 * not specialised per ISA (an inline function needs one definition
 * in every translation unit), so simd_avx2.cc calls popcnt itself.
 */
inline unsigned
popcount64(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) +
        ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
}

/** Display name ("scalar", "avx2", "neon"). */
const char *kernelName(Kernel k);

/** True iff @p k is compiled in and supported by this CPU. */
bool kernelAvailable(Kernel k);

/** The fastest available kernel (what "auto" resolves to). */
Kernel bestKernel();

/**
 * Parse "auto" / "scalar" / "avx2" / "neon" into the kernel it
 * selects ("auto" resolves to bestKernel()).
 * @throws std::invalid_argument for unknown names: a typo'd knob
 *         must fail the run loudly, not fall back silently.
 */
Kernel parseKernel(const std::string &text);

/**
 * Force the active kernel.
 * @throws std::invalid_argument if @p k is unavailable here.
 */
void setKernel(Kernel k);

/** parseKernel + setKernel in one call (CLI --simd plumbing). */
void setKernelFromText(const std::string &text);

/**
 * The active kernel: the last setKernel() choice, else $WLCRC_SIMD,
 * else bestKernel(). Resolved once and cached.
 */
Kernel activeKernel();

/** Ops table of a specific kernel (tests drive kernels directly).
 *  @throws std::invalid_argument if unavailable. */
const Ops &opsFor(Kernel k);

namespace detail
{
/** The scalar census (kernels without their own point at it). */
void scalarProgramCensus(const uint8_t *stored, const uint8_t *target,
                         const uint64_t *auxWords, unsigned n,
                         uint64_t *diff, uint32_t counts[2][4]);

/** The scalar slice-by-8 CRC-32 register update: the reference for
 *  Ops::crc32, valid at any length and alignment. */
uint32_t scalarCrc32(uint32_t reg, const uint8_t *data,
                     std::size_t len);

/** Active table; null until first resolution. */
extern std::atomic<const Ops *> activeOps;
const Ops &resolveActiveOps();
} // namespace detail

/** Ops table of activeKernel() — the hot-path entry point. */
inline const Ops &
ops()
{
    const Ops *t = detail::activeOps.load(std::memory_order_relaxed);
    return t ? *t : detail::resolveActiveOps();
}

} // namespace wlcrc::simd

#endif // WLCRC_COMMON_SIMD_HH
