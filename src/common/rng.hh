/**
 * @file
 * Xoshiro256** pseudo-random generator plus small sampling helpers.
 *
 * All stochastic components of the simulator (workload synthesis,
 * disturbance sampling) draw from this generator so runs are fully
 * reproducible from a single seed.
 */

#ifndef WLCRC_COMMON_RNG_HH
#define WLCRC_COMMON_RNG_HH

#include <cstddef>
#include <cstdint>

namespace wlcrc
{

/**
 * Xoshiro256** generator (Blackman & Vigna). Deterministic across
 * platforms, unlike std::mt19937 + distributions, and fast enough for
 * hundreds of millions of draws per bench run.
 */
class Rng
{
  public:
    /** Seed via SplitMix64 expansion of @p seed. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** @return next uniform 64-bit value. Inline: workload
     *  synthesis draws several values per transaction. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /**
     * Fill @p out with the next @p n values: exactly n next() calls.
     * The state lives in locals for the loop, so a bulk draw does not
     * reload it through the (possibly aliasing) output pointer.
     */
    void
    nextN(uint64_t *out, std::size_t n)
    {
        uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = rotl(s1 * 5, 7) * 9;
            const uint64_t t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = rotl(s3, 45);
        }
        s_[0] = s0;
        s_[1] = s1;
        s_[2] = s2;
        s_[3] = s3;
    }

    /** @return uniform value in [0, bound). @p bound must be > 0. */
    uint64_t nextBelow(uint64_t bound);

    /** @return uniform double in [0, 1). */
    double nextDouble() { return (next() >> 11) * 0x1.0p-53; }

    /** @return true with probability @p p. */
    bool chance(double p) { return nextDouble() < p; }

    /** @return uniform value in [lo, hi] inclusive. */
    uint64_t
    range(uint64_t lo, uint64_t hi)
    {
        return lo + nextBelow(hi - lo + 1);
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];
};

/**
 * Deterministically derive the seed of shard @p shard from
 * @p parent (SplitMix64-style mixing). Sharded replays seed each
 * shard's generator with childSeed(run_seed, shard) so results are
 * reproducible regardless of how shards are scheduled onto threads.
 */
uint64_t childSeed(uint64_t parent, uint64_t shard);

} // namespace wlcrc

#endif // WLCRC_COMMON_RNG_HH
