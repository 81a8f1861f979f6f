/**
 * @file
 * Deterministic random-number generation.
 *
 * Every stochastic decision in the simulator (random placement policy,
 * workload address streams, request mixes) draws from an explicitly
 * seeded Rng so that runs are exactly reproducible. The generator is
 * xoshiro256** seeded via SplitMix64, which is fast and has no
 * observable bias for our use.
 */

#ifndef HOS_SIM_RNG_HH
#define HOS_SIM_RNG_HH

#include <cmath>
#include <cstdint>

#include "sim/log.hh"

namespace hos::sim {

/** Deterministic xoshiro256** pseudo-random generator. */
class Rng
{
  public:
    /** Seed via SplitMix64 expansion of a single 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    // next/uniformInt/uniformDouble/chance sit on the workload inner
    // loop (every modelled access draws at least once), so they are
    // defined inline below the class.

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniformDouble();

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

    /**
     * chance(p) for 0 < p < 1 as an integer compare, for loops that
     * draw many times with one p: below(chanceThreshold(p)) consumes
     * the same draw and returns the same answer as chance(p). Exact:
     * a 53-bit draw x passes when x * 2^-53 < p, i.e. x < ceil(p * 2^53).
     */
    static std::uint64_t chanceThreshold(double p);
    bool below(std::uint64_t threshold) { return (next() >> 11) < threshold; }

    /**
     * Zipf-distributed rank in [0, n) with skew parameter s.
     * Used by workload models for skewed page popularity
     * (key-value stores, graph vertex degree skew).
     * Uses rejection-inversion (Jim Gray's approximation) — O(1) per draw.
     */
    std::uint64_t zipf(std::uint64_t n, double s);

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

inline std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;

    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);

    return result;
}

inline std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    hos_assert(bound > 0, "uniformInt bound must be positive");
    // Multiply-shift bounded rejection (Lemire); bias is eliminated by
    // rejecting the small sliver of values that would wrap.
    const std::uint64_t threshold = (-bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        const __uint128_t m = static_cast<__uint128_t>(r) * bound;
        if (static_cast<std::uint64_t>(m) >= threshold)
            return static_cast<std::uint64_t>(m >> 64);
    }
}

inline std::uint64_t
Rng::uniformRange(std::uint64_t lo, std::uint64_t hi)
{
    hos_assert(lo <= hi, "uniformRange lo > hi");
    return lo + uniformInt(hi - lo + 1);
}

inline double
Rng::uniformDouble()
{
    // 53 high-quality bits into the mantissa.
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

inline std::uint64_t
Rng::chanceThreshold(double p)
{
    hos_assert(p > 0.0 && p < 1.0, "chanceThreshold needs 0 < p < 1");
    return static_cast<std::uint64_t>(std::ceil(p * 9007199254740992.0));
}

inline bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniformDouble() < p;
}

/**
 * Derive an independent seed from a base seed and a stream index.
 *
 * A pure SplitMix64 mix with no shared state, so it is safe to call
 * concurrently from sweep worker threads, and the derived seed
 * depends only on (base, stream) — never on which thread or in what
 * order the points execute. Used for per-replica seeding in
 * core::Sweep; distinct streams give statistically independent Rng
 * sequences.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t stream);

/** Two-index variant (e.g. replica x VM). */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t s1,
                         std::uint64_t s2);

} // namespace hos::sim

#endif // HOS_SIM_RNG_HH
