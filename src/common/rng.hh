/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * A small xorshift64* generator is used instead of <random> so that
 * workload inputs are bit-identical across platforms and library
 * versions; reproducibility of the synthetic benchmarks depends on it.
 */

#ifndef VPIR_COMMON_RNG_HH
#define VPIR_COMMON_RNG_HH

#include <cstdint>

namespace vpir
{

/** xorshift64* generator with splitmix-style seeding. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {
        // Scramble low-entropy seeds.
        next();
        next();
    }

    /**
     * Derive an independent stream seed from (seed, stream) with the
     * splitmix64 finalizer. Consumers that fan work out across
     * parallel units (e.g. one fuzz cell per sweep worker) seed each
     * unit with split(base, index) so the draws a unit makes depend
     * only on its index, never on worker count or execution order.
     */
    static uint64_t
    split(uint64_t seed, uint64_t stream)
    {
        return mix64(seed ^ mix64(stream + 0x9e3779b97f4a7c15ull));
    }

    /** Convenience: generator for stream @p stream of seed @p seed. */
    Rng(uint64_t seed, uint64_t stream) : Rng(split(seed, stream)) {}

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dull;
    }

    /** Uniform value in [0, bound). bound must be > 0. */
    uint64_t
    below(uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform value in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(below(
            static_cast<uint64_t>(hi - lo + 1)));
    }

    /** Bernoulli draw with probability num/den. */
    bool
    chance(uint64_t num, uint64_t den)
    {
        return below(den) < num;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    /** splitmix64 finalizer: a full-avalanche 64-bit mixing step. */
    static uint64_t
    mix64(uint64_t z)
    {
        z ^= z >> 30;
        z *= 0xbf58476d1ce4e5b9ull;
        z ^= z >> 27;
        z *= 0x94d049bb133111ebull;
        z ^= z >> 31;
        return z;
    }

    uint64_t state;
};

} // namespace vpir

#endif // VPIR_COMMON_RNG_HH
