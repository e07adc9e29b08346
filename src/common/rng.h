/**
 * @file
 * Deterministic random number generation for the evolutionary search.
 *
 * All stochastic components take an explicit Rng so experiments are
 * reproducible from a seed recorded in the experiment logs.
 */

#ifndef SCAR_COMMON_RNG_H
#define SCAR_COMMON_RNG_H

#include <cstdint>
#include <random>

#include "common/error.h"

namespace scar
{

/**
 * Derives an independent stream seed from a base seed and a stream
 * index (splitmix64 finalizer). The search uses this to give every
 * window and segmentation pass its own deterministic RNG stream:
 * results do not depend on how much entropy a previously run stage
 * consumed.
 */
inline std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15uLL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9uLL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBuLL;
    return z ^ (z >> 31);
}

/** Seeded pseudo-random source wrapping std::mt19937_64. */
class Rng
{
  public:
    /** Constructs with an explicit seed (default fixed for repeatability). */
    explicit Rng(std::uint64_t seed = 0xC0FFEEuLL) : engine_(seed) {}

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    int
    uniformInt(int lo, int hi)
    {
        SCAR_ASSERT(lo <= hi, "uniformInt bounds inverted: ", lo, ">", hi);
        std::uniform_int_distribution<int> dist(lo, hi);
        return dist(engine_);
    }

    /** Uniform size_t index in [0, n). Requires n > 0. */
    std::size_t
    index(std::size_t n)
    {
        SCAR_ASSERT(n > 0, "index() needs non-empty range");
        std::uniform_int_distribution<std::size_t> dist(0, n - 1);
        return dist(engine_);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        return dist(engine_);
    }

    /** Bernoulli draw with probability p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /** Underlying engine, for std::shuffle. */
    std::mt19937_64& engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

} // namespace scar

#endif // SCAR_COMMON_RNG_H
