/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components (workload generators, the discrete-event
 * simulator, samplers) take an explicit Rng so experiments are exactly
 * reproducible from a seed. The generator is PCG32 (O'Neill 2014), chosen
 * for statistical quality, tiny state, and platform-independent output.
 */

#pragma once

#include <cstdint>

namespace accel {

/** PCG32 pseudo-random generator with a 64-bit state and stream. */
class Rng
{
  public:
    /** Seed the generator; distinct streams never collide. */
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        state_ = 0;
        inc_ = (stream << 1u) | 1u;
        next();
        state_ += seed;
        next();
    }

    /** Next 64 uniformly random bits (two next() words). */
    std::uint64_t
    next64()
    {
        std::uint64_t hi = next();
        return (hi << 32) | next();
    }

    /** Next 32 uniformly random bits. */
    std::uint32_t
    next()
    {
        std::uint64_t old = state_;
        state_ = old * 6364136223846793005ULL + inc_;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return next() * (1.0 / 4294967296.0);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /**
     * Uniform integer in [0, bound) without modulo bias.
     * A bound of 0 returns 0.
     */
    std::uint32_t
    below(std::uint32_t bound)
    {
        if (bound == 0)
            return 0;
        std::uint32_t threshold = (-bound) % bound;
        while (true) {
            std::uint32_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /**
     * Uniform 64-bit integer in [0, bound) without modulo bias
     * (Lemire's multiply-with-rejection over next64() words). A bound
     * of 0 returns 0. Streams longer than 2^32 — e.g. reservoir
     * sampling over multi-billion-event simulations — need the full
     * 64-bit range; a 32-bit draw would truncate and bias them.
     */
    std::uint64_t
    below64(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        unsigned __int128 m =
            static_cast<unsigned __int128>(next64()) * bound;
        auto low = static_cast<std::uint64_t>(m);
        if (low < bound) {
            std::uint64_t threshold = (-bound) % bound;
            while (low < threshold) {
                m = static_cast<unsigned __int128>(next64()) * bound;
                low = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Bernoulli draw with success probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Exponentially distributed double with the given mean (> 0). */
    double exponential(double mean);

    /** Standard normal via Box-Muller (no cached spare; stateless). */
    double gaussian();

    /** Log-normal with parameters of the underlying normal. */
    double logNormal(double mu, double sigma);

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

/**
 * Seed for slot @p slot of a slot-indexed draw sequence (offload i,
 * call i, replica i): a pure function of (seed, slot), decorrelated by
 * the splitmix64 finalizer, so what one slot draws cannot shift when
 * retries or scheduling change the order in which slots are drawn.
 */
inline std::uint64_t
slotSeed(std::uint64_t seed, std::uint64_t slot)
{
    auto mix = [](std::uint64_t x) {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    };
    return mix(seed ^ mix(slot + 1));
}

} // namespace accel
