#pragma once
/// \file rng.hpp
/// \brief Deterministic pseudo-random number generation.
///
/// DQMC results must be reproducible run-to-run, and Alg. 3 needs an
/// independent stream per task, so we use xoshiro256** (public-domain
/// algorithm by Blackman & Vigna) with a splitmix64 seeder and a jump-free
/// "stream id" mix instead of relying on std::mt19937 state-size overhead.

#include <cstdint>

namespace fsi::util {

/// xoshiro256** generator.  Satisfies (a useful subset of)
/// UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed the generator.  Different (seed, stream) pairs give independent
  /// sequences; \p stream is used to derive per-rank / per-thread streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL,
               std::uint64_t stream = 0) noexcept {
    std::uint64_t x = seed ^ (0xbf58476d1ce4e5b9ULL * (stream + 1));
    for (auto& si : s_) si = splitmix64(x);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept { return (*this)() % n; }

  /// Random Ising spin: +1 or -1 with equal probability — the
  /// Hubbard-Stratonovich field values of the DQMC simulation.
  int spin() noexcept { return ((*this)() & 1u) ? 1 : -1; }

 private:
  static std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  static std::uint64_t rotl(std::uint64_t v, int k) noexcept {
    return (v << k) | (v >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace fsi::util
