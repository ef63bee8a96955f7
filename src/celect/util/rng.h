// Deterministic, seedable pseudo-random number generation.
//
// The simulator must be reproducible across platforms and standard-library
// versions, so we implement our own generators instead of relying on
// std::mt19937 + std::uniform_int_distribution (whose output is not
// specified portably for distributions). xoshiro256** is the workhorse;
// splitmix64 seeds it and derives independent child streams.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace celect {

// SplitMix64: tiny, solid generator used for seeding and stream splitting.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256**: fast all-purpose 64-bit generator (Blackman & Vigna).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed'cafe'f00d'd00dULL);

  // Derives an independent child stream; children with distinct indices
  // from the same parent are statistically independent.
  Rng Split(std::uint64_t stream_index) const;

  std::uint64_t Next();

  // Uniform in [0, bound) without modulo bias. bound must be > 0.
  std::uint64_t NextBelow(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1) with 53 bits of entropy.
  double NextDouble();

  // Uniform double in (0, 1]: never returns zero (link delays are positive).
  double NextPositiveDouble();

  // Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextBelow(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // A random permutation of {0, 1, ..., n-1}.
  std::vector<std::uint32_t> Permutation(std::uint32_t n);

  // UniformRandomBitGenerator interface (for interop with <algorithm>).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return Next(); }

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace celect
