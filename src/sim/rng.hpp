// Deterministic random number generation for workload synthesis.
//
// xoshiro256** seeded via SplitMix64. We do not use std::mt19937 /
// std::uniform_int_distribution because their outputs are not guaranteed
// identical across standard libraries, and experiment reproducibility across
// toolchains matters more than statistical sophistication here.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace orte::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_u64() % span);
  }

  /// True with probability p.
  bool chance(double p) { return next_double() < p; }

  /// Pick a uniformly random index in [0, n).
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(next_u64() % n);
  }

  /// Derive an independent child stream for `stream_id` WITHOUT advancing
  /// this generator: the child seed is a SplitMix64 finalization of the
  /// parent's current state mixed with the stream id (golden-ratio spread),
  /// so distinct stream ids yield decorrelated, collision-free streams.
  ///
  /// Determinism guarantee: fork() is a pure function of (parent state,
  /// stream_id). Two parents with identical state produce bit-identical
  /// children for the same id, regardless of when, in what order, or from
  /// which thread the forks happen — the property the fi campaign runner
  /// relies on to stay reproducible across worker-thread counts.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const {
    std::uint64_t z = state_[0] ^ rotl(state_[1], 13) ^ rotl(state_[2], 29) ^
                      rotl(state_[3], 43);
    z += (stream_id + 1) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return Rng(z ^ (z >> 31));
  }

  /// UUniFast: n utilization shares summing to `total` — the standard way to
  /// draw unbiased random task sets for schedulability experiments.
  std::vector<double> uunifast(std::size_t n, double total) {
    std::vector<double> u(n);
    double sum = total;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double next =
          sum * std::pow(next_double(), 1.0 / static_cast<double>(n - 1 - i));
      u[i] = sum - next;
      sum = next;
    }
    u[n - 1] = sum;
    return u;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace orte::sim
