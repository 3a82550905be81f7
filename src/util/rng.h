// Deterministic random number generation for simulation workloads.
//
// Every stochastic decision in the system (gossip partner choice, link loss,
// workload arrivals) draws from a DeterministicRng seeded by the experiment,
// so a given (seed, parameters) pair replays exactly.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "util/hash.h"

namespace nw::util {

// splitmix64-based generator. Small state, high quality for simulation use,
// and trivially forkable into independent streams.
class DeterministicRng {
 public:
  explicit DeterministicRng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
      : state_(seed) {}

  std::uint64_t NextU64() noexcept {
    state_ += 0x9e3779b97f4a7c15ull;
    return Mix64(state_);
  }

  // Uniform in [0, bound). bound must be > 0.
  std::uint64_t NextBelow(std::uint64_t bound) noexcept {
    assert(bound > 0);
    // Multiply-shift rejection-free mapping; bias is negligible for
    // simulation bounds (<< 2^64).
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(NextU64()) * bound) >> 64);
  }

  // Uniform double in [0, 1).
  double NextDouble() noexcept {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  bool NextBool(double p_true) noexcept { return NextDouble() < p_true; }

  // Exponentially distributed with the given mean (> 0).
  double NextExponential(double mean) noexcept {
    assert(mean > 0);
    double u = NextDouble();
    // Guard against log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  // Zipf-like rank selection over n items with exponent s (s=0 -> uniform).
  // Used for skewed subscription popularity.
  std::size_t NextZipf(std::size_t n, double s) {
    assert(n > 0);
    if (s <= 0.0) return static_cast<std::size_t>(NextBelow(n));
    // Inverse-CDF over precomputed weights would be heavy per call; use
    // rejection-free approximate inversion adequate for workload skew.
    double u = NextDouble();
    double h = 0.0;
    double total = 0.0;
    for (std::size_t i = 1; i <= n; ++i) total += 1.0 / std::pow(double(i), s);
    for (std::size_t i = 1; i <= n; ++i) {
      h += (1.0 / std::pow(double(i), s)) / total;
      if (u <= h) return i - 1;
    }
    return n - 1;
  }

  template <typename T>
  const T& Pick(std::span<const T> items) noexcept {
    assert(!items.empty());
    return items[NextBelow(items.size())];
  }

  template <typename T>
  const T& Pick(const std::vector<T>& items) noexcept {
    return Pick(std::span<const T>(items));
  }

  template <typename T>
  void Shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = NextBelow(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  // Derive an independent child stream (e.g. one per node).
  DeterministicRng Fork(std::uint64_t stream_id) noexcept {
    return DeterministicRng(HashCombine(state_, Mix64(stream_id)));
  }

 private:
  std::uint64_t state_;
};

}  // namespace nw::util
