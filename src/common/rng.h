#ifndef NDE_COMMON_RNG_H_
#define NDE_COMMON_RNG_H_

#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "common/check.h"

namespace nde {

namespace internal {

/// One splitmix64 step: advances `*state` and returns the next output. The
/// seeding primitive shared by Rng and SeedSequence (common/parallel.h).
uint64_t SplitMix64(uint64_t* state);

}  // namespace internal

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// splitmix64). Every stochastic component in the library draws from an
/// explicitly seeded `Rng`, so all experiments and tests are reproducible
/// bit-for-bit across runs and platforms.
///
/// Not cryptographically secure; not thread-safe. Each Rng is owned by one
/// thread at a time — the thread that constructed or last Reseed()-ed it —
/// and debug builds abort (NDE_DCHECK) on draws from any other thread.
/// Parallel code derives one Rng per task via `SeedSequence` instead of
/// sharing a generator.
class Rng {
 public:
  /// Seeds the generator. Identical seeds yield identical streams.
  explicit Rng(uint64_t seed) { Reseed(seed); }

  /// Re-seeds in place, restarting the stream. Also transfers debug-build
  /// thread ownership to the calling thread.
  void Reseed(uint64_t seed);

  /// Uniform 64-bit value. Inline: the samplers draw one per unit per
  /// coalition, so the call itself would otherwise dominate the draw.
  uint64_t NextUint64() {
    NDE_DCHECK(owner_ == std::this_thread::get_id())
        << "Rng drawn from a thread other than its owner; Rng is "
           "single-thread-owned — derive per-task streams via SeedSequence";
    // xoshiro256** by Blackman & Vigna (public domain reference
    // implementation).
    const uint64_t result = RotL(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = RotL(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses rejection sampling to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi). Precondition: lo <= hi.
  double NextUniform(double lo, double hi);

  /// Standard normal deviate (Box-Muller; consumes two uniforms per pair).
  double NextGaussian();

  /// Gaussian with the given mean and standard deviation (stddev >= 0).
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// Bernoulli trial with success probability p in [0, 1]. For p = 0.5 this
  /// is exactly "top bit of NextUint64() clear": (x >> 11) * 2^-53 < 0.5
  /// holds iff x < 2^63.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Draws an index in [0, weights.size()) with probability proportional to
  /// `weights[i]`. Precondition: weights non-empty, all non-negative, sum > 0.
  size_t NextCategorical(const std::vector<double>& weights);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    NDE_CHECK(items != nullptr);
    if (items->size() < 2) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Returns a uniformly random permutation of {0, ..., n-1}.
  std::vector<size_t> Permutation(size_t n) {
    std::vector<size_t> perm(n);
    std::iota(perm.begin(), perm.end(), size_t{0});
    Shuffle(&perm);
    return perm;
  }

  /// Samples `k` distinct indices from {0, ..., n-1} uniformly at random
  /// (Floyd's algorithm when k << n; partial shuffle otherwise). The returned
  /// order is unspecified. Precondition: k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  static uint64_t RotL(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
#ifndef NDEBUG
  std::thread::id owner_;  ///< Set by Reseed; draws NDE_DCHECK against it.
#endif
};

}  // namespace nde

#endif  // NDE_COMMON_RNG_H_
