#include "common/rng.h"

#include <cmath>
#include <unordered_set>

namespace nde {

namespace internal {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace internal

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

}  // namespace

void Rng::Reseed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = internal::SplitMix64(&sm);
  has_cached_gaussian_ = false;
  cached_gaussian_ = 0.0;
#ifndef NDEBUG
  owner_ = std::this_thread::get_id();
#endif
}

double Rng::NextDouble() {
  // 53 top bits -> uniform double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  NDE_CHECK_GT(bound, 0u);
  // Rejection sampling over the largest multiple of `bound` below 2^64.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  NDE_CHECK_LE(lo, hi);
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextUint64());  // Full range.
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextUniform(double lo, double hi) {
  NDE_CHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  // The cached branch returns without touching NextUint64, so the ownership
  // invariant must be re-checked here.
  NDE_DCHECK(owner_ == std::this_thread::get_id())
      << "Rng drawn from a thread other than its owner; Rng is "
         "single-thread-owned — derive per-task streams via SeedSequence";
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  // Avoid log(0).
  while (u1 <= 0.0) u1 = NextDouble();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double theta = kTwoPi * u2;
  cached_gaussian_ = radius * std::sin(theta);
  has_cached_gaussian_ = true;
  return radius * std::cos(theta);
}

size_t Rng::NextCategorical(const std::vector<double>& weights) {
  NDE_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    NDE_CHECK_GE(w, 0.0);
    total += w;
  }
  NDE_CHECK_GT(total, 0.0);
  double target = NextDouble() * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (target < cumulative) return i;
  }
  return weights.size() - 1;  // Floating-point edge: return the last index.
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  NDE_CHECK_LE(k, n);
  if (k == 0) return {};
  if (k * 3 >= n) {
    // Partial Fisher-Yates.
    std::vector<size_t> pool(n);
    std::iota(pool.begin(), pool.end(), size_t{0});
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + static_cast<size_t>(NextBounded(n - i));
      std::swap(pool[i], pool[j]);
    }
    pool.resize(k);
    return pool;
  }
  // Floyd's algorithm: k iterations, no O(n) setup.
  std::unordered_set<size_t> chosen;
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t j = n - k; j < n; ++j) {
    size_t t = static_cast<size_t>(NextBounded(j + 1));
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace nde
