#include "importance/knn_shapley.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>

#include "common/check.h"
#include "importance/waves.h"

namespace nde {

namespace {

/// Per-caller buffers of DistanceOrder, reused across query points.
struct OrderScratch {
  std::vector<double> dist;
  std::vector<uint64_t> keys;
  std::vector<uint32_t> spare;
};

/// Stable LSD radix sort of `order` by the 32-bit word `keys[i] >> shift`,
/// in 8-bit digits; a digit that is equal across all of `order` costs no
/// pass. `spare` must hold order.size() entries.
void RadixSortWord(std::span<uint32_t> order, const uint64_t* keys, int shift,
                   uint32_t* spare) {
  size_t n = order.size();
  if (n < 2) return;
  uint32_t counts[4][256] = {};
  for (uint32_t i : order) {
    auto word = static_cast<uint32_t>(keys[i] >> shift);
    for (int d = 0; d < 4; ++d) ++counts[d][(word >> (8 * d)) & 0xff];
  }
  uint32_t* from = order.data();
  uint32_t* to = spare;
  auto first_word = static_cast<uint32_t>(keys[from[0]] >> shift);
  for (int d = 0; d < 4; ++d) {
    uint32_t* count = counts[d];
    if (count[(first_word >> (8 * d)) & 0xff] == n) continue;
    uint32_t next = 0;
    for (uint32_t& c : std::span(count, 256)) {
      uint32_t here = c;
      c = next;
      next += here;
    }
    for (size_t j = 0; j < n; ++j) {
      uint32_t i = from[j];
      auto word = static_cast<uint32_t>(keys[i] >> shift);
      to[count[(word >> (8 * d)) & 0xff]++] = i;
    }
    std::swap(from, to);
  }
  if (from != order.data()) std::copy(from, from + n, order.data());
}

/// Writes to `order` the training rows sorted by squared distance to
/// `query`, ties by index, NaN distances last. `columns` is the training
/// feature matrix transposed (one row per feature).
///
/// Exact without a comparator: each distance is a sum of squares that
/// starts at +0.0 and adds the features in index order, the same chain as
/// a row-major loop, so it is never negative and never -0.0, and its
/// IEEE-754 bit pattern orders like its value (+inf included). A stable
/// radix sort of those patterns from index order is therefore the
/// (distance, index) order. It sorts by the high 32 bits, then refines each
/// run of equal high words by the low 32 bits.
void DistanceOrder(const Matrix& columns, std::span<const double> query,
                   OrderScratch* scratch, std::vector<uint32_t>* order) {
  size_t n = columns.cols();
  std::vector<double>& dist = scratch->dist;
  dist.assign(n, 0.0);
  for (size_t c = 0; c < columns.rows(); ++c) {
    const double* column = columns.RowPtr(c);
    double q = query[c];
    for (size_t i = 0; i < n; ++i) {
      double diff = column[i] - q;
      dist[i] += diff * diff;
    }
  }
  std::vector<uint64_t>& keys = scratch->keys;
  keys.resize(n);
  for (size_t i = 0; i < n; ++i) {
    // Every NaN, whatever its sign and payload, gets the one largest key.
    keys[i] = std::isnan(dist[i]) ? ~uint64_t{0}
                                  : std::bit_cast<uint64_t>(dist[i]);
  }
  order->resize(n);
  std::iota(order->begin(), order->end(), uint32_t{0});
  scratch->spare.resize(n);
  RadixSortWord(*order, keys.data(), 32, scratch->spare.data());

  // Short runs of equal high words insertion-sort (stable) by the low word;
  // long ones, e.g. from many distances within 2^-20 of each other, get a
  // second radix sort so the worst case stays linear.
  constexpr size_t kInsertionRun = 16;
  uint32_t* ids = order->data();
  for (size_t begin = 0; begin < n;) {
    uint64_t high = keys[ids[begin]] >> 32;
    size_t end = begin + 1;
    while (end < n && keys[ids[end]] >> 32 == high) ++end;
    if (end - begin > kInsertionRun) {
      RadixSortWord(std::span(ids + begin, end - begin), keys.data(), 0,
                    scratch->spare.data());
    } else {
      for (size_t j = begin + 1; j < end; ++j) {
        uint32_t id = ids[j];
        size_t slot = j;
        for (; slot > begin && keys[ids[slot - 1]] > keys[id]; --slot) {
          ids[slot] = ids[slot - 1];
        }
        ids[slot] = id;
      }
    }
    begin = end;
  }
}

}  // namespace

std::vector<uint32_t> KnnDistanceOrder(const Matrix& train_features,
                                       std::span<const double> query) {
  NDE_CHECK_LE(train_features.rows(), size_t{UINT32_MAX});
  OrderScratch scratch;
  std::vector<uint32_t> order;
  DistanceOrder(train_features.Transposed(), query, &scratch, &order);
  return order;
}

Result<std::vector<double>> KnnShapleyValues(const MlDataset& train,
                                             const MlDataset& validation,
                                             size_t k,
                                             const EstimatorOptions& options) {
  NDE_CHECK_GE(k, 1u);
  NDE_CHECK_GT(train.size(), 0u);
  NDE_CHECK_GT(validation.size(), 0u);
  NDE_CHECK_EQ(train.features.cols(), validation.features.cols());
  size_t n = train.size();
  NDE_CHECK_LE(n, size_t{UINT32_MAX});
  double kd = static_cast<double>(k);
  Matrix columns = train.features.Transposed();

  // Recurrence from Jia et al. (2019), Theorem 1, with the (1[i] - 1[next])
  // / k * min(k, rank) / rank term read off a table: the difference is
  // exactly -1, 0 or +1, and round-to-nearest commutes with negation, so
  // (1[i] - 1[next]) * weight[pos] is the same double (0 times a finite
  // weight is +0.0, and s[next] + 0.0 == s[next] since no s is -0.0).
  // Positions are 1-indexed in the paper; `pos` is 0-indexed.
  std::vector<double> weight(n);
  for (size_t pos = 0; pos < n; ++pos) {
    double rank = static_cast<double>(pos + 1);
    weight[pos] = 1.0 / kd * std::min(kd, rank) / rank;
  }

  // Validation points are independent; process them as fixed 8-point chunks
  // with one partial sum per chunk, folded in chunk order, so the result is
  // bit-identical for any thread count. Chunks run in fixed 8-chunk waves so
  // progress and cancellation happen at deterministic boundaries; a driver
  // slot holds a chunk's buffers until its wave is folded.
  constexpr size_t kChunkPoints = 8;
  constexpr size_t kWaveChunks = 8;
  size_t num_chunks = (validation.size() + kChunkPoints - 1) / kChunkPoints;
  struct Slot {
    std::vector<double> partial;
    std::vector<uint32_t> order;
    OrderScratch scratch;
  };
  std::vector<double> values(n, 0.0);
  WaveRun run = RunWaves<Slot>(
      {.tasks = num_chunks,
       .wave_size = kWaveChunks,
       .phase = "knn_shapley",
       .label = "knn_shapley",
       .alloc_phase = "knn_shapley_wave"},
      options, Slot{},
      [&](size_t chunk, Slot& slot) -> Status {
        std::vector<double>& partial = slot.partial;
        partial.assign(n, 0.0);
        size_t begin = chunk * kChunkPoints;
        size_t end = std::min(begin + kChunkPoints, validation.size());
        for (size_t v = begin; v < end; ++v) {
          DistanceOrder(columns, validation.features.RowSpan(v), &slot.scratch,
                        &slot.order);
          const uint32_t* order = slot.order.data();
          int y = validation.labels[v];
          // Each row gets exactly one s per validation point, so adding it
          // to the partial as it is computed keeps the per-row sum order.
          uint32_t next = order[n - 1];
          double indicator_next = train.labels[next] == y ? 1.0 : 0.0;
          double s_next = indicator_next / static_cast<double>(n);
          partial[next] += s_next;
          for (size_t pos = n - 1; pos-- > 0;) {
            uint32_t i = order[pos];
            double indicator_i = train.labels[i] == y ? 1.0 : 0.0;
            s_next += (indicator_i - indicator_next) * weight[pos];
            indicator_next = indicator_i;
            partial[i] += s_next;
          }
        }
        return Status::OK();
      },
      [&](size_t, size_t wave_end, std::span<const Slot> slots,
          ProgressUpdate* update) {
        for (const Slot& slot : slots) {
          for (size_t i = 0; i < n; ++i) values[i] += slot.partial[i];
        }
        if (update != nullptr) {
          update->completed =
              std::min(wave_end * kChunkPoints, validation.size());
          update->total = validation.size();
          // Closed-form estimator: no utility evaluations, no error estimate.
        }
        return false;
      });
  // The closed form has no partial result: any abort is the call's Status.
  if (run.aborted) return run.abort_cause;
  double inv_m = 1.0 / static_cast<double>(validation.size());
  for (double& value : values) value *= inv_m;
  return values;
}

SoftKnnUtility::SoftKnnUtility(MlDataset train, MlDataset validation, size_t k)
    : train_(std::move(train)), validation_(std::move(validation)), k_(k) {
  NDE_CHECK_GE(k, 1u);
  NDE_CHECK_LE(train_.size(), size_t{UINT32_MAX});
  Matrix columns = train_.features.Transposed();
  OrderScratch scratch;
  distance_order_.resize(validation_.size());
  for (size_t v = 0; v < validation_.size(); ++v) {
    DistanceOrder(columns, validation_.features.RowSpan(v), &scratch,
                  &distance_order_[v]);
  }
}

namespace {

/// Reusable membership marks: stamp[i] == epoch says i is in the current
/// subset, and bumping the epoch invalidates every mark from the previous
/// call without clearing (or reallocating) the vector. One instance per
/// thread keeps Evaluate allocation-free and safe under the parallel
/// estimators, which call it concurrently.
struct EpochMembership {
  std::vector<uint64_t> stamp;
  uint64_t epoch = 0;
};

}  // namespace

double SoftKnnUtility::Evaluate(const std::vector<size_t>& subset) const {
  if (subset.empty() || validation_.size() == 0) return 0.0;
  static thread_local EpochMembership members;
  if (members.stamp.size() < train_.size()) {
    members.stamp.assign(train_.size(), 0);
    members.epoch = 0;
  }
  uint64_t epoch = ++members.epoch;
  for (size_t i : subset) members.stamp[i] = epoch;
  double total = 0.0;
  for (size_t v = 0; v < validation_.size(); ++v) {
    int y = validation_.labels[v];
    size_t taken = 0;
    double hits = 0.0;
    for (uint32_t idx : distance_order_[v]) {
      if (members.stamp[idx] != epoch) continue;
      if (train_.labels[idx] == y) hits += 1.0;
      if (++taken >= k_) break;
    }
    total += hits / static_cast<double>(k_);
  }
  return total / static_cast<double>(validation_.size());
}

}  // namespace nde
