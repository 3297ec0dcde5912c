#ifndef NDE_IMPORTANCE_KNN_SHAPLEY_H_
#define NDE_IMPORTANCE_KNN_SHAPLEY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "importance/estimator_options.h"
#include "importance/utility.h"
#include "linalg/matrix.h"
#include "ml/dataset.h"

namespace nde {

/// Exact Shapley values for the soft K-NN utility from one distance order
/// per validation point (Jia et al., "Efficient task-specific data valuation for
/// nearest neighbor algorithms", 2019) — the workhorse that makes
/// Shapley-based data debugging tractable (Figure 2's
/// `nde.knn_shapley_values`).
///
/// The underlying cooperative game is
///   v(S) = mean over validation points of
///          (1/K) * sum_{j=1}^{min(K,|S|)} 1[label of j-th nearest in S == y]
/// with v(empty) = 0. The returned values satisfy the efficiency axiom:
/// sum_i phi_i == v(full training set).
///
/// Ties in distance are broken by training index, matching
/// `KnnClassifier::Neighbors` (see KnnDistanceOrder). Each validation point
/// costs O(n d): the distances, a radix order and the O(n) recurrence.
/// Requires n < 2^32.
///
/// Validation points are scored in parallel (fixed 8-point chunks with
/// per-chunk partial sums folded in chunk order), so for any
/// `options.num_threads` the result is bit-identical; the closed form draws
/// no randomness, so `options.seed` is unused. The closed form has no
/// partial result, so a cancel (`options.cancel`, polled at 64-point wave
/// boundaries) or a worker fault returns its cause as the Status.
Result<std::vector<double>> KnnShapleyValues(
    const MlDataset& train, const MlDataset& validation, size_t k,
    const EstimatorOptions& options = {});

/// The neighbor order behind KnnShapleyValues and SoftKnnUtility: training
/// rows sorted by squared Euclidean distance to `query`, ties by index —
/// exactly std::sort's order under the (distance, index) comparator, found
/// by a radix sort of the distances' bit patterns. Rows at a NaN distance
/// come last, by index. Requires train_features.rows() < 2^32.
std::vector<uint32_t> KnnDistanceOrder(const Matrix& train_features,
                                       std::span<const double> query);

/// The same game as an explicit UtilityFunction, used to validate the closed
/// form against exact enumeration in tests and to plug the KNN proxy game
/// into the generic Monte-Carlo estimators.
class SoftKnnUtility : public UtilityFunction {
 public:
  SoftKnnUtility(MlDataset train, MlDataset validation, size_t k);

  double Evaluate(const std::vector<size_t>& subset) const override;
  size_t num_units() const override { return train_.size(); }

 private:
  MlDataset train_;
  MlDataset validation_;
  size_t k_;
  /// distance_order_[v] = training indices sorted by distance to validation
  /// point v (KnnDistanceOrder, precomputed once).
  std::vector<std::vector<uint32_t>> distance_order_;
};

}  // namespace nde

#endif  // NDE_IMPORTANCE_KNN_SHAPLEY_H_
