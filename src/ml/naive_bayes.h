#ifndef NDE_ML_NAIVE_BAYES_H_
#define NDE_ML_NAIVE_BAYES_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/model.h"

namespace nde {

/// Gaussian naive Bayes classifier: per-class feature means and variances
/// with a small variance floor for numerical stability.
class GaussianNaiveBayes : public Classifier {
 public:
  /// `var_smoothing` is added to every per-class feature variance.
  explicit GaussianNaiveBayes(double var_smoothing = 1e-9);

  Status Fit(const MlDataset& data) override;
  Status FitWithClasses(const MlDataset& data, int num_classes) override;

  /// Fits straight off the parent rows, in view order: the same moment
  /// chains as FitWithClasses(view.Materialize(), num_classes), so the
  /// fitted model is bit-identical, minus the coalition copy. Keeps no
  /// reference to the view.
  Status FitView(const MlDatasetView& view, int num_classes) override;

  /// Gaussian NB supports exact incremental coalition scoring. Scorers keep
  /// sorted member lists (global and per class) and on each Add recompute
  /// only the pushed class's two moment passes, iterating members in sorted
  /// order — the same per-(class, feature) accumulation chains as a cold
  /// two-pass FitWithClasses on the sorted coalition — so Predict() is
  /// bit-identical to cold retraining, regardless of insertion order.
  /// `train` and `eval_features` must outlive the context.
  std::shared_ptr<const CoalitionScorerContext> NewCoalitionScorerContext(
      const MlDataset& train, const Matrix& eval_features, int num_classes,
      const CoalitionScorerOptions& options = {}) const override;

  std::vector<int> Predict(const Matrix& features) const override;
  Matrix PredictProba(const Matrix& features) const override;
  int num_classes() const override { return num_classes_; }
  std::unique_ptr<Classifier> Clone() const override;
  std::string name() const override { return "gaussian_nb"; }

 private:
  /// The two-pass moment fit shared by FitWithClasses and FitView; `rows`
  /// exposes MlDatasetView's size(), num_features(), NumClasses(),
  /// RowPtr(i) and label(i) over already-validated rows.
  template <typename Rows>
  Status FitRows(const Rows& rows, int num_classes);

  /// Scores `features` a block of rows at a time, calling
  /// `visit(first_row, num_rows, log_joint)` with log_joint[c * block + b]
  /// the log joint density of row first_row + b under class c.
  template <typename Visit>
  void ScoreRows(const Matrix& features, Visit&& visit) const;
  Matrix LogJoint(const Matrix& features) const;

  double var_smoothing_;
  Matrix means_;          // num_classes x d
  Matrix variances_;      // num_classes x d, floored
  Matrix log_variances_;  // num_classes x d, log of variances_
  std::vector<double> log_priors_;
  int num_classes_ = 0;
  bool fitted_ = false;
};

}  // namespace nde

#endif  // NDE_ML_NAIVE_BAYES_H_
