#include "ml/dataset.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/string_util.h"

namespace nde {

int MlDataset::NumClasses() const {
  int max_label = -1;
  for (int label : labels) max_label = std::max(max_label, label);
  return max_label + 1;
}

MlDataset MlDataset::Subset(const std::vector<size_t>& indices) const {
  MlDataset out;
  out.features = features.SelectRows(indices);
  out.labels.reserve(indices.size());
  for (size_t i : indices) {
    NDE_CHECK_LT(i, labels.size());
    out.labels.push_back(labels[i]);
  }
  return out;
}

int MlDatasetView::NumClasses() const {
  int max_label = -1;
  for (size_t i = 0; i < size(); ++i) max_label = std::max(max_label, label(i));
  return max_label + 1;
}

Status MlDatasetView::Validate() const {
  for (size_t i = 0; i < size(); ++i) {
    if (label(i) < 0) {
      return Status::InvalidArgument(
          StrFormat("negative label %d at row %zu", label(i), i));
    }
  }
  return Status::OK();
}

MlDataset MlDatasetView::Materialize() const {
  MlDataset out;
  out.features = parent_->features.SelectRows(
      {indices_.begin(), indices_.end()});
  out.labels = CopyLabels();
  return out;
}

std::vector<int> MlDatasetView::CopyLabels() const {
  std::vector<int> labels;
  labels.reserve(size());
  for (size_t i = 0; i < size(); ++i) labels.push_back(label(i));
  return labels;
}

MlDataset MlDataset::Without(const std::vector<size_t>& excluded) const {
  std::unordered_set<size_t> skip(excluded.begin(), excluded.end());
  std::vector<size_t> keep;
  keep.reserve(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    if (skip.find(i) == skip.end()) keep.push_back(i);
  }
  return Subset(keep);
}

Status MlDataset::Validate() const {
  if (features.rows() != labels.size()) {
    return Status::InvalidArgument(
        StrFormat("feature rows %zu != label count %zu", features.rows(),
                  labels.size()));
  }
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] < 0) {
      return Status::InvalidArgument(
          StrFormat("negative label %d at row %zu", labels[i], i));
    }
  }
  return Status::OK();
}

MlDataset RegressionDataset::ToClassification(double threshold) const {
  MlDataset out;
  out.features = features;
  out.labels.reserve(targets.size());
  for (double t : targets) out.labels.push_back(t >= threshold ? 1 : 0);
  return out;
}

RegressionDataset RegressionDataset::Subset(
    const std::vector<size_t>& indices) const {
  RegressionDataset out;
  out.features = features.SelectRows(indices);
  out.targets.reserve(indices.size());
  for (size_t i : indices) {
    NDE_CHECK_LT(i, targets.size());
    out.targets.push_back(targets[i]);
  }
  return out;
}

SplitResult TrainTestSplit(const MlDataset& data, double test_fraction,
                           Rng* rng) {
  NDE_CHECK(rng != nullptr);
  NDE_CHECK_GT(test_fraction, 0.0);
  NDE_CHECK_LT(test_fraction, 1.0);
  NDE_CHECK_GT(data.size(), 0u);
  std::vector<size_t> perm = rng->Permutation(data.size());
  size_t test_count = std::max<size_t>(
      1, static_cast<size_t>(std::llround(test_fraction *
                                          static_cast<double>(data.size()))));
  test_count = std::min(test_count, data.size() - 1);
  SplitResult split;
  split.test_indices.assign(perm.begin(),
                            perm.begin() + static_cast<ptrdiff_t>(test_count));
  split.train_indices.assign(perm.begin() + static_cast<ptrdiff_t>(test_count),
                             perm.end());
  split.train = data.Subset(split.train_indices);
  split.test = data.Subset(split.test_indices);
  return split;
}

FeatureScaler FeatureScaler::Fit(const Matrix& features) {
  size_t n = features.rows();
  size_t d = features.cols();
  FeatureScaler scaler;
  scaler.mean.assign(d, 0.0);
  scaler.stddev.assign(d, 1.0);
  if (n == 0) return scaler;
  for (size_t r = 0; r < n; ++r) {
    const double* row = features.RowPtr(r);
    for (size_t c = 0; c < d; ++c) scaler.mean[c] += row[c];
  }
  for (double& m : scaler.mean) m /= static_cast<double>(n);
  std::vector<double> var(d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    const double* row = features.RowPtr(r);
    for (size_t c = 0; c < d; ++c) {
      double diff = row[c] - scaler.mean[c];
      var[c] += diff * diff;
    }
  }
  for (size_t c = 0; c < d; ++c) {
    double sd = std::sqrt(var[c] / static_cast<double>(n));
    scaler.stddev[c] = sd > 1e-12 ? sd : 1.0;
  }
  return scaler;
}

FeatureScaler FeatureScaler::Fit(const MlDatasetView& view) {
  size_t n = view.size();
  size_t d = view.num_features();
  FeatureScaler scaler;
  scaler.mean.assign(d, 0.0);
  scaler.stddev.assign(d, 1.0);
  if (n == 0) return scaler;
  for (size_t r = 0; r < n; ++r) {
    const double* row = view.RowPtr(r);
    for (size_t c = 0; c < d; ++c) scaler.mean[c] += row[c];
  }
  for (double& m : scaler.mean) m /= static_cast<double>(n);
  std::vector<double> var(d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    const double* row = view.RowPtr(r);
    for (size_t c = 0; c < d; ++c) {
      double diff = row[c] - scaler.mean[c];
      var[c] += diff * diff;
    }
  }
  for (size_t c = 0; c < d; ++c) {
    double sd = std::sqrt(var[c] / static_cast<double>(n));
    scaler.stddev[c] = sd > 1e-12 ? sd : 1.0;
  }
  return scaler;
}

Matrix FeatureScaler::Transform(const Matrix& features) const {
  NDE_CHECK_EQ(features.cols(), mean.size());
  Matrix out = features;
  for (size_t r = 0; r < out.rows(); ++r) {
    double* row = out.RowPtr(r);
    for (size_t c = 0; c < out.cols(); ++c) {
      row[c] = (row[c] - mean[c]) / stddev[c];
    }
  }
  return out;
}

}  // namespace nde
