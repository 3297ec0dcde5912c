#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "ml/logistic_regression.h"  // SoftmaxRowsInPlace

namespace nde {

namespace {

constexpr double kLogTwoPi = 1.8378770664093454835606594728112;

/// Rows scored together by ScoreBlock.
constexpr size_t kRowBlock = 8;

/// A whole dataset seen through the row interface FitRows reads (the one
/// MlDatasetView has).
struct DatasetRows {
  const MlDataset& data;
  size_t size() const { return data.size(); }
  size_t num_features() const { return data.num_features(); }
  int NumClasses() const { return data.NumClasses(); }
  const double* RowPtr(size_t i) const { return data.features.RowPtr(i); }
  int label(size_t i) const { return data.labels[i]; }
};

/// Fitted parameters as flat class-major C x d arrays.
struct NbParams {
  const double* means;
  const double* vars;      ///< Floored.
  const double* log_vars;  ///< log of vars.
  const double* log_priors;
  size_t classes;
  size_t d;
};

/// Copies rows [first, first + kRowBlock) of `features` into `xt`
/// feature-major (xt[j * kRowBlock + b]). A short last block repeats its
/// first row in the spare lanes, which are scored and then ignored.
void TransposeBlock(const Matrix& features, size_t first, double* xt) {
  const size_t rows = std::min(kRowBlock, features.rows() - first);
  const size_t d = features.cols();
  for (size_t b = 0; b < kRowBlock; ++b) {
    const double* row = features.RowPtr(first + (b < rows ? b : 0));
    for (size_t j = 0; j < d; ++j) xt[j * kRowBlock + b] = row[j];
  }
}

/// Log joint density of each row of a transposed block under each class,
/// into log_joint[c * kRowBlock + b]. Each value is the chain
///   log_prior - 0.5 * (log 2pi + log var_j + diff_j^2 / var_j), j = 0..d-1,
/// in feature order, exactly as a row-at-a-time loop computes it; the
/// feature-major layout only makes the row loop contiguous, so it vectorizes.
void ScoreBlock(const double* xt, const NbParams& p, double* log_joint) {
  for (size_t c = 0; c < p.classes; ++c) {
    const double* mean = p.means + c * p.d;
    const double* var = p.vars + c * p.d;
    const double* log_var = p.log_vars + c * p.d;
    double acc[kRowBlock];
    std::fill(acc, acc + kRowBlock, p.log_priors[c]);
    for (size_t j = 0; j < p.d; ++j) {
      const double* x = xt + j * kRowBlock;
      const double mean_j = mean[j];
      const double var_j = var[j];
      const double log_var_j = log_var[j];
      for (size_t b = 0; b < kRowBlock; ++b) {
        double diff = x[b] - mean_j;
        acc[b] -= 0.5 * (kLogTwoPi + log_var_j + diff * diff / var_j);
      }
    }
    std::copy(acc, acc + kRowBlock, log_joint + c * kRowBlock);
  }
}

/// Predicted class of each row of a scored block: the first class with the
/// maximum log joint.
void ArgmaxBlock(const double* log_joint, size_t classes, size_t rows,
                 int* out) {
  for (size_t b = 0; b < rows; ++b) {
    int best = 0;
    double best_acc = log_joint[b];
    for (size_t c = 1; c < classes; ++c) {
      double acc = log_joint[c * kRowBlock + b];
      if (acc > best_acc) {
        best = static_cast<int>(c);
        best_acc = acc;
      }
    }
    out[b] = best;
  }
}

}  // namespace

GaussianNaiveBayes::GaussianNaiveBayes(double var_smoothing)
    : var_smoothing_(var_smoothing) {
  NDE_CHECK_GE(var_smoothing, 0.0);
}

Status GaussianNaiveBayes::Fit(const MlDataset& data) {
  return FitWithClasses(data, data.NumClasses());
}

Status GaussianNaiveBayes::FitWithClasses(const MlDataset& data,
                                          int num_classes) {
  NDE_RETURN_IF_ERROR(data.Validate());
  return FitRows(DatasetRows{data}, num_classes);
}

Status GaussianNaiveBayes::FitView(const MlDatasetView& view,
                                   int num_classes) {
  NDE_RETURN_IF_ERROR(view.Validate());
  return FitRows(view, num_classes);
}

template <typename Rows>
Status GaussianNaiveBayes::FitRows(const Rows& rows, int num_classes) {
  const size_t n = rows.size();
  if (n == 0) {
    return Status::InvalidArgument("cannot fit naive Bayes on empty data");
  }
  if (num_classes < rows.NumClasses()) {
    return Status::InvalidArgument("num_classes below max label");
  }
  num_classes_ = std::max(num_classes, 1);
  const size_t classes = static_cast<size_t>(num_classes_);
  const size_t d = rows.num_features();

  means_ = Matrix(classes, d);
  variances_ = Matrix(classes, d);
  std::vector<size_t> counts(classes, 0);
  double* means = means_.mutable_data().data();
  double* vars = variances_.mutable_data().data();

  for (size_t i = 0; i < n; ++i) {
    const size_t c = static_cast<size_t>(rows.label(i));
    ++counts[c];
    const double* row = rows.RowPtr(i);
    double* mean = means + c * d;
    for (size_t j = 0; j < d; ++j) mean[j] += row[j];
  }
  size_t present = 0;
  for (size_t c = 0; c < classes; ++c) {
    if (counts[c] == 0) continue;
    ++present;
    for (size_t j = 0; j < d; ++j) {
      means[c * d + j] /= static_cast<double>(counts[c]);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t c = static_cast<size_t>(rows.label(i));
    const double* row = rows.RowPtr(i);
    const double* mean = means + c * d;
    double* var = vars + c * d;
    for (size_t j = 0; j < d; ++j) {
      double diff = row[j] - mean[j];
      var[j] += diff * diff;
    }
  }
  // Global per-feature statistics: the fallback distribution for classes
  // absent from the training subset (a tiny prior times the global density,
  // instead of a degenerate spike at zero). Only absent classes read them,
  // so they are only computed when some class is absent.
  std::vector<double> global_mean;
  std::vector<double> global_var;
  if (present < classes) {
    global_mean.assign(d, 0.0);
    global_var.assign(d, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* row = rows.RowPtr(i);
      for (size_t j = 0; j < d; ++j) global_mean[j] += row[j];
    }
    for (size_t j = 0; j < d; ++j) global_mean[j] /= static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) {
      const double* row = rows.RowPtr(i);
      for (size_t j = 0; j < d; ++j) {
        double diff = row[j] - global_mean[j];
        global_var[j] += diff * diff;
      }
    }
    for (size_t j = 0; j < d; ++j) global_var[j] /= static_cast<double>(n);
  }

  double max_feature_var = 0.0;
  for (size_t c = 0; c < classes; ++c) {
    for (size_t j = 0; j < d; ++j) {
      if (counts[c] > 0) {
        vars[c * d + j] /= static_cast<double>(counts[c]);
      } else {
        means[c * d + j] = global_mean[j];
        vars[c * d + j] = global_var[j];
      }
      max_feature_var = std::max(max_feature_var, vars[c * d + j]);
    }
  }
  // The floored variances and their logs, once per (class, feature) here
  // instead of once per (scored row, class, feature) in LogJoint.
  double floor = var_smoothing_ * std::max(max_feature_var, 1.0) + 1e-12;
  log_variances_ = Matrix(classes, d);
  double* log_vars = log_variances_.mutable_data().data();
  for (size_t k = 0; k < classes * d; ++k) {
    vars[k] += floor;
    log_vars[k] = std::log(vars[k]);
  }

  log_priors_.assign(classes, 0.0);
  for (size_t c = 0; c < classes; ++c) {
    // Laplace-smoothed priors: classes absent from a subset get small but
    // non-zero prior instead of -inf.
    double prior = (static_cast<double>(counts[c]) + 1.0) /
                   (static_cast<double>(n) + num_classes_);
    log_priors_[c] = std::log(prior);
  }
  fitted_ = true;
  return Status::OK();
}

template <typename Visit>
void GaussianNaiveBayes::ScoreRows(const Matrix& features,
                                   Visit&& visit) const {
  NDE_CHECK(fitted_);
  NDE_CHECK_EQ(features.cols(), means_.cols());
  const NbParams params{means_.data().data(), variances_.data().data(),
                        log_variances_.data().data(), log_priors_.data(),
                        static_cast<size_t>(num_classes_), means_.cols()};
  std::vector<double> xt(params.d * kRowBlock);
  std::vector<double> log_joint(params.classes * kRowBlock);
  for (size_t first = 0; first < features.rows(); first += kRowBlock) {
    TransposeBlock(features, first, xt.data());
    ScoreBlock(xt.data(), params, log_joint.data());
    visit(first, std::min(kRowBlock, features.rows() - first),
          static_cast<const double*>(log_joint.data()));
  }
}

Matrix GaussianNaiveBayes::LogJoint(const Matrix& features) const {
  Matrix log_joint(features.rows(), static_cast<size_t>(num_classes_));
  ScoreRows(features, [&](size_t first, size_t rows, const double* block) {
    for (size_t b = 0; b < rows; ++b) {
      for (size_t c = 0; c < log_joint.cols(); ++c) {
        log_joint(first + b, c) = block[c * kRowBlock + b];
      }
    }
  });
  return log_joint;
}

std::vector<int> GaussianNaiveBayes::Predict(const Matrix& features) const {
  std::vector<int> out(features.rows());
  ScoreRows(features, [&](size_t first, size_t rows, const double* block) {
    ArgmaxBlock(block, static_cast<size_t>(num_classes_), rows, &out[first]);
  });
  return out;
}

Matrix GaussianNaiveBayes::PredictProba(const Matrix& features) const {
  Matrix log_joint = LogJoint(features);
  SoftmaxRowsInPlace(&log_joint);
  return log_joint;
}

std::unique_ptr<Classifier> GaussianNaiveBayes::Clone() const {
  return std::make_unique<GaussianNaiveBayes>(var_smoothing_);
}

// ---------------------------------------------------------------------------
// Incremental coalition scorer.
//
// Exactness argument (the cold fit sees the coalition sorted ascending, per
// the UtilityFunction subset convention): every per-(class, feature) sum in
// the cold two-pass fit accumulates the class's member rows in ascending
// parent-index order. The scorer keeps member lists sorted, so recomputing
// the pushed class's mean/variance passes over its sorted list replays the
// identical floating-point chain; untouched classes keep their previous —
// likewise identical — values. Global fallback statistics are maintained the
// same way, and only while some class is absent, exactly when the cold fit
// computes them. max_feature_var is a max over a fixed set
// (order-independent), and the floor, priors and LogJoint expressions are
// replicated operation for operation. This is deliberately NOT a
// Welford-style running update, which would change bits.
//
// Cost per Push: O(|class| * d) moment recompute plus O(m * C * d) scoring,
// versus the cold path's O(n * d) fit, O(n * d) coalition copy and a model
// allocation per prefix.
// ---------------------------------------------------------------------------

namespace {

/// Shifts the sorted prefix [0, count) up by one slot and inserts `value`.
void InsertSorted(uint32_t* arr, size_t count, uint32_t value) {
  size_t pos = count;
  while (pos > 0 && arr[pos - 1] > value) {
    arr[pos] = arr[pos - 1];
    --pos;
  }
  arr[pos] = value;
}

class NbCoalitionContext;

class NbCoalitionScorer final : public CoalitionScorer {
 public:
  NbCoalitionScorer(const NbCoalitionContext* context, Arena* arena);

  void Add(size_t train_index) override;
  const std::vector<int>& Predict() override;

 private:
  void RefreshDerived();

  const NbCoalitionContext* context_;
  size_t d_;
  int num_classes_;
  size_t capacity_;  ///< Training-set size; bounds every member list.
  // Flat buffers carved from one block (arena or owned_), doubles first:
  double* means_;           ///< C x d, valid rows only where counts_ > 0.
  double* vars_;            ///< C x d, unfloored.
  double* global_mean_;     ///< d, maintained only while a class is absent.
  double* global_var_;      ///< d, unfloored.
  double* log_priors_;      ///< C.
  double* var_cache_;       ///< C x d, floored (absent classes resolved).
  double* log_var_cache_;   ///< C x d, log of var_cache_.
  double* mean_cache_;      ///< C x d, absent classes resolved.
  double* log_joint_;       ///< C x kRowBlock ScoreBlock output.
  uint32_t* members_;       ///< Sorted coalition, num_members_ entries.
  uint32_t* class_members_; ///< C x capacity, sorted per class.
  uint32_t* counts_;        ///< C.
  size_t num_members_ = 0;
  int present_classes_ = 0;
  bool derived_dirty_ = false;
  std::vector<int> predictions_;
  std::vector<char> owned_;  ///< Backing block when no arena is given.
};

class NbCoalitionContext final : public CoalitionScorerContext {
 public:
  NbCoalitionContext(const MlDataset& train, const Matrix& eval_features,
                     int num_classes, double var_smoothing)
      : train_features_(&train.features),
        eval_features_(&eval_features),
        labels_(train.labels),
        num_classes_(num_classes),
        var_smoothing_(var_smoothing) {
    NDE_CHECK_LT(train.size(), std::numeric_limits<uint32_t>::max());
    NDE_CHECK_EQ(train.features.cols(), eval_features.cols());
    const size_t d = eval_features.cols();
    eval_blocks_.resize((eval_features.rows() + kRowBlock - 1) / kRowBlock *
                        d * kRowBlock);
    for (size_t first = 0; first < eval_features.rows(); first += kRowBlock) {
      TransposeBlock(eval_features, first, &eval_blocks_[first * d]);
    }
  }

  std::unique_ptr<CoalitionScorer> NewScorer(Arena* arena) const override {
    return std::make_unique<NbCoalitionScorer>(this, arena);
  }

  const Matrix& train_features() const { return *train_features_; }
  const Matrix& eval_features() const { return *eval_features_; }
  /// The eval rows from `first` (a multiple of kRowBlock) as one
  /// TransposeBlock block.
  const double* eval_block(size_t first) const {
    return eval_blocks_.data() + first * eval_features_->cols();
  }
  int label(size_t i) const { return labels_[i]; }
  size_t train_size() const { return labels_.size(); }
  int num_classes() const { return num_classes_; }
  double var_smoothing() const { return var_smoothing_; }

 private:
  const Matrix* train_features_;  ///< Borrowed; caller keeps it alive.
  const Matrix* eval_features_;   ///< Borrowed; caller keeps it alive.
  std::vector<double> eval_blocks_;  ///< eval_features_, TransposeBlock'ed.
  std::vector<int> labels_;
  int num_classes_;
  double var_smoothing_;
};

NbCoalitionScorer::NbCoalitionScorer(const NbCoalitionContext* context,
                                     Arena* arena)
    : context_(context),
      d_(context->train_features().cols()),
      num_classes_(context->num_classes()),
      capacity_(context->train_size()),
      predictions_(context->eval_features().rows(), 0) {
  const size_t classes = static_cast<size_t>(num_classes_);
  const size_t stats = classes * d_;
  const size_t doubles = 5 * stats + 2 * d_ + classes + classes * kRowBlock;
  const size_t uints = capacity_ + classes * capacity_ + classes;
  const size_t total = doubles * sizeof(double) + uints * sizeof(uint32_t);
  char* block;
  if (arena != nullptr) {
    block = static_cast<char*>(arena->Allocate(total, alignof(double)));
  } else {
    owned_.resize(total);
    block = owned_.data();
  }
  double* dbl = reinterpret_cast<double*>(block);
  means_ = dbl;
  vars_ = means_ + stats;
  global_mean_ = vars_ + stats;
  global_var_ = global_mean_ + d_;
  log_priors_ = global_var_ + d_;
  var_cache_ = log_priors_ + classes;
  log_var_cache_ = var_cache_ + stats;
  mean_cache_ = log_var_cache_ + stats;
  log_joint_ = mean_cache_ + stats;
  uint32_t* u32 =
      reinterpret_cast<uint32_t*>(log_joint_ + classes * kRowBlock);
  members_ = u32;
  class_members_ = members_ + capacity_;
  counts_ = class_members_ + classes * capacity_;
  std::fill(counts_, counts_ + classes, uint32_t{0});
}

void NbCoalitionScorer::Add(size_t train_index) {
  const uint32_t index32 = static_cast<uint32_t>(train_index);
  const size_t c = static_cast<size_t>(context_->label(train_index));
  InsertSorted(members_, num_members_, index32);
  ++num_members_;
  InsertSorted(class_members_ + c * capacity_, counts_[c], index32);
  if (++counts_[c] == 1) ++present_classes_;

  // Recompute the pushed class's moments over its sorted member list: the
  // same two passes, in the same order, as the cold fit restricted to this
  // class.
  const Matrix& train = context_->train_features();
  const uint32_t* members = class_members_ + c * capacity_;
  const size_t count = counts_[c];
  double* mean = means_ + c * d_;
  double* var = vars_ + c * d_;
  std::fill(mean, mean + d_, 0.0);
  std::fill(var, var + d_, 0.0);
  for (size_t k = 0; k < count; ++k) {
    const double* row = train.RowPtr(members[k]);
    for (size_t j = 0; j < d_; ++j) mean[j] += row[j];
  }
  for (size_t j = 0; j < d_; ++j) mean[j] /= static_cast<double>(count);
  for (size_t k = 0; k < count; ++k) {
    const double* row = train.RowPtr(members[k]);
    for (size_t j = 0; j < d_; ++j) {
      double diff = row[j] - mean[j];
      var[j] += diff * diff;
    }
  }
  for (size_t j = 0; j < d_; ++j) var[j] /= static_cast<double>(count);

  // Global fallback moments: like the cold fit, only while some class is
  // absent.
  if (present_classes_ < num_classes_) {
    std::fill(global_mean_, global_mean_ + d_, 0.0);
    std::fill(global_var_, global_var_ + d_, 0.0);
    for (size_t k = 0; k < num_members_; ++k) {
      const double* row = train.RowPtr(members_[k]);
      for (size_t j = 0; j < d_; ++j) global_mean_[j] += row[j];
    }
    for (size_t j = 0; j < d_; ++j) {
      global_mean_[j] /= static_cast<double>(num_members_);
    }
    for (size_t k = 0; k < num_members_; ++k) {
      const double* row = train.RowPtr(members_[k]);
      for (size_t j = 0; j < d_; ++j) {
        double diff = row[j] - global_mean_[j];
        global_var_[j] += diff * diff;
      }
    }
    for (size_t j = 0; j < d_; ++j) {
      global_var_[j] /= static_cast<double>(num_members_);
    }
  }
  derived_dirty_ = true;
}

void NbCoalitionScorer::RefreshDerived() {
  const size_t classes = static_cast<size_t>(num_classes_);
  // max over a fixed set of variances: order-independent, so one flat pass
  // yields the cold fit's value.
  double max_feature_var = 0.0;
  for (size_t c = 0; c < classes; ++c) {
    const double* var = counts_[c] > 0 ? vars_ + c * d_ : global_var_;
    for (size_t j = 0; j < d_; ++j) {
      max_feature_var = std::max(max_feature_var, var[j]);
    }
  }
  const double floor =
      context_->var_smoothing() * std::max(max_feature_var, 1.0) + 1e-12;
  // Floored variances and their logs, one per (class, feature) per Push:
  // the same doubles the cold fit caches.
  for (size_t c = 0; c < classes; ++c) {
    const bool present = counts_[c] > 0;
    const double* var = present ? vars_ + c * d_ : global_var_;
    const double* mean = present ? means_ + c * d_ : global_mean_;
    for (size_t j = 0; j < d_; ++j) {
      const double floored = var[j] + floor;
      var_cache_[c * d_ + j] = floored;
      log_var_cache_[c * d_ + j] = std::log(floored);
      mean_cache_[c * d_ + j] = mean[j];
    }
  }
  for (size_t c = 0; c < classes; ++c) {
    double prior = (static_cast<double>(counts_[c]) + 1.0) /
                   (static_cast<double>(num_members_) + num_classes_);
    log_priors_[c] = std::log(prior);
  }
  derived_dirty_ = false;
}

const std::vector<int>& NbCoalitionScorer::Predict() {
  NDE_CHECK_GT(num_members_, 0u);
  if (derived_dirty_) RefreshDerived();
  // The cold Predict kernel over the context's pre-transposed eval blocks.
  const NbParams params{mean_cache_, var_cache_, log_var_cache_, log_priors_,
                        static_cast<size_t>(num_classes_), d_};
  const size_t m = predictions_.size();
  for (size_t first = 0; first < m; first += kRowBlock) {
    ScoreBlock(context_->eval_block(first), params, log_joint_);
    ArgmaxBlock(log_joint_, params.classes, std::min(kRowBlock, m - first),
                &predictions_[first]);
  }
  return predictions_;
}

}  // namespace

std::shared_ptr<const CoalitionScorerContext>
GaussianNaiveBayes::NewCoalitionScorerContext(
    const MlDataset& train, const Matrix& eval_features, int num_classes,
    const CoalitionScorerOptions& options) const {
  (void)options;  // One exact kernel; float32 does not apply to NB.
  if (train.size() == 0 || eval_features.rows() == 0) return nullptr;
  if (num_classes < train.NumClasses()) num_classes = train.NumClasses();
  return std::make_shared<NbCoalitionContext>(
      train, eval_features, std::max(num_classes, 1), var_smoothing_);
}

}  // namespace nde
