#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/status.h"
#include "data/csv.h"
#include "datagen/synthetic.h"
#include "importance/fairness_debugging.h"
#include "importance/game_values.h"
#include "importance/influence.h"
#include "importance/knn_shapley.h"
#include "importance/label_scores.h"
#include "importance/subset_cache.h"
#include "importance/utility.h"
#include "importance/waves.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "nde/engine.h"
#include "nde/registry.h"
#include "proptest/check.h"
#include "proptest/gen.h"

namespace nde {
namespace {

/// A synthetic game defined by an arbitrary set function, for axiom tests.
class LambdaUtility : public UtilityFunction {
 public:
  LambdaUtility(size_t n, std::function<double(const std::vector<size_t>&)> fn)
      : n_(n), fn_(std::move(fn)) {}
  double Evaluate(const std::vector<size_t>& subset) const override {
    return fn_(subset);
  }
  size_t num_units() const override { return n_; }

 private:
  size_t n_;
  std::function<double(const std::vector<size_t>&)> fn_;
};

/// Additive game: v(S) = sum of per-unit worths. Shapley/Banzhaf/LOO must all
/// return exactly the worths.
LambdaUtility AdditiveGame(const std::vector<double>& worths) {
  return LambdaUtility(worths.size(),
                       [worths](const std::vector<size_t>& subset) {
                         double total = 0.0;
                         for (size_t i : subset) total += worths[i];
                         return total;
                       });
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  double mean_a = std::accumulate(a.begin(), a.end(), 0.0) / a.size();
  double mean_b = std::accumulate(b.begin(), b.end(), 0.0) / b.size();
  double cov = 0.0, var_a = 0.0, var_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - mean_a) * (b[i] - mean_b);
    var_a += (a[i] - mean_a) * (a[i] - mean_a);
    var_b += (b[i] - mean_b) * (b[i] - mean_b);
  }
  return cov / std::sqrt(var_a * var_b + 1e-300);
}

// --- LOO ------------------------------------------------------------------------

TEST(LeaveOneOutTest, ExactOnAdditiveGame) {
  LambdaUtility game = AdditiveGame({1.0, -2.0, 0.5});
  std::vector<double> values = LeaveOneOutValues(game).value();
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], -2.0, 1e-12);
  EXPECT_NEAR(values[2], 0.5, 1e-12);
}

TEST(LeaveOneOutTest, ZeroForDummyPlayer) {
  // Player 2 contributes nothing.
  LambdaUtility game(3, [](const std::vector<size_t>& subset) {
    double v = 0.0;
    for (size_t i : subset) {
      if (i != 2) v += 1.0;
    }
    return v;
  });
  std::vector<double> values = LeaveOneOutValues(game).value();
  EXPECT_NEAR(values[2], 0.0, 1e-12);
}

// --- Exact Shapley / Banzhaf ------------------------------------------------------

TEST(ExactShapleyTest, AdditiveGameGivesWorths) {
  LambdaUtility game = AdditiveGame({2.0, 3.0, -1.0, 0.0});
  std::vector<double> values = ExactShapleyValues(game).value();
  EXPECT_NEAR(values[0], 2.0, 1e-12);
  EXPECT_NEAR(values[1], 3.0, 1e-12);
  EXPECT_NEAR(values[2], -1.0, 1e-12);
  EXPECT_NEAR(values[3], 0.0, 1e-12);
}

TEST(ExactShapleyTest, EfficiencyAxiom) {
  // Non-additive game: v(S) = |S|^2.
  LambdaUtility game(5, [](const std::vector<size_t>& subset) {
    return static_cast<double>(subset.size() * subset.size());
  });
  std::vector<double> values = ExactShapleyValues(game).value();
  double total = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_NEAR(total, 25.0, 1e-9);  // v(N) - v(empty) = 25 - 0.
}

TEST(ExactShapleyTest, SymmetryAxiom) {
  // Players 0 and 1 are interchangeable.
  LambdaUtility game(4, [](const std::vector<size_t>& subset) {
    bool has0 = std::find(subset.begin(), subset.end(), 0u) != subset.end();
    bool has1 = std::find(subset.begin(), subset.end(), 1u) != subset.end();
    return (has0 ? 1.0 : 0.0) + (has1 ? 1.0 : 0.0) +
           (has0 && has1 ? 3.0 : 0.0);
  });
  std::vector<double> values = ExactShapleyValues(game).value();
  EXPECT_NEAR(values[0], values[1], 1e-12);
  EXPECT_NEAR(values[2], 0.0, 1e-12);
  EXPECT_NEAR(values[3], 0.0, 1e-12);
}

TEST(ExactShapleyTest, RejectsLargeGames) {
  LambdaUtility game(30, [](const std::vector<size_t>&) { return 0.0; });
  EXPECT_FALSE(ExactShapleyValues(game).ok());
}

TEST(ExactBanzhafTest, AdditiveGameGivesWorths) {
  LambdaUtility game = AdditiveGame({1.5, -0.5});
  std::vector<double> values = ExactBanzhafValues(game).value();
  EXPECT_NEAR(values[0], 1.5, 1e-12);
  EXPECT_NEAR(values[1], -0.5, 1e-12);
}

TEST(ExactBanzhafTest, MajorityGameHandChecked) {
  // 3-player majority game: v(S) = 1 iff |S| >= 2. Banzhaf value of each
  // player: swings = subsets of others with exactly 1 member = 2 of 4.
  LambdaUtility game(3, [](const std::vector<size_t>& subset) {
    return subset.size() >= 2 ? 1.0 : 0.0;
  });
  std::vector<double> values = ExactBanzhafValues(game).value();
  for (double v : values) EXPECT_NEAR(v, 0.5, 1e-12);
}

// --- Monte-Carlo estimators ---------------------------------------------------------

TEST(TmcShapleyTest, MatchesExactOnSmallGame) {
  LambdaUtility game(6, [](const std::vector<size_t>& subset) {
    double v = 0.0;
    for (size_t i : subset) v += static_cast<double>(i + 1);
    return std::sqrt(v);  // Non-additive.
  });
  std::vector<double> exact = ExactShapleyValues(game).value();
  TmcShapleyOptions options;
  options.num_permutations = 4000;
  options.truncation_tolerance = 0.0;  // Unbiased.
  ImportanceEstimate estimate = TmcShapleyValues(game, options).value();
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(estimate.values[i], exact[i], 0.02) << "unit " << i;
  }
}

TEST(TmcShapleyTest, EfficiencyHoldsPerPermutationWithoutTruncation) {
  LambdaUtility game(5, [](const std::vector<size_t>& subset) {
    return static_cast<double>(subset.size() * subset.size());
  });
  TmcShapleyOptions options;
  options.num_permutations = 10;
  options.truncation_tolerance = 0.0;
  ImportanceEstimate estimate = TmcShapleyValues(game, options).value();
  double total =
      std::accumulate(estimate.values.begin(), estimate.values.end(), 0.0);
  EXPECT_NEAR(total, 25.0, 1e-9);  // Telescoping sum is exact per permutation.
}

TEST(TmcShapleyTest, TruncationReducesEvaluations) {
  MlDataset data = MakeBlobs({});
  Rng rng(3);
  SplitResult split = TrainTestSplit(data, 0.5, &rng);
  MlDataset small_train = split.train.Subset({0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                              10, 11, 12, 13, 14, 15});
  auto factory = []() { return std::make_unique<KnnClassifier>(3); };
  TmcShapleyOptions no_trunc;
  no_trunc.num_permutations = 10;
  no_trunc.truncation_tolerance = 0.0;
  TmcShapleyOptions trunc = no_trunc;
  trunc.truncation_tolerance = 0.05;
  ModelAccuracyUtility u1(factory, small_train, split.test);
  ASSERT_TRUE(TmcShapleyValues(u1, no_trunc).ok());
  size_t full_evals = u1.num_evaluations();
  ModelAccuracyUtility u2(factory, small_train, split.test);
  ASSERT_TRUE(TmcShapleyValues(u2, trunc).ok());
  size_t truncated_evals = u2.num_evaluations();
  EXPECT_LT(truncated_evals, full_evals);
}

TEST(TmcShapleyTest, StdErrorsShrinkWithMorePermutations) {
  LambdaUtility game(6, [](const std::vector<size_t>& subset) {
    return subset.size() % 2 == 0 ? 0.0 : 1.0;  // High-variance marginals.
  });
  TmcShapleyOptions few;
  few.num_permutations = 50;
  few.truncation_tolerance = 0.0;
  TmcShapleyOptions many = few;
  many.num_permutations = 2000;
  double few_err = TmcShapleyValues(game, few).value().std_errors[0];
  double many_err = TmcShapleyValues(game, many).value().std_errors[0];
  EXPECT_LT(many_err, few_err);
}

TEST(BanzhafMsrTest, MatchesExactOnSmallGame) {
  LambdaUtility game(6, [](const std::vector<size_t>& subset) {
    double v = 0.0;
    for (size_t i : subset) v += static_cast<double>(i + 1);
    return v * v / 100.0;
  });
  std::vector<double> exact = ExactBanzhafValues(game).value();
  BanzhafOptions options;
  options.num_samples = 80000;
  ImportanceEstimate estimate = BanzhafValues(game, options).value();
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(estimate.values[i], exact[i], 0.02) << "unit " << i;
  }
}

// --- Beta Shapley --------------------------------------------------------------------

TEST(BetaShapleyTest, UnitParametersGiveUniformCardinalityWeights) {
  std::vector<double> weights = BetaShapleyCardinalityWeights(8, 1.0, 1.0);
  for (double w : weights) EXPECT_NEAR(w, 1.0 / 8.0, 1e-9);
}

TEST(BetaShapleyTest, LargeAlphaEmphasizesSmallCoalitions) {
  // Beta(16, 1) is the paper's noise-reduced recommendation: most of the
  // sampling mass sits on small coalitions.
  std::vector<double> weights = BetaShapleyCardinalityWeights(10, 16.0, 1.0);
  EXPECT_GT(weights.front(), weights.back());
  EXPECT_GT(weights[0], 0.2);
}

TEST(BetaShapleyTest, LargeBetaEmphasizesLargeCoalitions) {
  std::vector<double> weights = BetaShapleyCardinalityWeights(10, 1.0, 16.0);
  EXPECT_GT(weights.back(), weights.front());
}

TEST(BetaShapleyTest, Beta11MatchesExactShapley) {
  LambdaUtility game(5, [](const std::vector<size_t>& subset) {
    double v = 0.0;
    for (size_t i : subset) v += static_cast<double>(i + 1);
    return std::sqrt(v);
  });
  std::vector<double> exact = ExactShapleyValues(game).value();
  BetaShapleyOptions options;
  options.samples_per_unit = 4000;
  ImportanceEstimate estimate = BetaShapleyValues(game, options).value();
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(estimate.values[i], exact[i], 0.03) << "unit " << i;
  }
}

// --- KNN-Shapley ----------------------------------------------------------------------

TEST(KnnShapleyTest, MatchesExactEnumerationOfItsGame) {
  // Ground truth: exact Shapley values of the SoftKnnUtility game on a tiny
  // dataset, compared against the closed-form recurrence.
  BlobsOptions options;
  options.num_examples = 9;
  options.num_features = 3;
  options.seed = 5;
  MlDataset train = MakeBlobs(options);
  BlobsOptions val_options = options;
  val_options.num_examples = 6;
  val_options.seed = 6;
  MlDataset validation = MakeBlobs(val_options);

  for (size_t k : {1u, 3u}) {
    SoftKnnUtility game(train, validation, k);
    std::vector<double> exact = ExactShapleyValues(game).value();
    std::vector<double> closed_form =
        KnnShapleyValues(train, validation, k).value();
    ASSERT_EQ(exact.size(), closed_form.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_NEAR(closed_form[i], exact[i], 1e-9) << "k=" << k << " i=" << i;
    }
  }
}

TEST(KnnShapleyTest, EfficiencySumsToFullUtility) {
  MlDataset train = MakeBlobs({});
  BlobsOptions val_options;
  val_options.num_examples = 40;
  val_options.seed = 77;
  MlDataset validation = MakeBlobs(val_options);
  size_t k = 5;
  std::vector<double> values =
      KnnShapleyValues(train, validation, k).value();
  SoftKnnUtility game(train, validation, k);
  double total = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_NEAR(total, game.FullUtility(), 1e-9);
}

TEST(KnnShapleyTest, FlippedLabelsGetLowValues) {
  DatasetSplits splits = LoadRecommendationLetters(400, 11);
  MlDataset dirty = splits.train;
  Rng rng(13);
  std::vector<size_t> corrupted = InjectLabelErrors(&dirty, 0.1, &rng);
  std::vector<double> values =
      KnnShapleyValues(dirty, splits.valid, 5).value();

  double corrupted_mean = 0.0;
  double clean_mean = 0.0;
  std::unordered_set<size_t> bad(corrupted.begin(), corrupted.end());
  size_t clean_count = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (bad.count(i) > 0) {
      corrupted_mean += values[i];
    } else {
      clean_mean += values[i];
      ++clean_count;
    }
  }
  corrupted_mean /= static_cast<double>(corrupted.size());
  clean_mean /= static_cast<double>(clean_count);
  EXPECT_LT(corrupted_mean, clean_mean);
  EXPECT_LT(corrupted_mean, 0.0);
}

// --- Influence functions ----------------------------------------------------------------

TEST(InfluenceTest, ApproximatesExactRemovalEffects) {
  BlobsOptions options;
  options.num_examples = 60;
  options.num_features = 3;
  options.separation = 2.0;
  options.noise = 1.2;
  MlDataset data = MakeBlobs(options);
  Rng rng(17);
  SplitResult split = TrainTestSplit(data, 0.4, &rng);

  InfluenceOptions influence_options;
  influence_options.l2 = 0.05;  // Stronger convexity = better approximation.
  std::vector<double> approx =
      InfluenceOnValidationLoss(split.train, split.test, influence_options)
          .value();
  std::vector<double> exact =
      ExactRemovalLossChange(split.train, split.test, influence_options)
          .value();
  EXPECT_GT(PearsonCorrelation(approx, exact), 0.95);
}

TEST(InfluenceTest, FlippedLabelsGetNegativeInfluence) {
  DatasetSplits splits = LoadRecommendationLetters(300, 19);
  MlDataset dirty = splits.train;
  Rng rng(23);
  std::vector<size_t> corrupted = InjectLabelErrors(&dirty, 0.1, &rng);
  std::vector<double> values =
      InfluenceOnValidationLoss(dirty, splits.valid).value();
  double corrupted_mean = 0.0;
  for (size_t i : corrupted) corrupted_mean += values[i];
  corrupted_mean /= static_cast<double>(corrupted.size());
  double overall_mean =
      std::accumulate(values.begin(), values.end(), 0.0) / values.size();
  EXPECT_LT(corrupted_mean, overall_mean);
}

TEST(InfluenceTest, RejectsNonBinaryLabels) {
  BlobsOptions options;
  options.num_classes = 3;
  MlDataset data = MakeBlobs(options);
  EXPECT_FALSE(InfluenceOnValidationLoss(data, data).ok());
}

// --- Label scores -------------------------------------------------------------------------

TEST(AumScoresTest, FlippedLabelsGetLowMargins) {
  DatasetSplits splits = LoadRecommendationLetters(300, 29);
  MlDataset dirty = splits.train;
  Rng rng(31);
  std::vector<size_t> corrupted = InjectLabelErrors(&dirty, 0.1, &rng);
  std::vector<double> scores = AumScores(dirty).value();
  double corrupted_mean = 0.0;
  double clean_mean = 0.0;
  std::unordered_set<size_t> bad(corrupted.begin(), corrupted.end());
  size_t clean_count = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (bad.count(i) > 0) {
      corrupted_mean += scores[i];
    } else {
      clean_mean += scores[i];
      ++clean_count;
    }
  }
  corrupted_mean /= static_cast<double>(corrupted.size());
  clean_mean /= static_cast<double>(clean_count);
  EXPECT_LT(corrupted_mean, clean_mean);
}

TEST(SelfConfidenceTest, FlippedLabelsGetLowConfidence) {
  DatasetSplits splits = LoadRecommendationLetters(300, 37);
  MlDataset dirty = splits.train;
  Rng rng(41);
  std::vector<size_t> corrupted = InjectLabelErrors(&dirty, 0.1, &rng);
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  std::vector<double> scores = SelfConfidenceScores(factory, dirty).value();
  double corrupted_mean = 0.0;
  for (size_t i : corrupted) corrupted_mean += scores[i];
  corrupted_mean /= static_cast<double>(corrupted.size());
  double overall =
      std::accumulate(scores.begin(), scores.end(), 0.0) / scores.size();
  EXPECT_LT(corrupted_mean, overall);
}

TEST(SelfConfidenceTest, RejectsBadFoldConfig) {
  MlDataset data = MakeBlobs({});
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  SelfConfidenceOptions options;
  options.num_folds = 1;
  EXPECT_FALSE(SelfConfidenceScores(factory, data, options).ok());
}

TEST(ConfidentLearningTest, SuspectsAreBelowClassMean) {
  std::vector<double> confidence = {0.9, 0.2, 0.8, 0.3};
  std::vector<int> labels = {0, 0, 1, 1};
  std::vector<size_t> suspects = ConfidentLearningSuspects(confidence, labels);
  EXPECT_EQ(suspects, (std::vector<size_t>{1, 3}));
}

TEST(ConfidentLearningTest, CatchesInjectedFlipsWellAboveChance) {
  DatasetSplits splits = LoadRecommendationLetters(300, 43);
  MlDataset dirty = splits.train;
  Rng rng(47);
  std::vector<size_t> corrupted = InjectLabelErrors(&dirty, 0.1, &rng);
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  std::vector<double> scores = SelfConfidenceScores(factory, dirty).value();
  std::vector<size_t> suspects =
      ConfidentLearningSuspects(scores, dirty.labels);
  std::unordered_set<size_t> suspect_set(suspects.begin(), suspects.end());
  size_t caught = 0;
  for (size_t i : corrupted) {
    if (suspect_set.count(i) > 0) ++caught;
  }
  double recall = static_cast<double>(caught) / corrupted.size();
  EXPECT_GT(recall, 0.7);
}

// --- Fairness debugging (Gopher-style) -------------------------------------------------------

TEST(FairnessDebuggingTest, FindsPlantedBiasedGroup) {
  // Training rows of group "b" have most of their positive labels flipped to
  // negative; the protected attribute is visible as a feature, so the model
  // learns the bias and violates equalized odds on clean validation data.
  // Removing the pattern g=b should give the largest fairness improvement.
  Rng rng(59);
  auto make_dataset = [&rng](size_t n, bool biased,
                             std::vector<std::string>* group_values,
                             std::vector<int>* groups) {
    MlDataset data;
    data.features = Matrix(n, 3);
    data.labels.resize(n);
    for (size_t i = 0; i < n; ++i) {
      int group = rng.NextBernoulli(0.5) ? 1 : 0;
      int label = rng.NextBernoulli(0.5) ? 1 : 0;
      data.features(i, 0) = static_cast<double>(group);
      double direction = label == 1 ? 1.5 : -1.5;
      data.features(i, 1) = direction + 0.5 * rng.NextGaussian();
      data.features(i, 2) = direction + 0.5 * rng.NextGaussian();
      if (biased && group == 1 && label == 1 && rng.NextBernoulli(0.8)) {
        label = 0;  // Systematic label bias against group 1 ("b").
      }
      data.labels[i] = label;
      if (group_values != nullptr) {
        group_values->push_back(group == 1 ? "b" : "a");
      }
      if (groups != nullptr) groups->push_back(group);
    }
    return data;
  };

  std::vector<std::string> group_values;
  MlDataset train = make_dataset(240, /*biased=*/true, &group_values, nullptr);
  std::vector<int> val_groups;
  MlDataset validation =
      make_dataset(120, /*biased=*/false, nullptr, &val_groups);
  Table attributes = TableBuilder().AddStringColumn("g", group_values).Build();

  GopherOptions gopher;
  gopher.max_conditions = 1;
  gopher.top_k = 3;
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  std::vector<FairnessPattern> patterns =
      ExplainFairness(factory, train, attributes, validation, val_groups,
                      gopher)
          .value();
  ASSERT_FALSE(patterns.empty());
  EXPECT_EQ(patterns.front().conditions.front(), "g=b");
}

TEST(FairnessDebuggingTest, RejectsMisalignedInputs) {
  MlDataset train = MakeBlobs({});
  Table attributes = TableBuilder().AddStringColumn("g", {"a"}).Build();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  EXPECT_FALSE(
      ExplainFairness(factory, train, attributes, train, {}).ok());
}

// --- ModelAccuracyUtility -----------------------------------------------------------------

TEST(ModelAccuracyUtilityTest, EmptySubsetIsRandomGuess) {
  MlDataset data = MakeBlobs({});
  auto factory = []() { return std::make_unique<KnnClassifier>(3); };
  ModelAccuracyUtility utility(factory, data, data);
  EXPECT_NEAR(utility.EmptyUtility(), 0.5, 1e-12);
}

TEST(ModelAccuracyUtilityTest, FullUtilityIsTrainedAccuracy) {
  MlDataset data = MakeBlobs({});
  Rng rng(61);
  SplitResult split = TrainTestSplit(data, 0.3, &rng);
  auto factory = []() { return std::make_unique<KnnClassifier>(3); };
  ModelAccuracyUtility utility(factory, split.train, split.test);
  double direct = TrainAndScore(factory, split.train, split.test).value();
  EXPECT_NEAR(utility.FullUtility(), direct, 1e-12);
  EXPECT_GE(utility.num_evaluations(), 1u);
}

TEST(ModelAccuracyUtilityTest, ZeroCopyViewsMatchMaterializedSubsets) {
  // The FitView contract: identical doubles whether the coalition is
  // materialized or trained through the index view, for models with a real
  // FitView override (KNN, logreg) and for ones using the default.
  BlobsOptions options;
  options.num_examples = 20;
  options.num_features = 3;
  options.seed = 23;
  MlDataset train = MakeBlobs(options);
  BlobsOptions val_options = options;
  val_options.num_examples = 10;
  val_options.seed = 24;
  MlDataset validation = MakeBlobs(val_options);

  std::vector<ClassifierFactory> factories = {
      []() { return std::make_unique<KnnClassifier>(3); },
      []() {
        LogisticRegressionOptions lr;
        lr.epochs = 25;
        return std::make_unique<LogisticRegression>(lr);
      }};
  UtilityFastPathOptions slow;
  slow.zero_copy_views = false;

  Rng rng(71);
  for (const ClassifierFactory& factory : factories) {
    ModelAccuracyUtility with_views(factory, train, validation);
    ModelAccuracyUtility materialized(factory, train, validation, slow);
    for (size_t trial = 0; trial < 12; ++trial) {
      size_t size = 1 + rng.NextBounded(train.size() - 1);
      std::vector<size_t> picks = rng.SampleWithoutReplacement(train.size(), size);
      std::sort(picks.begin(), picks.end());
      EXPECT_EQ(with_views.Evaluate(picks), materialized.Evaluate(picks))
          << "trial " << trial;
    }
  }
}

TEST(ModelAccuracyUtilityTest, CacheCountsHitsAndKeepsValues) {
  BlobsOptions options;
  options.num_examples = 16;
  options.seed = 33;
  MlDataset train = MakeBlobs(options);
  options.num_examples = 8;
  options.seed = 34;
  MlDataset validation = MakeBlobs(options);

  auto factory = []() { return std::make_unique<KnnClassifier>(3); };
  UtilityFastPathOptions fast;
  fast.subset_cache = true;
  ModelAccuracyUtility utility(factory, train, validation, fast);

  BanzhafOptions estimator;
  estimator.num_samples = 64;
  estimator.seed = 3;
  ImportanceEstimate first = BanzhafValues(utility, estimator).value();
  ASSERT_NE(utility.subset_cache(), nullptr);
  SubsetCache::Stats cold = utility.subset_cache()->stats();
  EXPECT_GT(cold.misses, 0u);

  // Same seed, same game: the second run replays the same subsets, so every
  // evaluation (minus empty sets, which skip the cache) must hit.
  ImportanceEstimate second = BanzhafValues(utility, estimator).value();
  SubsetCache::Stats warm = utility.subset_cache()->stats();
  EXPECT_EQ(second.values, first.values);
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_GT(warm.hits, cold.hits);
  // Eval counts are game queries, not model trainings: both runs report the
  // same cost even though the second trained nothing.
  EXPECT_EQ(second.utility_evaluations, first.utility_evaluations);
}

// --- SubsetCache --------------------------------------------------------------------------

TEST(SubsetCacheTest, HitsAreOrderIndependent) {
  SubsetCache cache;
  size_t computes = 0;
  auto compute = [&computes] { return static_cast<double>(++computes); };
  EXPECT_EQ(cache.GetOrCompute({3, 1, 2}, compute), 1.0);
  EXPECT_EQ(cache.GetOrCompute({1, 2, 3}, compute), 1.0);
  EXPECT_EQ(cache.GetOrCompute({2, 3, 1}, compute), 1.0);
  EXPECT_EQ(computes, 1u);
  SubsetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SubsetCacheTest, EvictionBoundsSizeAndOnlyCostsRecomputation) {
  SubsetCacheOptions options;
  options.num_shards = 2;
  options.max_entries = 4;
  SubsetCache cache(options);
  auto value_of = [](const std::vector<size_t>& s) {
    return static_cast<double>(s[0] * 10);
  };
  for (size_t round = 0; round < 3; ++round) {
    for (size_t i = 0; i < 20; ++i) {
      std::vector<size_t> subset = {i};
      EXPECT_EQ(cache.GetOrCompute(subset, [&] { return value_of(subset); }),
                value_of(subset));
    }
  }
  SubsetCache::Stats stats = cache.stats();
  EXPECT_LE(stats.entries, 4u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(SubsetCacheTest, KeyViewProbeAgreesWithOwnedKeys) {
  // The hot lookup path probes the map with a non-owning SubsetKeyView
  // (precomputed hash, borrowed span) via C++20 transparent lookup. The view
  // must hash and compare exactly like the owned vector key it mirrors —
  // including against near-miss keys that share a hash, a size, or a prefix.
  std::vector<size_t> key = {1, 5, 9};
  SubsetKeyView view{key.data(), key.size(),
                     OrderIndependentSubsetHash{}(key)};
  EXPECT_EQ(SubsetKeyHash{}(view), SubsetKeyHash{}(key));
  EXPECT_TRUE(SubsetKeyEq{}(key, view));
  EXPECT_TRUE(SubsetKeyEq{}(view, key));

  // The commutative hash makes {9, 5, 1} collide with {1, 5, 9} by
  // construction; equality must still separate them (stored keys are
  // canonicalized, so a non-sorted stored key never occurs, but the
  // comparator must not rely on that).
  std::vector<size_t> permuted = {9, 5, 1};
  EXPECT_EQ(SubsetKeyHash{}(permuted), SubsetKeyHash{}(key));
  EXPECT_FALSE(SubsetKeyEq{}(permuted, view));

  std::vector<size_t> shorter = {1, 5};
  std::vector<size_t> same_size = {1, 5, 8};
  EXPECT_FALSE(SubsetKeyEq{}(shorter, view));
  EXPECT_FALSE(SubsetKeyEq{}(same_size, view));

  // End to end: a probe that misses must not plant a bad entry — the value
  // computed for {1, 5, 9} stays keyed to it alone.
  SubsetCache cache;
  EXPECT_EQ(cache.GetOrCompute({9, 5, 1}, [] { return 2.5; }), 2.5);
  EXPECT_EQ(cache.GetOrCompute({1, 5, 8}, [] { return 7.0; }), 7.0);
  EXPECT_EQ(cache.GetOrCompute({1, 5, 9}, [] { return -1.0; }), 2.5);
  SubsetCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
}

// --- SoftKnnUtility fast membership -------------------------------------------------------

/// Reference re-implementation of SoftKnnUtility::Evaluate as it was before
/// the epoch-stamped membership vector: per-call unordered_set, same
/// summation order, so results must match bit for bit.
double ReferenceSoftKnnEvaluate(const MlDataset& train,
                                const MlDataset& validation, size_t k,
                                const std::vector<size_t>& subset) {
  if (subset.empty() || validation.size() == 0) return 0.0;
  std::unordered_set<size_t> members(subset.begin(), subset.end());
  double total = 0.0;
  for (size_t v = 0; v < validation.size(); ++v) {
    // Distance order with the same (distance, index) tie-break.
    size_t n = train.size();
    std::vector<double> dist(n);
    for (size_t i = 0; i < n; ++i) {
      const double* row = train.features.RowPtr(i);
      const double* query = validation.features.RowPtr(v);
      double acc = 0.0;
      for (size_t c = 0; c < train.features.cols(); ++c) {
        double diff = row[c] - query[c];
        acc += diff * diff;
      }
      dist[i] = acc;
    }
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&dist](size_t a, size_t b) {
      if (dist[a] != dist[b]) return dist[a] < dist[b];
      return a < b;
    });
    int y = validation.labels[v];
    size_t taken = 0;
    double hits = 0.0;
    for (size_t idx : order) {
      if (members.find(idx) == members.end()) continue;
      if (train.labels[idx] == y) hits += 1.0;
      if (++taken >= k) break;
    }
    total += hits / static_cast<double>(k);
  }
  return total / static_cast<double>(validation.size());
}

TEST(KnnShapleyTest, SoftKnnEpochMembershipMatchesSetReference) {
  BlobsOptions options;
  options.num_examples = 18;
  options.num_features = 3;
  options.seed = 41;
  MlDataset train = MakeBlobs(options);
  options.num_examples = 7;
  options.seed = 42;
  MlDataset validation = MakeBlobs(options);

  for (size_t k : {1u, 3u, 5u}) {
    SoftKnnUtility game(train, validation, k);
    Rng rng(55);
    for (size_t trial = 0; trial < 25; ++trial) {
      size_t size = 1 + rng.NextBounded(train.size() - 1);
      std::vector<size_t> picks =
          rng.SampleWithoutReplacement(train.size(), size);
      std::sort(picks.begin(), picks.end());
      EXPECT_EQ(game.Evaluate(picks),
                ReferenceSoftKnnEvaluate(train, validation, k, picks))
          << "k=" << k << " trial=" << trial;
    }
    EXPECT_EQ(game.Evaluate({}), 0.0);
  }
}

// --- Fault injection: abort semantics ----------------------------------------

/// RAII disarm so injection never leaks into neighboring tests.
struct FailpointGuard {
  FailpointGuard() {
    failpoint::DisarmAll();
    failpoint::ResetStats();
  }
  ~FailpointGuard() {
    failpoint::DisarmAll();
    failpoint::ResetStats();
  }
};

TEST(LeaveOneOutTest, UtilityFaultSurfacesTypedError) {
  FailpointGuard guard;
  LambdaUtility game = AdditiveGame({1.0, 2.0, 3.0});
  EstimatorOptions options;
  options.num_threads = 1;
  // Hit 1 is the full-set evaluation; hit 2 (the first leave-one-out
  // evaluation) fails with a non-retryable error.
  ASSERT_TRUE(failpoint::Arm("utility.evaluate=error(internal:dead)#2").ok());
  Result<std::vector<double>> values = LeaveOneOutValues(game, options);
  ASSERT_FALSE(values.ok());
  EXPECT_EQ(values.status().code(), StatusCode::kInternal);
  EXPECT_EQ(values.status().message(), "dead");
}

TEST(TmcShapleyTest, MidWaveAbortYieldsPartialEstimate) {
  FailpointGuard guard;
  LambdaUtility game = AdditiveGame({1.0, 2.0, 3.0, 4.0});

  // Reference: a clean run covering exactly the first 32-permutation wave.
  TmcShapleyOptions clean_options;
  clean_options.num_permutations = 32;
  clean_options.truncation_tolerance = 0.0;
  clean_options.num_threads = 1;
  clean_options.seed = 9;
  ImportanceEstimate clean =
      TmcShapleyValues(game, clean_options).value();

  // Full run: 64 permutations in two waves. Wave 1 costs 2 bookend
  // evaluations plus 32 permutations x 4 units = 130 hits; hit 140 lands
  // mid-wave-2, every later evaluation (including retries) also fails, so
  // wave 2 is discarded whole.
  TmcShapleyOptions faulty_options = clean_options;
  faulty_options.num_permutations = 64;
  faulty_options.retry_backoff_ms = 0;
  ASSERT_TRUE(
      failpoint::Arm("utility.evaluate=error(unavailable:boom)#140").ok());
  Result<ImportanceEstimate> partial = TmcShapleyValues(game, faulty_options);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial->aborted_early);
  EXPECT_EQ(partial->abort_cause.code(), StatusCode::kUnavailable);
  EXPECT_NE(partial->abort_cause.message().find("boom"), std::string::npos);
  // The partial estimate is exactly the clean smaller-budget run: discarded
  // waves leave no trace in the completed portion.
  EXPECT_EQ(partial->values, clean.values);
  EXPECT_EQ(partial->std_errors, clean.std_errors);
}

TEST(TmcShapleyTest, AbortBeforeAnyWaveReturnsCause) {
  FailpointGuard guard;
  LambdaUtility game = AdditiveGame({1.0, 2.0});
  TmcShapleyOptions options;
  options.num_permutations = 8;
  options.truncation_tolerance = 0.0;
  options.num_threads = 1;
  options.max_retries = 0;
  ASSERT_TRUE(
      failpoint::Arm("utility.evaluate=error(unavailable:all down)").ok());
  Result<ImportanceEstimate> estimate = TmcShapleyValues(game, options);
  // Nothing completed, so there is no partial estimate to return — the
  // cause becomes the estimator's status.
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(estimate.status().message().find("all down"), std::string::npos);
}

TEST(BanzhafMsrTest, UtilityFaultAborts) {
  FailpointGuard guard;
  LambdaUtility game = AdditiveGame({1.0, 2.0, 3.0});
  BanzhafOptions options;
  options.num_samples = 64;
  options.num_threads = 1;
  options.max_retries = 0;
  ASSERT_TRUE(failpoint::Arm("utility.evaluate=error(internal:gone)").ok());
  Result<ImportanceEstimate> estimate = BanzhafValues(game, options);
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kInternal);
}

// --- Banzhaf on the Gaussian-NB retrain path: pinned bits -------------------
//
// Every Banzhaf sample retrains Gaussian NB from scratch on its coalition
// (FitView), so these hashes pin the whole retrain path: the coalition draw,
// the moment fit, the log-joint scorer and the per-unit in/out fold. The
// constants are the results of a plain per-sample, per-unit implementation;
// any change to them is a change of results, not a refactor.

uint64_t HashEstimate(const ImportanceEstimate& estimate) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the value bit patterns.
  auto mix = [&h](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (double v : estimate.values) mix(std::bit_cast<uint64_t>(v));
  for (double v : estimate.std_errors) mix(std::bit_cast<uint64_t>(v));
  mix(estimate.utility_evaluations);
  return h;
}

/// `train_rows` three-class blob rows (small sizes leave classes absent from
/// many coalitions, exercising the fallback moments) scored on 30 rows.
ModelAccuracyUtility NbGoldenUtility(size_t train_rows) {
  BlobsOptions options;
  options.num_examples = train_rows;
  options.num_features = 4;
  options.num_classes = 3;
  options.separation = 1.5;
  options.seed = 71;
  options.center_seed = 70;
  MlDataset train = MakeBlobs(options);
  options.num_examples = 30;
  options.seed = 72;
  MlDataset validation = MakeBlobs(options);
  return ModelAccuracyUtility(
      [] { return std::make_unique<GaussianNaiveBayes>(); }, std::move(train),
      std::move(validation));
}

TEST(BanzhafNbGoldenTest, ValuesMatchPinnedBitsAtOneAndFourThreads) {
  struct Case {
    size_t train_rows;
    uint64_t seed;
    uint64_t hash;
  };
  const Case cases[] = {
      {10, 5, 0x029b465f64907709ULL},
      {40, 5, 0xb169676fb2febb71ULL},
      {40, 9, 0x9f3fb5087f449538ULL},
  };
  for (const Case& c : cases) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ModelAccuracyUtility utility = NbGoldenUtility(c.train_rows);
      BanzhafOptions options;
      options.num_samples = 300;  // Two full waves plus a partial chunk.
      options.seed = c.seed;
      options.num_threads = threads;
      ImportanceEstimate estimate = BanzhafValues(utility, options).value();
      EXPECT_EQ(HashEstimate(estimate), c.hash)
          << "rows=" << c.train_rows << " seed=" << c.seed
          << " threads=" << threads << " hash=0x" << std::hex
          << HashEstimate(estimate);
    }
  }
}

TEST(BanzhafNbGoldenTest, AbortedWaveKeepsPinnedPartialBits) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    FailpointGuard guard;
    // Hit 200 lands in the second 128-sample wave, which is discarded whole:
    // the partial estimate is the first wave's.
    ASSERT_TRUE(
        failpoint::Arm("utility.evaluate=error(internal:golden)#200").ok());
    ModelAccuracyUtility utility = NbGoldenUtility(40);
    BanzhafOptions options;
    options.num_samples = 300;
    options.seed = 5;
    options.num_threads = threads;
    options.max_retries = 0;
    ImportanceEstimate estimate = BanzhafValues(utility, options).value();
    EXPECT_TRUE(estimate.aborted_early);
    EXPECT_EQ(estimate.abort_cause.code(), StatusCode::kInternal);
    EXPECT_EQ(estimate.utility_evaluations, 128u);
    EXPECT_EQ(HashEstimate(estimate), 0xd6372347fa1141a5ULL)
        << "threads=" << threads << " hash=0x" << std::hex
        << HashEstimate(estimate);
  }
}

TEST(BanzhafNbGoldenTest, LeaveOneOutMatchesPinnedBits) {
  ModelAccuracyUtility utility = NbGoldenUtility(40);
  EstimatorOptions options;
  options.num_threads = 4;
  ImportanceEstimate estimate;
  estimate.values = LeaveOneOutValues(utility, options).value();
  EXPECT_EQ(HashEstimate(estimate), 0x7b157182d59d2a2aULL)
      << "hash=0x" << std::hex << HashEstimate(estimate);
}

// --- Exact KNN-Shapley: pinned bits -------------------------------------------
//
// The closed form, its SoftKnnUtility game and the datascope path, pinned to
// the results of an implementation that orders training rows with
// std::sort and a (distance, index) comparator and evaluates the recurrence
// term as (1[i] - 1[next]) / k * min(k, rank) / rank. Duplicate train rows
// tie on distance, a validation row copied from the train set puts zero
// distances first, and sizes that are not multiples of 8 leave partial
// chunks; any change to these constants is a change of results.

uint64_t HashValues(const std::vector<double>& values) {
  ImportanceEstimate estimate;
  estimate.values = values;
  return HashEstimate(estimate);
}

/// `n` three-class blob rows in 3 dims plus copies of rows 0..5 (43 rows for
/// n = 37), and `m` validation rows whose first row copies train row 2.
std::pair<MlDataset, MlDataset> KnnGoldenSplit(size_t n, size_t m) {
  BlobsOptions options;
  options.num_examples = n;
  options.num_features = 3;
  options.num_classes = 3;
  options.separation = 1.5;
  options.seed = 81;
  options.center_seed = 80;
  MlDataset train = MakeBlobs(options);
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), size_t{0});
  for (size_t i = 0; i < 6; ++i) rows.push_back(i);
  train = train.Subset(rows);
  options.num_examples = m;
  options.seed = 82;
  MlDataset validation = MakeBlobs(options);
  for (size_t c = 0; c < 3; ++c) {
    validation.features(0, c) = train.features(2, c);
  }
  return {std::move(train), std::move(validation)};
}

TEST(KnnShapleyGoldenTest, ValuesMatchPinnedBitsAtOneAndFourThreads) {
  struct Case {
    size_t n;
    size_t m;
    size_t k;
    uint64_t hash;
  };
  // k = 50 exceeds the 43 training rows of the first split.
  const Case cases[] = {
      {37, 13, 1, 0xde6e56d34ab8e5ffULL},
      {37, 13, 5, 0xf387c2eb02a41d79ULL},
      {37, 13, 50, 0xf564be5119d337a4ULL},
      {203, 75, 5, 0x2398f074750223f1ULL},
      {203, 75, 3, 0x924879c42719283dULL},
  };
  for (const Case& c : cases) {
    auto [train, validation] = KnnGoldenSplit(c.n, c.m);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      EstimatorOptions options;
      options.num_threads = threads;
      std::vector<double> values =
          KnnShapleyValues(train, validation, c.k, options).value();
      EXPECT_EQ(HashValues(values), c.hash)
          << "n=" << c.n << " m=" << c.m << " k=" << c.k
          << " threads=" << threads << " hash=0x" << std::hex
          << HashValues(values);
    }
  }
}

TEST(KnnShapleyGoldenTest, SoftKnnEvaluateMatchesPinnedBits) {
  auto [train, validation] = KnnGoldenSplit(37, 13);
  std::vector<double> utilities;
  for (size_t k : {1u, 5u, 50u}) {
    SoftKnnUtility game(train, validation, k);
    Rng rng(83);
    for (size_t trial = 0; trial < 20; ++trial) {
      size_t size = 1 + rng.NextBounded(train.size() - 1);
      utilities.push_back(
          game.Evaluate(rng.SampleWithoutReplacement(train.size(), size)));
    }
    utilities.push_back(game.FullUtility());
  }
  EXPECT_EQ(HashValues(utilities), 0x7a592299feb4302eULL)
      << "hash=0x" << std::hex << HashValues(utilities);
}

TEST(KnnShapleyGoldenTest, DatascopeRegistryRunMatchesPinnedBits) {
  // 70 source rows of small periodic integers: many exact duplicates, so
  // ties reach the order through the pipeline's encoding too.
  std::ostringstream csv;
  csv << "a,b,label\n";
  for (int i = 0; i < 70; ++i) {
    csv << (i * 7) % 11 - 5 << "," << (i * 3) % 5 << "," << (i % 3 == 0)
        << "\n";
  }
  Table table = ReadCsvString(csv.str()).value();
  for (const char* threads : {"1", "4"}) {
    std::unique_ptr<AlgorithmInstance> datascope =
        AlgorithmRegistry::Global().Create("datascope").value();
    ASSERT_TRUE(
        datascope->ConfigureAll({{"k", "3"}, {"num_threads", threads}}).ok());
    TableRunResult run = RunAlgorithmOnTable(*datascope, table, "label").value();
    EXPECT_EQ(HashValues(run.estimate.values), 0xf5c5fea470bd8c7bULL)
        << "threads=" << threads << " hash=0x" << std::hex
        << HashValues(run.estimate.values);
  }
}

// --- KnnDistanceOrder: the comparator order, without the comparator ---------

/// Row-major squared distances of every training row to `query`.
std::vector<double> RowMajorDistances(const Matrix& train,
                                      std::span<const double> query) {
  std::vector<double> dist(train.rows());
  for (size_t i = 0; i < train.rows(); ++i) {
    double acc = 0.0;
    for (size_t c = 0; c < train.cols(); ++c) {
      double diff = train(i, c) - query[c];
      acc += diff * diff;
    }
    dist[i] = acc;
  }
  return dist;
}

/// std::sort under the (distance, index) comparator; NaN-free input only.
std::vector<uint32_t> ComparatorOrder(const Matrix& train,
                                      std::span<const double> query) {
  std::vector<double> dist = RowMajorDistances(train, query);
  std::vector<uint32_t> order(train.rows());
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::sort(order.begin(), order.end(), [&dist](uint32_t a, uint32_t b) {
    if (dist[a] != dist[b]) return dist[a] < dist[b];
    return a < b;
  });
  return order;
}

/// One feature value: mostly from a small pool (duplicate rows and zero
/// distances), else Gaussian, subnormal, or 1e300 (a +inf distance).
double OrderTestFeature(Rng* rng) {
  static const double kPool[] = {0.0, -0.0, 1.0, -2.5, 3.0};
  switch (rng->NextBounded(8)) {
    case 0:
    case 1:
    case 2:
      return kPool[rng->NextBounded(5)];
    case 3:
      return 4.9e-324 * static_cast<double>(rng->NextBounded(1000));
    case 4:
      return rng->NextBernoulli(0.5) ? 1e300 : -1e300;
    default:
      return rng->NextGaussian();
  }
}

TEST(KnnDistanceOrderTest, EqualsComparatorSortOnRandomMatrices) {
  Rng rng(91);
  for (size_t trial = 0; trial < 300; ++trial) {
    size_t n = trial % 10 == 0 ? 1 : 1 + rng.NextBounded(300);
    size_t d = 1 + rng.NextBounded(4);
    Matrix train(n, d);
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < d; ++c) train(i, c) = OrderTestFeature(&rng);
    }
    std::vector<double> query(d);
    if (rng.NextBernoulli(0.3)) {
      // A copy of a training row: at least one zero distance.
      std::span<const double> row = train.RowSpan(rng.NextBounded(n));
      query.assign(row.begin(), row.end());
    } else {
      for (double& q : query) q = OrderTestFeature(&rng);
    }
    ASSERT_EQ(KnnDistanceOrder(train, query), ComparatorOrder(train, query))
        << "trial=" << trial << " n=" << n << " d=" << d;
  }
}

TEST(KnnDistanceOrderTest, EqualsComparatorSortOnCloseDistances) {
  // One dominant feature puts every distance within 2^-20 of 1e6, so they
  // share their high 32 bits: long runs the low word must order.
  Rng rng(92);
  for (size_t n : {17u, 40u, 500u}) {
    Matrix train(n, 2);
    for (size_t i = 0; i < n; ++i) {
      train(i, 0) = 0.0;
      train(i, 1) = rng.NextBernoulli(0.2) ? 0.5 : rng.NextDouble();
    }
    std::vector<double> query = {1000.0, 0.0};
    EXPECT_EQ(KnnDistanceOrder(train, query), ComparatorOrder(train, query))
        << "n=" << n;
  }
}

TEST(KnnDistanceOrderTest, NanDistancesComeLastByIndex) {
  Rng rng(93);
  for (size_t trial = 0; trial < 50; ++trial) {
    size_t n = 1 + rng.NextBounded(120);
    Matrix train(n, 3);
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < 3; ++c) train(i, c) = OrderTestFeature(&rng);
      // A NaN of either sign: the order must not depend on the NaN's bits.
      if (rng.NextBernoulli(0.25)) {
        train(i, rng.NextBounded(3)) =
            rng.NextBernoulli(0.5) ? std::nan("") : -std::nan("");
      }
    }
    std::vector<double> query = {1.0, 0.5, -0.0};
    std::vector<double> dist = RowMajorDistances(train, query);
    std::vector<uint32_t> expected;
    for (bool nan_pass : {false, true}) {
      std::vector<uint32_t> part;
      for (uint32_t i = 0; i < n; ++i) {
        if (std::isnan(dist[i]) == nan_pass) part.push_back(i);
      }
      std::stable_sort(part.begin(), part.end(), [&](uint32_t a, uint32_t b) {
        return !nan_pass && dist[a] < dist[b];
      });
      expected.insert(expected.end(), part.begin(), part.end());
    }
    EXPECT_EQ(KnnDistanceOrder(train, query), expected) << "trial=" << trial;
  }
}

TEST(BetaShapleyTest, UtilityFaultAborts) {
  FailpointGuard guard;
  LambdaUtility game = AdditiveGame({1.0, 2.0, 3.0});
  BetaShapleyOptions options;
  options.samples_per_unit = 16;
  options.num_threads = 1;
  options.max_retries = 0;
  ASSERT_TRUE(
      failpoint::Arm("utility.evaluate=error(unavailable:flaky)").ok());
  Result<ImportanceEstimate> estimate = BetaShapleyValues(game, options);
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kUnavailable);
}

// --- Mid-run cancellation ----------------------------------------------------
//
// The progress hook raises the cancel flag after the first wave, so the run
// stops at the second wave boundary. A cancelled Monte-Carlo run must equal a
// clean run with a one-wave budget; estimators with no partial result return
// kCancelled.

/// Non-additive game, so marginals and std errors vary by coalition.
LambdaUtility SqrtGame(size_t n) {
  return LambdaUtility(n, [](const std::vector<size_t>& subset) {
    double v = 0.0;
    for (size_t i : subset) v += static_cast<double>(i + 1);
    return std::sqrt(v);
  });
}

void CancelAfterFirstWave(EstimatorOptions* options,
                          std::atomic<bool>* cancel) {
  options->cancel = cancel;
  options->progress = [cancel](const ProgressUpdate&) {
    cancel->store(true, std::memory_order_relaxed);
  };
}

TEST(CancellationTest, TmcCancelledAfterWaveOneEqualsOneWaveBudget) {
  LambdaUtility game = SqrtGame(6);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    TmcShapleyOptions clean_options;
    clean_options.num_permutations = 32;
    clean_options.truncation_tolerance = 0.0;
    clean_options.num_threads = threads;
    clean_options.seed = 21;
    ImportanceEstimate clean = TmcShapleyValues(game, clean_options).value();

    TmcShapleyOptions options = clean_options;
    options.num_permutations = 96;
    std::atomic<bool> cancel{false};
    CancelAfterFirstWave(&options, &cancel);
    ImportanceEstimate cancelled = TmcShapleyValues(game, options).value();
    EXPECT_TRUE(cancelled.aborted_early) << "threads=" << threads;
    EXPECT_EQ(cancelled.abort_cause.code(), StatusCode::kCancelled);
    EXPECT_EQ(cancelled.values, clean.values) << "threads=" << threads;
    EXPECT_EQ(cancelled.std_errors, clean.std_errors);
    EXPECT_EQ(cancelled.utility_evaluations, clean.utility_evaluations);
  }
}

TEST(CancellationTest, BanzhafCancelledAfterWaveOneEqualsOneWaveBudget) {
  LambdaUtility game = SqrtGame(6);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    BanzhafOptions clean_options;
    clean_options.num_samples = 128;
    clean_options.num_threads = threads;
    clean_options.seed = 23;
    ImportanceEstimate clean = BanzhafValues(game, clean_options).value();

    BanzhafOptions options = clean_options;
    options.num_samples = 300;
    std::atomic<bool> cancel{false};
    CancelAfterFirstWave(&options, &cancel);
    ImportanceEstimate cancelled = BanzhafValues(game, options).value();
    EXPECT_TRUE(cancelled.aborted_early) << "threads=" << threads;
    EXPECT_EQ(cancelled.abort_cause.code(), StatusCode::kCancelled);
    EXPECT_EQ(cancelled.values, clean.values) << "threads=" << threads;
    EXPECT_EQ(cancelled.std_errors, clean.std_errors);
    EXPECT_EQ(cancelled.utility_evaluations, clean.utility_evaluations);
  }
}

TEST(CancellationTest, BetaShapleyCancelledAfterWaveOneKeepsFirstUnits) {
  LambdaUtility game = SqrtGame(40);  // Waves of 16, 16 and 8 units.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    BetaShapleyOptions clean_options;
    clean_options.samples_per_unit = 8;
    clean_options.num_threads = threads;
    clean_options.seed = 25;
    ImportanceEstimate clean = BetaShapleyValues(game, clean_options).value();

    BetaShapleyOptions options = clean_options;
    std::atomic<bool> cancel{false};
    CancelAfterFirstWave(&options, &cancel);
    ImportanceEstimate cancelled = BetaShapleyValues(game, options).value();
    EXPECT_TRUE(cancelled.aborted_early) << "threads=" << threads;
    EXPECT_EQ(cancelled.abort_cause.code(), StatusCode::kCancelled);
    ASSERT_EQ(cancelled.values.size(), 40u);
    for (size_t i = 0; i < 40; ++i) {
      double value = i < 16 ? clean.values[i] : 0.0;
      double std_error = i < 16 ? clean.std_errors[i] : 0.0;
      EXPECT_EQ(cancelled.values[i], value) << "unit " << i;
      EXPECT_EQ(cancelled.std_errors[i], std_error) << "unit " << i;
    }
    EXPECT_EQ(cancelled.utility_evaluations, 16u * 2u * 8u);
  }
}

TEST(CancellationTest, LeaveOneOutCancelledAfterWaveOneReturnsCancelled) {
  LambdaUtility game = SqrtGame(100);  // Waves of 64 and 36 units.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EstimatorOptions options;
    options.num_threads = threads;
    std::atomic<bool> cancel{false};
    CancelAfterFirstWave(&options, &cancel);
    Result<std::vector<double>> values = LeaveOneOutValues(game, options);
    ASSERT_FALSE(values.ok()) << "threads=" << threads;
    EXPECT_EQ(values.status().code(), StatusCode::kCancelled);
  }
}

TEST(CancellationTest, KnnShapleyCancelledAfterWaveOneReturnsCancelled) {
  BlobsOptions blobs;
  blobs.num_examples = 30;
  blobs.seed = 3;
  MlDataset train = MakeBlobs(blobs);
  blobs.num_examples = 80;  // 10 chunks of 8 points: waves of 8 and 2 chunks.
  blobs.seed = 4;
  MlDataset validation = MakeBlobs(blobs);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EstimatorOptions options;
    options.num_threads = threads;
    std::atomic<bool> cancel{false};
    CancelAfterFirstWave(&options, &cancel);
    Result<std::vector<double>> values =
        KnnShapleyValues(train, validation, 3, options);
    ASSERT_FALSE(values.ok()) << "threads=" << threads;
    EXPECT_EQ(values.status().code(), StatusCode::kCancelled);
  }
}

// --- The RunWaves driver -----------------------------------------------------

WavePlan TestPlan(size_t tasks) {
  return {.tasks = tasks,
          .wave_size = 16,
          .phase = "test_waves",
          .label = "test_waves",
          .alloc_phase = "test_waves"};
}

TEST(RunWavesTest, FirstErrorInIndexOrderWinsAndDiscardsTheWave) {
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EstimatorOptions options;
    options.num_threads = threads;
    // Wave 2 holds tasks 16..31. Task 25 fails first in wall time: with
    // several workers, task 18 waits until it has, then fails too. Task 18
    // is first in index order, so its error must win.
    std::atomic<bool> later_failed{false};
    std::atomic<bool> waited_for_later{false};
    std::vector<std::pair<size_t, size_t>> folds;
    WaveRun run = RunWaves(
        TestPlan(40), options,
        [&](size_t task) -> Status {
          if (task == 25) {
            later_failed.store(true);
            return Status::Internal("task 25");
          }
          if (task == 18) {
            if (threads > 1) {
              for (int spin = 0; spin < 5000 && !later_failed.load(); ++spin) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
              }
              waited_for_later.store(later_failed.load());
            }
            return Status::Unavailable("task 18");
          }
          return Status::OK();
        },
        [&](size_t begin, size_t end, ProgressUpdate*) {
          folds.emplace_back(begin, end);
          return false;
        });
    if (threads > 1) {
      EXPECT_TRUE(waited_for_later.load());
    }
    EXPECT_TRUE(run.aborted) << "threads=" << threads;
    EXPECT_EQ(run.abort_cause.code(), StatusCode::kUnavailable);
    EXPECT_EQ(run.abort_cause.message(), "task 18");
    EXPECT_EQ(run.tasks_done, 16u);
    EXPECT_EQ(folds, (std::vector<std::pair<size_t, size_t>>{{0, 16}}));
  }
}

TEST(RunWavesTest, FoldRunsOncePerCleanWaveInOrder) {
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EstimatorOptions options;
    options.num_threads = threads;
    std::vector<std::string> progress;
    options.progress = [&progress](const ProgressUpdate& update) {
      progress.push_back(std::string(update.phase) + ":" +
                         std::to_string(update.completed));
    };
    std::vector<std::atomic<int>> runs(50);
    std::vector<std::pair<size_t, size_t>> folds;
    WaveRun run = RunWaves(
        TestPlan(50), options,
        [&](size_t task) -> Status {
          runs[task].fetch_add(1);
          return Status::OK();
        },
        [&](size_t begin, size_t end, ProgressUpdate* update) {
          // Every task of the wave has finished before its fold.
          for (size_t t = begin; t < end; ++t) EXPECT_EQ(runs[t].load(), 1);
          folds.emplace_back(begin, end);
          EXPECT_NE(update, nullptr);
          if (update != nullptr) update->completed = end;
          return false;
        });
    EXPECT_FALSE(run.aborted) << "threads=" << threads;
    EXPECT_TRUE(run.abort_cause.ok());
    EXPECT_EQ(run.tasks_done, 50u);
    EXPECT_GE(run.threads_used, 1u);
    EXPECT_LE(run.threads_used, threads);
    EXPECT_EQ(folds, (std::vector<std::pair<size_t, size_t>>{
                         {0, 16}, {16, 32}, {32, 48}, {48, 50}}));
    EXPECT_EQ(progress, (std::vector<std::string>{
                            "test_waves:16", "test_waves:32",
                            "test_waves:48", "test_waves:50"}));
    for (size_t t = 0; t < runs.size(); ++t) EXPECT_EQ(runs[t].load(), 1);
  }
}

TEST(RunWavesTest, FoldReturningTrueStopsTheRun) {
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EstimatorOptions options;
    options.num_threads = threads;
    std::atomic<size_t> bodies{0};
    size_t folds = 0;
    WaveRun run = RunWaves(
        TestPlan(100), options,
        [&](size_t) -> Status {
          bodies.fetch_add(1);
          return Status::OK();
        },
        [&](size_t, size_t end, ProgressUpdate* update) {
          EXPECT_EQ(update, nullptr);  // No progress hook installed.
          ++folds;
          return end == 32;
        });
    EXPECT_FALSE(run.aborted) << "threads=" << threads;
    EXPECT_EQ(run.tasks_done, 32u);
    // Inline, nothing runs past the stop; with workers, at most the one wave
    // the driver keeps in flight ahead of the fold.
    EXPECT_GE(bodies.load(), 32u);
    EXPECT_LE(bodies.load(), threads == 1 ? 32u : 48u);
    EXPECT_EQ(folds, 2u);
  }
}

TEST(RunWavesTest, CancelBeforeTheFirstWaveRunsNothing) {
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EstimatorOptions options;
    options.num_threads = threads;
    std::atomic<bool> cancel{true};
    options.cancel = &cancel;
    std::atomic<size_t> bodies{0};
    size_t folds = 0;
    WaveRun run = RunWaves(
        TestPlan(40), options,
        [&](size_t) -> Status {
          bodies.fetch_add(1);
          return Status::OK();
        },
        [&](size_t, size_t, ProgressUpdate*) {
          ++folds;
          return false;
        });
    EXPECT_TRUE(run.aborted) << "threads=" << threads;
    EXPECT_EQ(run.tasks_done, 0u);
    EXPECT_EQ(run.abort_cause.code(), StatusCode::kCancelled);
    EXPECT_EQ(run.abort_cause.message(), "test_waves cancelled");
    EXPECT_EQ(bodies.load(), 0u);
    EXPECT_EQ(folds, 0u);
  }
}

// --- Generative SubsetCache properties (src/proptest harness) ---------------

prop::CheckConfig CacheCheckConfig(int default_cases) {
  prop::CheckConfig config;
  config.num_cases = prop::DefaultNumCases(default_cases);
  config.ctest_target = "importance_test";
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  config.gtest_filter =
      std::string(info->test_suite_name()) + "." + info->name();
  return config;
}

/// The deterministic "utility" a cached coalition must always resolve to,
/// regardless of probe order or eviction history.
double CanonicalCacheValue(std::vector<size_t> subset) {
  std::sort(subset.begin(), subset.end());
  uint64_t h = OrderIndependentSubsetHash{}(subset);
  return static_cast<double>(h % 100003) + 0.5;
}

prop::Gen<std::vector<std::vector<size_t>>> AnyProbeSequence() {
  return prop::VectorOf(prop::SizeInRange(1, 12),
                        prop::VectorOf(prop::SizeInRange(0, 6),
                                       prop::SizeInRange(0, 19)),
                        /*min_size=*/1);
}

std::string DescribeProbeSequence(
    const std::vector<std::vector<size_t>>& probes) {
  std::ostringstream os;
  for (const std::vector<size_t>& subset : probes) {
    os << "{";
    for (size_t i = 0; i < subset.size(); ++i) {
      if (i > 0) os << ",";
      os << subset[i];
    }
    os << "} ";
  }
  return os.str();
}

TEST(SubsetCachePropertyTest, PermutedProbesHitWithoutRecompute) {
  // For any probe sequence: the first probe of a coalition computes, and a
  // reversed-order re-probe must be served from cache — a poisoned compute
  // callback on the second probe must never be invoked. This is the invariant
  // the order-independent hash + full-key equality pair exists to provide
  // (subset_cache.h); a hash that depended on order, or equality that
  // compared less than the full key, fails it within a handful of cases.
  std::string report = prop::CheckProperty<std::vector<std::vector<size_t>>>(
      "permuted probes hit the same entry", AnyProbeSequence(),
      [](const std::vector<std::vector<size_t>>& probes) -> std::string {
        SubsetCache cache;  // Default capacity: nothing evicts at this size.
        for (const std::vector<size_t>& subset : probes) {
          double expected = CanonicalCacheValue(subset);
          double first =
              cache.GetOrCompute(subset, [&] { return expected; });
          if (first != expected) {
            return "first probe returned " + std::to_string(first) +
                   ", expected " + std::to_string(expected);
          }
          std::vector<size_t> reversed(subset.rbegin(), subset.rend());
          bool poison_invoked = false;
          double second = cache.GetOrCompute(reversed, [&] {
            poison_invoked = true;
            return expected + 1e6;
          });
          if (poison_invoked) {
            return "reversed re-probe missed the cache (recompute invoked)";
          }
          if (second != expected) {
            return "reversed re-probe returned " + std::to_string(second);
          }
        }
        SubsetCache::Stats stats = cache.stats();
        if (stats.hits < probes.size()) {
          return "expected at least " + std::to_string(probes.size()) +
                 " hits, saw " + std::to_string(stats.hits);
        }
        return "";
      },
      DescribeProbeSequence, CacheCheckConfig(150));
  EXPECT_TRUE(report.empty()) << report;
}

TEST(SubsetCachePropertyTest, EvictionOnlyCostsRecomputation) {
  // A pathologically tiny cache (one shard, one entry) evicts on nearly
  // every insert. The contract (subset_cache.h): eviction may cost extra
  // compute calls but can never change a served value, and the entry count
  // must respect the bound throughout.
  std::string report = prop::CheckProperty<std::vector<std::vector<size_t>>>(
      "eviction never corrupts values", AnyProbeSequence(),
      [](const std::vector<std::vector<size_t>>& probes) -> std::string {
        SubsetCacheOptions options;
        options.num_shards = 1;
        options.max_entries = 1;
        SubsetCache cache(options);
        uint64_t total_probes = 0;
        for (int pass = 0; pass < 2; ++pass) {
          for (const std::vector<size_t>& subset : probes) {
            double expected = CanonicalCacheValue(subset);
            double got =
                cache.GetOrCompute(subset, [&] { return expected; });
            ++total_probes;
            if (got != expected) {
              return "probe returned " + std::to_string(got) +
                     ", expected " + std::to_string(expected);
            }
            SubsetCache::Stats stats = cache.stats();
            if (stats.entries > 1) {
              return "entry count " + std::to_string(stats.entries) +
                     " exceeds max_entries=1";
            }
          }
        }
        SubsetCache::Stats stats = cache.stats();
        if (stats.hits + stats.misses != total_probes) {
          return "hits+misses=" +
                 std::to_string(stats.hits + stats.misses) +
                 " != probes=" + std::to_string(total_probes);
        }
        return "";
      },
      DescribeProbeSequence, CacheCheckConfig(100));
  EXPECT_TRUE(report.empty()) << report;
}

TEST(SubsetCachePropertyTest, HashIsOrderIndependent) {
  // The commutative-fold hash must agree across every ordering of the same
  // elements (here: sorted vs reversed vs rotated), and the transparent
  // SubsetKeyView hasher must agree with the owned-key hasher — the pair of
  // contracts the heterogeneous map lookup in GetOrCompute relies on.
  std::string report = prop::CheckProperty<std::vector<size_t>>(
      "subset hash is order independent",
      prop::VectorOf(prop::SizeInRange(0, 8), prop::SizeInRange(0, 40)),
      [](const std::vector<size_t>& subset) -> std::string {
        OrderIndependentSubsetHash hasher;
        size_t baseline = hasher(subset);
        std::vector<size_t> reversed(subset.rbegin(), subset.rend());
        if (hasher(reversed) != baseline) {
          return "reversed ordering hashed differently";
        }
        if (!subset.empty()) {
          std::vector<size_t> rotated(subset.begin() + 1, subset.end());
          rotated.push_back(subset.front());
          if (hasher(rotated) != baseline) {
            return "rotated ordering hashed differently";
          }
        }
        SubsetKeyView view{subset.data(), subset.size(),
                           static_cast<uint64_t>(baseline)};
        if (SubsetKeyHash{}(view) != SubsetKeyHash{}(subset)) {
          return "view hasher disagrees with owned-key hasher";
        }
        if (!SubsetKeyEq{}(subset, view)) {
          return "view equality rejected the identical subset";
        }
        return "";
      },
      nullptr, CacheCheckConfig(200));
  EXPECT_TRUE(report.empty()) << report;
}

}  // namespace
}  // namespace nde
