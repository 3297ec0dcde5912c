#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <unordered_set>
#include <utility>

#include "cleaning/strategies.h"
#include "common/rng.h"
#include "data/csv.h"
#include "datagen/synthetic.h"
#include "importance/utility.h"
#include "ml/knn.h"
#include "ml/naive_bayes.h"
#include "nde/registry.h"
#include "pipeline/encoders.h"
#include "pipeline/plan.h"

namespace nde {
namespace e2e {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* workloads = [] {
    auto* list = new std::vector<WorkloadSpec>();
    WorkloadSpec tmc;
    tmc.name = "tmc_knn_3k";
    tmc.rows = 3000;
    tmc.label = "defaulted";
    tmc.algorithm = "tmc_shapley";
    // Full permutation scans (no truncation) keep the work per op fixed:
    // with the default tolerance the evaluation count follows how fast each
    // generated table's learning curve saturates (26k-63k across seeds), so
    // op time tracked the seed rather than the code.
    tmc.options = {{"num_permutations", "48"},
                   {"truncation_tolerance", "0"},
                   {"model", "knn"}};
    tmc.num_threads = 4;
    tmc.probe_model = "knn";
    list->push_back(tmc);

    WorkloadSpec banzhaf = tmc;
    banzhaf.name = "banzhaf_nb_3k";
    banzhaf.algorithm = "banzhaf";
    banzhaf.options = {{"num_samples", "2000"}, {"model", "gaussian_nb"}};
    banzhaf.probe_model = "gaussian_nb";
    list->push_back(banzhaf);

    WorkloadSpec ingest;
    ingest.name = "ingest_hiring_30k";
    ingest.scenario = WorkloadSpec::Scenario::kHiring;
    ingest.rows = 30000;
    ingest.label = "sentiment";
    ingest.algorithm = "influence";
    ingest.num_threads = 4;
    ingest.probe_model = "gaussian_nb";
    list->push_back(ingest);

    WorkloadSpec jobs;
    jobs.name = "jobs_http_1k";
    jobs.rows = 1000;
    jobs.label = "defaulted";
    jobs.algorithm = "knn_shapley";
    jobs.num_threads = 1;
    jobs.over_http = true;
    jobs.probe_model = "knn";
    list->push_back(jobs);
    return list;
  }();
  return *workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Result<std::map<std::string, std::string>> OpOptions(
    const WorkloadSpec& spec, uint64_t estimator_seed, size_t num_threads) {
  NDE_ASSIGN_OR_RETURN(std::unique_ptr<AlgorithmInstance> probe,
                       AlgorithmRegistry::Global().Create(spec.algorithm));
  std::map<std::string, std::string> options = spec.options;
  if (probe->HasOption("seed")) {
    options["seed"] = std::to_string(estimator_seed);
  }
  if (probe->HasOption("num_threads")) {
    options["num_threads"] = std::to_string(num_threads);
  }
  return options;
}

Result<WorkloadInput> MakeInput(const WorkloadSpec& spec, uint64_t seed) {
  WorkloadInput input;
  input.estimator_seed = seed;
  if (spec.scenario == WorkloadSpec::Scenario::kCredit) {
    CreditScenarioOptions options;
    options.num_accounts = spec.rows;
    options.label_noise_fraction = 0.10;
    options.missing_sector_fraction = 0.05;
    options.seed = seed;
    CreditScenario scenario = MakeCreditScenario(options);
    input.csv = WriteCsvString(scenario.accounts);
    input.flipped_rows = std::move(scenario.corrupted_rows);
  } else {
    HiringScenarioOptions options;
    options.num_applicants = spec.rows;
    options.seed = seed;
    HiringScenario scenario = MakeHiringScenario(options);
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    NDE_ASSIGN_OR_RETURN(
        input.flipped_rows,
        InjectLabelErrorsTable(&scenario.train, spec.label, 0.10, &rng));
    input.csv = WriteCsvString(scenario.train);
  }
  NDE_ASSIGN_OR_RETURN(input.reference, RunTableOp(spec, input, 1));
  NDE_RETURN_IF_ERROR(CheckRanking(input.reference, spec.rows));
  input.detect_recall =
      DetectRecall(input.reference.ranked_rows, input.flipped_rows);
  return input;
}

Result<TableRunResult> RunTableOp(const WorkloadSpec& spec,
                                  const WorkloadInput& input,
                                  size_t num_threads) {
  NDE_ASSIGN_OR_RETURN(Table table, ReadCsvString(input.csv));
  NDE_ASSIGN_OR_RETURN(std::unique_ptr<AlgorithmInstance> algorithm,
                       AlgorithmRegistry::Global().Create(spec.algorithm));
  NDE_ASSIGN_OR_RETURN(auto options,
                       OpOptions(spec, input.estimator_seed, num_threads));
  NDE_RETURN_IF_ERROR(algorithm->ConfigureAll(options));
  return RunAlgorithmOnTable(*algorithm, table, spec.label);
}

Result<TableRunResult> RunTableOpTraced(const WorkloadSpec& spec,
                                        const WorkloadInput& input,
                                        size_t num_threads, Ledger* ledger,
                                        int64_t op, PreparedSplit* prepared) {
  Ledger::Scope root(ledger, "op", op);
  PreparedSplit local;
  PreparedSplit& split = prepared != nullptr ? *prepared : local;
  {
    Ledger::Scope span(ledger, "data.csv_parse", op);
    NDE_ASSIGN_OR_RETURN(split.table, ReadCsvString(input.csv));
  }
  // Registry set-up is left outside any child span: it is engine self time.
  NDE_ASSIGN_OR_RETURN(std::unique_ptr<AlgorithmInstance> algorithm,
                       AlgorithmRegistry::Global().Create(spec.algorithm));
  NDE_ASSIGN_OR_RETURN(auto options,
                       OpOptions(spec, input.estimator_seed, num_threads));
  NDE_RETURN_IF_ERROR(algorithm->ConfigureAll(options));

  // From here on: the calls RunAlgorithmOnTable (src/nde/engine.cc) makes,
  // in its order.
  const Table& table = split.table;
  const std::string& label = spec.label;
  TableRunResult result;
  ColumnTransformer transformer;
  {
    Ledger::Scope span(ledger, "pipeline.fit_transformer", op);
    NDE_RETURN_IF_ERROR(table.schema().FieldIndex(label).status());
    NDE_ASSIGN_OR_RETURN(transformer, MakeAutoTransformer(table, {label}));
  }
  {
    Ledger::Scope span(ledger, "pipeline.execute", op);
    std::vector<std::string> columns;
    for (size_t c = 0; c < table.schema().num_fields(); ++c) {
      columns.push_back(table.schema().field(c).name);
    }
    PlanBuilder builder = [label, columns](
                              const std::vector<PlanNodePtr>& sources) {
      PlanNodePtr node = MakeFilter(
          sources[0], label + " is not null", [label](const RowView& row) {
            Result<Value> cell = row.Get(label);
            return cell.ok() && !cell.value().is_null();
          });
      return MakeProject(std::move(node), columns);
    };
    MlPipeline pipeline({{"train", table}}, builder, std::move(transformer),
                        label);
    PlanNodePtr plan = pipeline.BuildPlan();
    PlanProfiler profiler;
    NDE_ASSIGN_OR_RETURN(split.output, pipeline.Execute(plan));
    result.annotated_plan = profiler.AnnotatedPlan(*plan);
  }
  std::vector<size_t> valid_rows;
  {
    Ledger::Scope span(ledger, "ml.split", op);
    MlDataset all = split.output.ToDataset();
    split.train_rows.clear();
    for (size_t r = 0; r < all.size(); ++r) {
      (r % 5 == 4 ? valid_rows : split.train_rows).push_back(r);
    }
    if (split.train_rows.empty() || valid_rows.empty()) {
      return Status::InvalidArgument("not enough rows for an importance split");
    }
    split.train = all.Subset(split.train_rows);
    split.valid = all.Subset(valid_rows);
    result.train_rows = split.train_rows.size();
    result.valid_rows = valid_rows.size();
  }
  {
    Ledger::Scope span(ledger, "importance.estimator", op);
    RunInput run_input;
    run_input.train = &split.train;
    run_input.validation = &split.valid;
    run_input.pipeline_output = &split.output;
    run_input.source_table_id = 0;
    run_input.num_source_rows = table.num_rows();
    NDE_ASSIGN_OR_RETURN(result.estimate, algorithm->Run(run_input));
  }
  {
    Ledger::Scope span(ledger, "cleaning.rank", op);
    std::vector<size_t> ranking = AscendingOrder(result.estimate.values);
    result.ranked_rows.reserve(ranking.size());
    for (size_t index : ranking) {
      if (algorithm->values_are_source_rows()) {
        result.ranked_rows.push_back(static_cast<uint32_t>(index));
        continue;
      }
      size_t output_row = split.train_rows[index];
      const std::vector<SourceRef>& refs =
          split.output.provenance[output_row].refs();
      result.ranked_rows.push_back(
          refs.empty() ? static_cast<uint32_t>(output_row) : refs[0].row_id);
    }
  }
  return result;
}

namespace {

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

ClassifierFactory ProxyFactory(const std::string& model) {
  if (model == "gaussian_nb") {
    return [] { return std::make_unique<GaussianNaiveBayes>(); };
  }
  return [] { return std::make_unique<KnnClassifier>(5); };
}

}  // namespace

Status CheckRanking(const TableRunResult& result, size_t source_rows) {
  const std::vector<double>& values = result.estimate.values;
  const std::vector<uint32_t>& ranked = result.ranked_rows;
  if (result.estimate.aborted_early || values.size() != result.train_rows ||
      ranked.size() != result.train_rows ||
      result.train_rows + result.valid_rows > source_rows) {
    return Status::Internal("result sizes do not match the split");
  }
  for (double value : values) {
    if (!std::isfinite(value)) return Status::Internal("non-finite value");
  }
  std::vector<bool> seen(source_rows, false);
  for (uint32_t row : ranked) {
    if (row >= source_rows || seen[row]) {
      return Status::Internal("ranked rows are not distinct source rows");
    }
    seen[row] = true;
  }
  // With no row filtered out, output row r is source row r and the engine
  // trains on the rows r % 5 != 4, so each ranked row's value is known and
  // the ranking must be ascending in it.
  if (result.train_rows + result.valid_rows == source_rows) {
    std::vector<double> value_of(source_rows, 0.0);
    for (size_t r = 0, unit = 0; r < source_rows; ++r) {
      if (r % 5 == 4) continue;
      value_of[r] = values[unit++];
    }
    for (size_t i = 1; i < ranked.size(); ++i) {
      double prev = value_of[ranked[i - 1]], next = value_of[ranked[i]];
      if (next < prev || (next == prev && ranked[i] < ranked[i - 1])) {
        return Status::Internal("ranked rows are not in ascending value order");
      }
    }
  }
  return Status::OK();
}

bool SameEstimate(const ImportanceEstimate& a, const ImportanceEstimate& b) {
  return SameBits(a.values, b.values) && SameBits(a.std_errors, b.std_errors) &&
         a.aborted_early == b.aborted_early;
}

bool SameResult(const TableRunResult& a, const TableRunResult& b) {
  return SameEstimate(a.estimate, b.estimate) &&
         a.ranked_rows == b.ranked_rows && a.train_rows == b.train_rows &&
         a.valid_rows == b.valid_rows;
}

double DetectRecall(const std::vector<uint32_t>& ranked_rows,
                    const std::vector<size_t>& flipped_rows) {
  std::unordered_set<size_t> flipped(flipped_rows.begin(), flipped_rows.end());
  size_t ranked_flips = 0;
  for (uint32_t row : ranked_rows) ranked_flips += flipped.count(row);
  if (ranked_flips == 0) return 0.0;
  size_t hits = 0;
  for (size_t i = 0; i < ranked_flips; ++i) {
    hits += flipped.count(ranked_rows[i]);
  }
  return static_cast<double>(hits) / static_cast<double>(ranked_flips);
}

double FullUtilityMs(const WorkloadSpec& spec, const MlDataset& train,
                     const MlDataset& valid) {
  ModelAccuracyUtility utility(ProxyFactory(spec.probe_model), train, valid);
  int64_t start = NowNs();
  volatile double value = utility.FullUtility();
  (void)value;
  return static_cast<double>(NowNs() - start) / 1e6;
}

double PrefixScanEvalsPerSecond(const MlDataset& train, const MlDataset& valid,
                                uint64_t seed) {
  ModelAccuracyUtility utility(ProxyFactory("knn"), train, valid);
  // The first scan builds the shared scorer context; time the pushes only.
  std::unique_ptr<UtilityFunction::PrefixScan> scan =
      utility.NewPrefixScan(false);
  if (scan == nullptr) return 0.0;
  Rng rng(seed);
  std::vector<size_t> order = rng.Permutation(utility.num_units());
  double sink = 0.0;
  int64_t start = NowNs();
  for (size_t unit : order) sink += scan->Push(unit);
  int64_t elapsed = NowNs() - start;
  volatile double keep = sink;
  (void)keep;
  return static_cast<double>(order.size()) * 1e9 /
         static_cast<double>(std::max<int64_t>(elapsed, 1));
}

double RetrainEvalsPerSecond(const MlDataset& train, const MlDataset& valid,
                             uint64_t seed) {
  ModelAccuracyUtility utility(ProxyFactory("gaussian_nb"), train, valid);
  Rng rng(seed);
  constexpr size_t kCoalitions = 64;
  std::vector<std::vector<size_t>> coalitions(kCoalitions);
  for (std::vector<size_t>& coalition : coalitions) {
    for (size_t unit = 0; unit < utility.num_units(); ++unit) {
      if (rng.NextDouble() < 0.5) coalition.push_back(unit);
    }
  }
  double sink = 0.0;
  int64_t start = NowNs();
  for (const std::vector<size_t>& coalition : coalitions) {
    sink += utility.Evaluate(coalition);
  }
  int64_t elapsed = NowNs() - start;
  volatile double keep = sink;
  (void)keep;
  return static_cast<double>(kCoalitions) * 1e9 /
         static_cast<double>(std::max<int64_t>(elapsed, 1));
}

}  // namespace e2e
}  // namespace nde
