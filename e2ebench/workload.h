#ifndef NDE_E2EBENCH_WORKLOAD_H_
#define NDE_E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/table.h"
#include "ledger.h"
#include "ml/dataset.h"
#include "nde/engine.h"
#include "pipeline/pipeline.h"

namespace nde {
namespace e2e {

/// One benchmark workload: which table the seed generates and which
/// registry algorithm each op runs over it.
struct WorkloadSpec {
  std::string name;
  enum class Scenario { kCredit, kHiring } scenario = Scenario::kCredit;
  size_t rows = 0;
  std::string label;
  std::string algorithm;
  /// Registry options besides seed and num_threads.
  std::map<std::string, std::string> options;
  /// num_threads of a timed op (ignored by algorithms without that option).
  size_t num_threads = 1;
  /// Ops go through POST /jobs instead of in-process calls.
  bool over_http = false;
  /// Proxy model of the utility-layer probes ("knn" or "gaussian_nb").
  std::string probe_model;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// One generated table and everything the checks need about it.
struct WorkloadInput {
  std::string csv;
  std::vector<size_t> flipped_rows;  ///< source rows whose label was flipped
  uint64_t estimator_seed = 0;
  /// RunAlgorithmOnTable at num_threads=1, made at set-up.
  TableRunResult reference;
  double detect_recall = 0.0;
};

/// Generates the table for `seed` (CSV text plus injected flips) and
/// computes its reference result, which must pass CheckRanking.
Result<WorkloadInput> MakeInput(const WorkloadSpec& spec, uint64_t seed);

/// The registry options of one op of `spec` at `num_threads`.
Result<std::map<std::string, std::string>> OpOptions(
    const WorkloadSpec& spec, uint64_t estimator_seed, size_t num_threads);

/// One untraced op through the public engine: ReadCsvString, registry
/// Create + ConfigureAll, RunAlgorithmOnTable.
Result<TableRunResult> RunTableOp(const WorkloadSpec& spec,
                                  const WorkloadInput& input,
                                  size_t num_threads);

/// The table and split an op produces before its estimator runs.
struct PreparedSplit {
  Table table;
  PipelineOutput output;
  std::vector<size_t> train_rows;
  MlDataset train;
  MlDataset valid;
};

/// The same op as RunTableOp, re-done as the public calls
/// RunAlgorithmOnTable makes, with a ledger span around each. Spans (root
/// "op"): data.csv_parse, pipeline.fit_transformer, pipeline.execute,
/// ml.split, importance.estimator, cleaning.rank. Registry Create and
/// Configure stay in the root's self time.
/// `prepared` (optional) receives the split.
Result<TableRunResult> RunTableOpTraced(const WorkloadSpec& spec,
                                        const WorkloadInput& input,
                                        size_t num_threads, Ledger* ledger,
                                        int64_t op,
                                        PreparedSplit* prepared = nullptr);

/// Checks of a result that do not rely on another run of the program: sizes
/// agree with the split, values are finite, ranked rows are distinct source
/// rows, and (when no row was filtered out) they are in ascending value
/// order, ties by row.
Status CheckRanking(const TableRunResult& result, size_t source_rows);

/// Bit-identical values and std errors, and the same abort flag.
bool SameEstimate(const ImportanceEstimate& a, const ImportanceEstimate& b);

/// SameEstimate plus identical ranked rows and split sizes.
bool SameResult(const TableRunResult& a, const TableRunResult& b);

/// Share of the flipped rows present in `ranked_rows` that rank among the
/// first |those flips| entries.
double DetectRecall(const std::vector<uint32_t>& ranked_rows,
                    const std::vector<size_t>& flipped_rows);

/// --- Utility-layer probes (traced run) ---------------------------------

/// Milliseconds of one serial v(N) on the split under the workload's proxy
/// model.
double FullUtilityMs(const WorkloadSpec& spec, const MlDataset& train,
                     const MlDataset& valid);

/// 1-thread exact KNN prefix-scan pushes per second over one fixed
/// permutation of the training units.
double PrefixScanEvalsPerSecond(const MlDataset& train, const MlDataset& valid,
                                uint64_t seed);

/// 1-thread Gaussian-NB retrain-from-scratch Evaluate calls per second on
/// fixed random coalitions (each unit joins with probability 1/2).
double RetrainEvalsPerSecond(const MlDataset& train, const MlDataset& valid,
                             uint64_t seed);

}  // namespace e2e
}  // namespace nde

#endif  // NDE_E2EBENCH_WORKLOAD_H_
