// End-to-end importance benchmark binary. See README.md in this directory
// for the workloads, the metrics and how to run it; run.py builds this
// binary and invokes it.
//
//   nde_e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>] [--git-rev <rev>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer ledger. Either way the
// last stdout line is one JSON object {"correct","attempted","failed",
// "metrics"}, and the exit code is non-zero when any op's output differs
// from its reference.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "job_loop.h"
#include "ledger.h"
#include "nde/registry.h"
#include "telemetry/trace.h"
#include "workload.h"

namespace nde {
namespace e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string git_rev = "unknown";
};

/// Set-up passes per run; setup_s is their median.
constexpr int kSetupPasses = 3;
/// Generated tables per run. Ops cycle through them, so one run's figures
/// average over several inputs of the same shape instead of hanging on one.
constexpr size_t kTablesPerRun = 3;
/// Job manager workers (the client side is fixed in job_loop.h).
constexpr size_t kJobWorkers = 2;
/// Utility-layer probes run on at most this many training / validation rows
/// of the workload's first table, so they cost the same on every workload.
constexpr size_t kProbeTrainRows = 2400;
constexpr size_t kProbeValidRows = 600;
/// Minimum layer coverage of a traced op (children / root span).
constexpr double kMinTraceCoverage = 0.95;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// The highest percentile, at most p90, with at least ten samples beyond
/// it. Returns the value and writes the percentile used.
double TailPercentile(std::vector<double> values, double* percentile) {
  *percentile = 0.0;
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  size_t p90 = static_cast<size_t>(std::ceil(0.9 * static_cast<double>(n)));
  size_t index = std::min(p90 == 0 ? 0 : p90 - 1, n > 10 ? n - 11 : 0);
  *percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return values[index];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double value : values) sum += value;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Steady-clock time `seconds` from now.
int64_t Deadline(double seconds) {
  return NowNs() + static_cast<int64_t>(seconds * 1e9);
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// Host stamp carried by every result record and trace file.
std::string StampJson(const Args& args) {
  return "{\"workload\":\"" + telemetry::JsonEscape(args.workload) +
         "\",\"seed\":" + std::to_string(args.seed) +
         ",\"trace\":" + (args.trace ? "1" : "0") + ",\"cpu_model\":\"" +
         telemetry::JsonEscape(CpuModel()) +
         "\",\"nproc\":" + std::to_string(OnlineCpus()) +
         ",\"build_type\":\"" NDE_E2E_BUILD_TYPE "\",\"git_rev\":\"" +
         telemetry::JsonEscape(args.git_rev) + "\"}";
}

/// Seed of table `index` of a run: splitmix64 of the run seed, so runs with
/// neighbouring seeds share no table.
uint64_t TableSeed(uint64_t run_seed, size_t index) {
  uint64_t z = run_seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0xffffffffULL;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  bool checks_ok = true;  ///< benchmark checks beyond per-op outputs
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< extra human-readable lines
  std::vector<double> op_ms;       ///< every timed op, in order (record only)
};

/// Everything set-up produces: the run's tables with their references and,
/// for the job workload, a started server and the POST bodies.
struct Setup {
  std::vector<WorkloadInput> inputs;
  std::vector<std::string> bodies;
  std::unique_ptr<JobServer> server;
  std::vector<double> pass_seconds;
};

/// One op through the public engine, checked against its reference.
bool CheckedTableOp(const WorkloadSpec& spec, const WorkloadInput& input,
                    double* ms) {
  int64_t start = NowNs();
  Result<TableRunResult> result = RunTableOp(spec, input, spec.num_threads);
  *ms = static_cast<double>(NowNs() - start) / 1e6;
  if (!result.ok()) {
    std::fprintf(stderr, "op failed: %s\n",
                 result.status().ToString().c_str());
    return false;
  }
  if (!SameResult(*result, input.reference)) {
    std::fprintf(stderr, "op output differs from its reference\n");
    return false;
  }
  return true;
}

Status SetupPass(const WorkloadSpec& spec, const Args& args, Setup* setup) {
  setup->inputs.clear();
  setup->bodies.clear();
  setup->server.reset();
  for (size_t t = 0; t < kTablesPerRun; ++t) {
    NDE_ASSIGN_OR_RETURN(WorkloadInput input,
                         MakeInput(spec, TableSeed(args.seed, t)));
    setup->inputs.push_back(std::move(input));
  }
  // Warm-up through the path the run times (the references already ran
  // every table once): one checked op, or one job per table.
  if (spec.over_http) {
    setup->server = std::make_unique<JobServer>(kJobWorkers);
    NDE_RETURN_IF_ERROR(setup->server->Start());
    for (const WorkloadInput& input : setup->inputs) {
      setup->bodies.push_back(JobBody(spec, input));
    }
    JobLoopOptions warm;
    warm.submit_until_ns = INT64_MAX;
    warm.max_jobs = setup->inputs.size();
    JobLoopResult result =
        RunJobLoop(setup->server.get(), setup->inputs, setup->bodies, warm);
    if (result.failed != 0) return Status::Internal("warm-up job failed");
  } else {
    double ms = 0.0;
    if (!CheckedTableOp(spec, setup->inputs[0], &ms)) {
      return Status::Internal("warm-up op failed");
    }
  }
  return Status::OK();
}

Status RunSetup(const WorkloadSpec& spec, const Args& args, Setup* setup) {
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    int64_t start = NowNs();
    NDE_RETURN_IF_ERROR(SetupPass(spec, args, setup));
    setup->pass_seconds.push_back(SecondsSince(start));
  }
  return Status::OK();
}

double MeanRecall(const Setup& setup) {
  double sum = 0.0;
  for (const WorkloadInput& input : setup.inputs) sum += input.detect_recall;
  return sum / static_cast<double>(setup.inputs.size());
}

/// --trace 0: the end-to-end metrics, tracing off.
Outcome RunEndToEnd(const WorkloadSpec& spec, const Args& args,
                    Setup* setup) {
  Outcome out;
  std::vector<double> op_ms;
  double wall_s = 0.0;
  int64_t deadline = Deadline(args.seconds);
  if (spec.over_http) {
    JobLoopOptions options;
    options.submit_until_ns = deadline;
    JobLoopResult result = RunJobLoop(setup->server.get(), setup->inputs,
                                      setup->bodies, options);
    out.attempted = result.attempted;
    out.failed = result.failed;
    for (const JobRecord& job : result.jobs) {
      if (job.ok) op_ms.push_back(job.op_ms);
    }
    wall_s = result.wall_s;
  } else {
    int64_t start = NowNs();
    for (size_t op = 0; NowNs() < deadline; ++op) {
      double ms = 0.0;
      ++out.attempted;
      if (CheckedTableOp(spec, setup->inputs[op % setup->inputs.size()],
                         &ms)) {
        op_ms.push_back(ms);
      } else {
        ++out.failed;
      }
    }
    wall_s = SecondsSince(start);
  }

  out.op_ms = op_ms;
  double percentile = 0.0;
  double tail = TailPercentile(op_ms, &percentile);
  out.metrics = {
      {"setup_s", Median(setup->pass_seconds), "s"},
      {"op_ms_p50", Median(op_ms), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  char line[160];
  std::snprintf(line, sizeof(line),
                "error_rate = %.6f (%zu of %zu ops failed, refused or "
                "mismatched)",
                out.attempted == 0 ? 0.0
                                   : static_cast<double>(out.failed) /
                                         static_cast<double>(out.attempted),
                out.failed, out.attempted);
  out.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "op_ms_p90 = %.6g ms (the p%.1f of %zu ops; not gated)",
                tail, percentile, op_ms.size());
  out.notes.push_back(line);
  std::snprintf(line, sizeof(line), "ops_per_s = %.6g 1/s (not gated)",
                static_cast<double>(op_ms.size()) / wall_s);
  out.notes.push_back(line);
  return out;
}

/// Runs the workload's algorithm directly on `split` (the first table's) at
/// `num_threads`; returns milliseconds, or a negative value when the run
/// fails or its estimate differs from the table's reference.
double TimeEstimator(const WorkloadSpec& spec, const WorkloadInput& input,
                     const PreparedSplit& split, size_t num_threads,
                     double* cpu_s) {
  Result<std::unique_ptr<AlgorithmInstance>> algorithm =
      AlgorithmRegistry::Global().Create(spec.algorithm);
  if (!algorithm.ok()) return -1.0;
  Result<std::map<std::string, std::string>> options =
      OpOptions(spec, input.estimator_seed, num_threads);
  if (!options.ok() || !(*algorithm)->ConfigureAll(*options).ok()) return -1.0;
  RunInput run_input;
  run_input.train = &split.train;
  run_input.validation = &split.valid;
  run_input.pipeline_output = &split.output;
  run_input.num_source_rows = split.table.num_rows();
  double cpu_start = ProcessCpuSeconds();
  int64_t start = NowNs();
  Result<ImportanceEstimate> estimate = (*algorithm)->Run(run_input);
  double ms = static_cast<double>(NowNs() - start) / 1e6;
  *cpu_s = ProcessCpuSeconds() - cpu_start;
  if (!estimate.ok() || !SameEstimate(*estimate, input.reference.estimate)) {
    return -1.0;
  }
  return ms;
}

/// Per-op values of one ledger layer, in op order.
std::vector<double> LayerMs(const std::vector<Ledger::OpBreakdown>& ops,
                            const std::string& name) {
  std::vector<double> out;
  for (const Ledger::OpBreakdown& op : ops) {
    auto it = op.self_ns.find(name);
    out.push_back(it == op.self_ns.end() ? 0.0
                                         : static_cast<double>(it->second) /
                                               1e6);
  }
  return out;
}

/// --trace 1: the per-layer ledger and the layer probes.
Outcome RunTraced(const WorkloadSpec& spec, const Args& args, Setup* setup) {
  Outcome out;
  const std::vector<WorkloadInput>& inputs = setup->inputs;
  auto fail = [&](const char* what) {
    ++out.failed;
    std::fprintf(stderr, "traced run: %s\n", what);
  };

  // 1. Pairs of one untraced and one traced op on the same table, in
  //    alternating order. Every traced op is the public calls
  //    RunAlgorithmOnTable makes, and must reproduce its output.
  Ledger ledger;
  std::vector<double> untraced_ms, traced_ms, trace_overhead;
  std::vector<double> utility_evals, evals_per_s, csv_mb_per_s, rows_per_s;
  PreparedSplit first_split;
  int64_t ledger_deadline = Deadline(args.seconds * (spec.over_http ? 0.3 : 0.4));
  for (size_t op = 0; op < 3 || NowNs() < ledger_deadline; ++op) {
    const WorkloadInput& input = inputs[op % inputs.size()];
    double untraced = -1.0, traced = -1.0;
    for (int leg = 0; leg < 2; ++leg) {
      ++out.attempted;
      if ((leg == 0) == (op % 2 == 0)) {
        double ms = 0.0;
        if (CheckedTableOp(spec, input, &ms)) {
          untraced = ms;
          untraced_ms.push_back(ms);
        } else {
          fail("untraced op failed or mismatched");
        }
        continue;
      }
      int64_t start = NowNs();
      Result<TableRunResult> result = RunTableOpTraced(
          spec, input, spec.num_threads, &ledger, static_cast<int64_t>(op),
          op == 0 ? &first_split : nullptr);
      traced = static_cast<double>(NowNs() - start) / 1e6;
      traced_ms.push_back(traced);
      if (!result.ok() || !SameResult(*result, input.reference)) {
        fail("decomposed op differs from RunAlgorithmOnTable");
        traced = -1.0;
        continue;
      }
      utility_evals.push_back(
          static_cast<double>(result->estimate.utility_evaluations));
    }
    if (untraced > 0 && traced > 0) trace_overhead.push_back(traced / untraced);
  }
  std::vector<Ledger::OpBreakdown> ops = ledger.Breakdown();
  std::vector<double> parse = LayerMs(ops, "data.csv_parse");
  std::vector<double> execute = LayerMs(ops, "pipeline.execute");
  std::vector<double> estimator = LayerMs(ops, "importance.estimator");
  std::vector<double> coverage;
  for (size_t i = 0; i < ops.size(); ++i) {
    const WorkloadInput& input = inputs[i % inputs.size()];
    csv_mb_per_s.push_back(static_cast<double>(input.csv.size()) / 1e3 /
                           std::max(parse[i], 1e-6));
    rows_per_s.push_back(static_cast<double>(input.reference.train_rows +
                                             input.reference.valid_rows) *
                         1e3 / std::max(execute[i], 1e-6));
    if (i < utility_evals.size()) {
      evals_per_s.push_back(utility_evals[i] * 1e3 /
                            std::max(estimator[i], 1e-6));
    }
    double root = static_cast<double>(ops[i].root_ns);
    coverage.push_back((root - static_cast<double>(ops[i].self_ns.at(""))) /
                       std::max(root, 1.0));
  }
  double median_coverage = Median(coverage);
  if (median_coverage < kMinTraceCoverage) {
    out.checks_ok = false;
    std::fprintf(stderr,
                 "traced run: layers cover %.4f of the op, below %.2f\n",
                 median_coverage, kMinTraceCoverage);
  }

  if (first_split.train.size() == 0) {
    fail("first traced op produced no split; skipping the layer probes");
    return out;
  }

  // 2. Utility-layer probes on the first table's split, capped in size.
  auto first_rows = [](const MlDataset& data, size_t limit) {
    std::vector<size_t> rows(std::min(data.size(), limit));
    std::iota(rows.begin(), rows.end(), size_t{0});
    return data.Subset(rows);
  };
  MlDataset probe_train = first_rows(first_split.train, kProbeTrainRows);
  MlDataset probe_valid = first_rows(first_split.valid, kProbeValidRows);
  std::vector<double> full_utility, prefix_scan, retrain;
  for (int rep = 0; rep < 3; ++rep) {
    full_utility.push_back(FullUtilityMs(spec, probe_train, probe_valid));
    prefix_scan.push_back(
        PrefixScanEvalsPerSecond(probe_train, probe_valid, args.seed + rep));
    retrain.push_back(
        RetrainEvalsPerSecond(probe_train, probe_valid, args.seed + rep));
  }

  // 3. Multicore scaling of the estimator on the first table: 1 thread vs
  //    4 threads, alternating, with process CPU time during the 4-thread run.
  std::vector<double> one_thread, four_threads, busy;
  for (int rep = 0; rep < 3; ++rep) {
    double cpu_s = 0.0;
    double ms1 = TimeEstimator(spec, inputs[0], first_split, 1, &cpu_s);
    double ms4 = TimeEstimator(spec, inputs[0], first_split, 4, &cpu_s);
    out.attempted += 2;
    if (ms1 < 0 || ms4 < 0) {
      fail("estimator run failed or differs from the reference");
      continue;
    }
    one_thread.push_back(ms1);
    four_threads.push_back(ms4);
    busy.push_back(cpu_s / (ms4 / 1e3 * 4.0));
  }

  // 4. Telemetry cost: the same op with the runtime switch off and on, in
  //    alternating order.
  std::vector<double> telemetry_cost;
  int64_t telemetry_deadline = Deadline(args.seconds * 0.2);
  for (size_t pair = 0; pair < 3 || NowNs() < telemetry_deadline; ++pair) {
    const WorkloadInput& input = inputs[pair % inputs.size()];
    double ms_on = -1.0, ms_off = -1.0;
    for (int leg = 0; leg < 2; ++leg) {
      bool on = (leg == 0) == (pair % 2 == 1);
      telemetry::SetEnabled(on);
      double ms = 0.0;
      bool ok = CheckedTableOp(spec, input, &ms);
      telemetry::SetEnabled(false);
      telemetry::TraceBuffer::Global().Clear();
      ++out.attempted;
      if (!ok) {
        fail("op failed with telemetry toggled");
        continue;
      }
      (on ? ms_on : ms_off) = ms;
    }
    if (ms_on > 0 && ms_off > 0) telemetry_cost.push_back(ms_on / ms_off);
  }

  // 5. The job API. On the job workload this is its own closed loop; the
  //    table workloads send their op as a few jobs. Telemetry is on so each
  //    job's pool_task span gives its queue wait and execution time.
  std::unique_ptr<JobServer> probe_server;
  JobServer* server = setup->server.get();
  std::vector<std::string> bodies = setup->bodies;
  if (server == nullptr) {
    probe_server = std::make_unique<JobServer>(kJobWorkers);
    if (!probe_server->Start().ok()) fail("job server did not start");
    server = probe_server.get();
    for (const WorkloadInput& input : inputs) {
      bodies.push_back(JobBody(spec, input));
    }
  }
  JobLoopOptions job_options;
  job_options.traced = true;
  if (spec.over_http) {
    job_options.submit_until_ns = Deadline(args.seconds * 0.3);
  } else {
    job_options.submit_until_ns = INT64_MAX;
    job_options.max_jobs = kJobsOutstanding;
  }
  telemetry::TraceBuffer::Global().Clear();
  telemetry::SetEnabled(true);
  JobLoopResult jobs = RunJobLoop(server, inputs, bodies, job_options);
  telemetry::SetEnabled(false);
  telemetry::TraceBuffer::Global().Clear();
  out.attempted += jobs.attempted;
  out.failed += jobs.failed;
  size_t done = 0;
  std::vector<double> job_ms;
  for (const JobRecord& job : jobs.jobs) {
    if (!job.ok) continue;
    ++done;
    job_ms.push_back(job.op_ms);
  }
  // The workload's own ops: the untraced table ops of step 1 (one at a
  // time), or the jobs of the job workload's job loop.
  double percentile = 0.0;
  double tail = TailPercentile(spec.over_http ? job_ms : untraced_ms,
                               &percentile);
  double ops_per_s =
      spec.over_http
          ? static_cast<double>(done) / std::max(jobs.wall_s, 1e-9)
          : static_cast<double>(untraced_ms.size()) * 1e3 /
                std::max(std::accumulate(untraced_ms.begin(),
                                         untraced_ms.end(), 0.0),
                         1e-9);

  out.metrics = {
      {"op_ms_p90", tail, "ms"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"data.csv_parse_ms", Median(parse), "ms"},
      {"data.csv_mb_per_s", Median(csv_mb_per_s), "MB/s"},
      {"pipeline.fit_transformer_ms",
       Median(LayerMs(ops, "pipeline.fit_transformer")), "ms"},
      {"pipeline.execute_ms", Median(execute), "ms"},
      {"pipeline.rows_per_s", Median(rows_per_s), "rows/s"},
      {"ml.split_ms", Median(LayerMs(ops, "ml.split")), "ms"},
      {"ml.prefix_scan_evals_per_s", Median(prefix_scan), "1/s"},
      {"ml.retrain_evals_per_s", Median(retrain), "1/s"},
      {"importance.full_utility_ms", Median(full_utility), "ms"},
      {"importance.estimator_ms", Median(estimator), "ms"},
      {"importance.utility_evals", Median(utility_evals), "count"},
      {"importance.evals_per_s", Median(evals_per_s), "1/s"},
      {"common.parallel_speedup_4t",
       Median(one_thread) / std::max(Median(four_threads), 1e-9), "x"},
      {"common.cpu_busy_share", Median(busy), "share"},
      {"cleaning.rank_ms", Median(LayerMs(ops, "cleaning.rank")), "ms"},
      {"nde.engine_self_ms", Median(LayerMs(ops, "")), "ms"},
      {"nde.job_submit_ms", Mean(jobs.submit_ms), "ms"},
      {"nde.job_poll_ms", Mean(jobs.poll_ms), "ms"},
      {"nde.job_queue_wait_ms", Median(jobs.queue_wait_ms), "ms"},
      {"nde.job_exec_ms", Median(jobs.exec_ms), "ms"},
      {"nde.job_polls_per_done",
       done == 0 ? 0.0
                 : static_cast<double>(jobs.polls) / static_cast<double>(done),
       "count"},
      {"telemetry.http_transport_ms", Median(jobs.transport_ms), "ms"},
      {"telemetry.on_overhead_share", Median(telemetry_cost) - 1.0, "share"},
      {"bench.trace_coverage", median_coverage, "share"},
      {"bench.trace_overhead_share", Median(trace_overhead) - 1.0, "share"},
      {"detect_recall", MeanRecall(*setup), "share"},
  };
  char line[160];
  std::snprintf(line, sizeof(line),
                "ledger: %zu traced ops; %zu telemetry pairs; %zu jobs (%zu "
                "done)",
                traced_ms.size(), telemetry_cost.size(), jobs.attempted, done);
  out.notes.push_back(line);

  if (!args.out_dir.empty()) {
    std::string path = args.out_dir + "/trace_" + spec.name + "_seed" +
                       std::to_string(args.seed) + ".json";
    Status written = ledger.WriteJson(path, StampJson(args));
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
    } else {
      out.notes.push_back("spans written to " + path);
    }
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-rev") {
      args->git_rev = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return json + "}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nde_e2e_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--git-rev <rev>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const WorkloadSpec& known : Workloads()) {
      std::fprintf(stderr, " %s", known.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  telemetry::SetEnabled(false);

  Setup setup;
  Status status = RunSetup(*spec, args, &setup);
  if (!status.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    return 1;
  }
  Outcome outcome = args.trace ? RunTraced(*spec, args, &setup)
                               : RunEndToEnd(*spec, args, &setup);
  setup.server.reset();

  if (outcome.attempted == 0) {  // nothing ran: count the run as one failure
    outcome.attempted = 1;
    outcome.failed = 1;
  }
  bool correct = outcome.failed == 0 && outcome.checks_ok;
  std::string stamp = StampJson(args);
  std::printf("host: %s\n", stamp.c_str());
  for (const Metric& metric : outcome.metrics) {
    std::printf("%-30s = %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& note : outcome.notes) std::printf("%s\n", note.c_str());

  std::string metrics = MetricsJson(outcome.metrics);
  if (!args.out_dir.empty()) {
    std::ofstream record(args.out_dir + "/results.jsonl", std::ios::app);
    record << "{\"stamp\": " << stamp
           << ", \"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << outcome.attempted
           << ", \"failed\": " << outcome.failed << ", \"metrics\": " << metrics
           << ", \"op_ms\": [";
    for (size_t i = 0; i < outcome.op_ms.size(); ++i) {
      record << (i > 0 ? "," : "") << outcome.op_ms[i];
    }
    record << "]}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", outcome.attempted,
              outcome.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace nde

int main(int argc, char** argv) { return nde::e2e::Main(argc, argv); }
