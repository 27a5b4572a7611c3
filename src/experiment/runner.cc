#include "experiment/runner.h"

#include <cstdio>
#include <utility>

#include "baselines/historical_average.h"
#include "baselines/linear_svr.h"
#include "baselines/var.h"
#include "common/thread_pool.h"
#include "data/synthetic_traffic.h"
#include "experiment/metrics_sink.h"
#include "experiment/protocol.h"
#include "experiment/registry.h"
#include "experiment/regression_gate.h"
#include "experiment/serving.h"
#include "graph/sensor_graph.h"
#include "train/evaluator.h"

namespace d2stgnn::experiment {
namespace {

// ---------------------------------------------------------------------------
// Spec -> typed configurations. Every key a kind understands is consumed
// here, in ParseServingConfig (serving.cc), or in the Resolve* calls, so
// Spec::Validate() afterwards reports exactly the keys nobody understands.

struct TrainingConfig {
  std::vector<std::string> datasets;
  std::vector<std::string> models;
  float scale = 0.06f;
  std::string scenario = "standard";
  BenchEnv env;
};

TrainingConfig ParseTrainingConfig(const Spec& spec) {
  TrainingConfig config;
  config.datasets = spec.GetList("data", "datasets");
  config.scale = static_cast<float>(spec.GetDouble("data", "scale", 0.06));
  config.models = spec.GetList("models", "names");
  config.scenario = spec.GetString("trainer", "scenario", "standard");
  BenchEnv& env = config.env;
  env.scale = config.scale;
  env.epochs = spec.GetInt("trainer", "epochs", env.epochs);
  env.batch_size = spec.GetInt("trainer", "batch_size", env.batch_size);
  env.hidden_dim = spec.GetInt("trainer", "hidden_dim", env.hidden_dim);
  env.embed_dim = spec.GetInt("trainer", "embed_dim", env.embed_dim);
  env.train_samples =
      spec.GetInt("trainer", "train_samples", env.train_samples);
  env.eval_samples = spec.GetInt("trainer", "eval_samples", env.eval_samples);
  env.seed = static_cast<uint64_t>(
      spec.GetInt("trainer", "seed", static_cast<int64_t>(env.seed)));
  env.threads = GetNumThreads();
  return config;
}

struct DatasetConfig {
  std::vector<std::string> datasets;
  float scale = 0.06f;
};

DatasetConfig ParseDatasetConfig(const Spec& spec) {
  DatasetConfig config;
  config.datasets = spec.GetList("data", "datasets");
  config.scale = static_cast<float>(spec.GetDouble("data", "scale", 0.06));
  return config;
}

// ---------------------------------------------------------------------------
// Matrix expansion (shared by --dry-run, tests, and the run itself).

bool ExpandTraining(const Spec& spec, const TrainingConfig& config,
                    std::vector<std::string>* cells, std::string* error) {
  if (config.datasets.empty()) {
    *error = "[data] datasets lists no datasets";
    return false;
  }
  if (config.models.empty()) {
    *error = "[models] names lists no models";
    return false;
  }
  train::TrainerOptions probe;
  if (!ApplyTrainerScenario(config.scenario, &probe, error)) return false;
  for (const std::string& dataset : config.datasets) {
    data::DatasetPreset preset;
    if (!ResolveDataset(dataset, config.scale, spec, &preset, error)) {
      return false;
    }
    for (const std::string& model : config.models) {
      ModelEntry entry;
      if (!ResolveModel(model, &entry, error)) return false;
      cells->push_back("dataset=" + dataset + " model=" + model);
    }
  }
  return true;
}


bool ExpandDataset(const Spec& spec, const DatasetConfig& config,
                   std::vector<std::string>* cells, std::string* error) {
  if (config.datasets.empty()) {
    *error = "[data] datasets lists no datasets";
    return false;
  }
  for (const std::string& dataset : config.datasets) {
    data::DatasetPreset preset;
    if (!ResolveDataset(dataset, config.scale, spec, &preset, error)) {
      return false;
    }
    cells->push_back("dataset=" + dataset);
  }
  return true;
}

// ---------------------------------------------------------------------------
// kind = training

json::Value HorizonRecord(const std::string& dataset,
                          const std::string& model,
                          const std::vector<train::HorizonMetrics>& horizons) {
  json::Value record = json::Value::Object();
  record.Set("dataset", json::Value::Str(dataset));
  record.Set("model", json::Value::Str(model));
  for (const train::HorizonMetrics& h : horizons) {
    // Built with += (not operator+ chaining): GCC 12's -Wrestrict trips a
    // false positive on `"h" + std::to_string(...)` under -Werror.
    std::string prefix = "h";
    prefix += std::to_string(h.horizon);
    prefix += '_';
    record.Set(prefix + "mae", json::Value::Number(h.metrics.mae));
    record.Set(prefix + "rmse", json::Value::Number(h.metrics.rmse));
    record.Set(prefix + "mape", json::Value::Number(h.metrics.mape));
  }
  return record;
}

bool RunTraining(const Spec& spec, const TrainingConfig& config,
                 MetricsSink* sink, std::string* error) {
  int64_t cell = 0;
  const int64_t total = static_cast<int64_t>(config.datasets.size()) *
                        static_cast<int64_t>(config.models.size());
  std::string best_model;
  double best_h12_mae = 0.0;
  for (const std::string& dataset_name : config.datasets) {
    data::DatasetPreset preset;
    if (!ResolveDataset(dataset_name, config.scale, spec, &preset, error)) {
      return false;
    }
    const PreparedDataset prepared = PrepareDataset(preset, config.env);
    const Tensor test_truth =
        GatherTargets(prepared.dataset(), prepared.splits.test, 12, 12);

    for (const std::string& model_name : config.models) {
      ModelEntry entry;
      if (!ResolveModel(model_name, &entry, error)) return false;
      std::printf("[%lld/%lld] dataset=%s model=%s\n",
                  static_cast<long long>(++cell),
                  static_cast<long long>(total), dataset_name.c_str(),
                  model_name.c_str());
      std::fflush(stdout);

      json::Value record;
      if (entry.family == "statistical") {
        Tensor prediction;
        if (entry.name == "HA") {
          baselines::HistoricalAverage ha;
          ha.Fit(prepared.dataset(), prepared.train_steps);
          prediction =
              ha.Predict(prepared.dataset(), prepared.splits.test, 12, 12);
        } else if (entry.name == "VAR") {
          baselines::Var var(3);
          var.Fit(prepared.dataset(), prepared.train_steps);
          prediction =
              var.Predict(prepared.dataset(), prepared.splits.test, 12, 12);
        } else {  // SVR
          baselines::LinearSvr svr;
          svr.Fit(prepared.dataset(), prepared.train_steps, 12, 12);
          prediction =
              svr.Predict(prepared.dataset(), prepared.splits.test, 12, 12);
        }
        const auto horizons =
            train::EvaluatePredictionHorizons(prediction, test_truth);
        record = HorizonRecord(dataset_name, model_name, horizons);
        record.Set("params", json::Value::Int(0));
        record.Set("epoch_seconds", json::Value::Number(0.0));
        if (best_model.empty()) {
          best_model = model_name;
          best_h12_mae = horizons.back().metrics.mae;
        }
      } else {
        baselines::ModelConfig model_config;
        model_config.num_nodes = prepared.dataset().num_nodes();
        model_config.hidden_dim = config.env.hidden_dim;
        model_config.embed_dim = config.env.embed_dim;
        model_config.steps_per_day = prepared.dataset().steps_per_day;
        Rng rng(config.env.seed);
        auto model =
            BuildModel(entry, model_config,
                       prepared.dataset().network.adjacency, rng, error);
        if (model == nullptr) return false;
        const std::string scenario = config.scenario;
        const TrainedModelResult result = TrainAndEvaluateModel(
            model.get(), prepared, config.env,
            [&](train::TrainerOptions* options) {
              std::string scenario_error;
              ApplyTrainerScenario(scenario, options, &scenario_error);
              if (entry.disable_curriculum) {
                options->curriculum_learning = false;
              }
            });
        record = HorizonRecord(dataset_name, model_name, result.horizons);
        record.Set("params", json::Value::Int(result.parameter_count));
        record.Set("epoch_seconds",
                   json::Value::Number(result.mean_epoch_seconds));
        const double h12 = result.horizons.back().metrics.mae;
        if (best_model.empty() || h12 < best_h12_mae) {
          best_model = model_name;
          best_h12_mae = h12;
        }
      }
      sink->AddRecord(std::move(record));
    }
  }
  sink->SetSummary("datasets",
                   json::Value::Int(static_cast<int64_t>(
                       config.datasets.size())));
  sink->SetSummary("models", json::Value::Int(static_cast<int64_t>(
                                 config.models.size())));
  sink->SetSummary("best_model", json::Value::Str(best_model));
  sink->SetSummary("best_h12_mae", json::Value::Number(best_h12_mae));
  return true;
}


// ---------------------------------------------------------------------------
// kind = dataset (Table 2)

struct PaperDatasetRow {
  const char* type;
  const char* name;
  int64_t nodes, edges, steps;
};

constexpr PaperDatasetRow kPaperRows[] = {
    {"Speed", "METR-LA", 207, 1722, 34272},
    {"Speed", "PEMS-BAY", 325, 2694, 52116},
    {"Flow", "PEMS04", 307, 680, 16992},
    {"Flow", "PEMS08", 170, 548, 17856},
};

bool RunDataset(const Spec& spec, const DatasetConfig& config,
                MetricsSink* sink, std::string* error) {
  for (const std::string& name : config.datasets) {
    data::DatasetPreset preset;
    if (!ResolveDataset(name, config.scale, spec, &preset, error)) {
      return false;
    }
    const data::SyntheticTraffic traffic =
        data::GenerateSyntheticTraffic(preset.options);
    const auto& dataset = traffic.dataset;
    json::Value record = json::Value::Object();
    record.Set("dataset", json::Value::Str(name));
    record.Set("nodes", json::Value::Int(dataset.num_nodes()));
    record.Set("edges", json::Value::Int(
                            graph::CountEdges(dataset.network.adjacency)));
    record.Set("steps", json::Value::Int(dataset.num_steps()));
    for (const PaperDatasetRow& row : kPaperRows) {
      if (name == row.name) {
        record.Set("type", json::Value::Str(row.type));
        record.Set("paper_nodes", json::Value::Int(row.nodes));
        record.Set("paper_edges", json::Value::Int(row.edges));
        record.Set("paper_steps", json::Value::Int(row.steps));
      }
    }
    sink->AddRecord(std::move(record));
  }
  sink->SetSummary("datasets", json::Value::Int(static_cast<int64_t>(
                                   config.datasets.size())));
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------

bool ExpandMatrix(const Spec& spec, std::vector<std::string>* cells,
                  std::string* error) {
  cells->clear();
  const std::string kind = spec.GetString("experiment", "kind", "");
  if (kind == "training") {
    return ExpandTraining(spec, ParseTrainingConfig(spec), cells, error);
  }
  if (kind == "serving") {
    return ExpandServing(ParseServingConfig(spec), cells, error);
  }
  if (kind == "dataset") {
    return ExpandDataset(spec, ParseDatasetConfig(spec), cells, error);
  }
  *error = "[experiment] kind must be training, serving, or dataset, got '" +
           kind + "'";
  return false;
}

RunResult RunSpec(const Spec& spec, const RunOptions& options) {
  RunResult result;
  result.experiment = spec.GetString("experiment", "name", "");
  result.kind = spec.GetString("experiment", "kind", "");
  if (result.experiment.empty()) {
    result.error = "[experiment] name is required";
    return result;
  }

  // Consume the [output] keys up front so Validate() sees them as known.
  const std::string out_file = spec.GetString(
      "output", "file", "BENCH_" + result.experiment + ".json");
  std::string baseline_path = spec.GetString("output", "baseline", "");
  if (!options.baseline_path.empty()) baseline_path = options.baseline_path;
  if (baseline_path == "none") baseline_path.clear();

  std::vector<std::string> cells;
  if (!ExpandMatrix(spec, &cells, &result.error)) return result;
  result.cells = static_cast<int64_t>(cells.size());

  // Every key the kind understands has been consumed; anything left is a
  // typo the run must refuse (satellite: unknown keys rejected with line
  // numbers).
  const std::string validation = spec.Validate();
  if (!validation.empty()) {
    result.error = "spec validation failed:\n" + validation;
    return result;
  }

  if (options.dry_run) {
    result.ok = true;
    std::string listing;
    for (const std::string& cell : cells) listing += "  " + cell + "\n";
    result.table = "matrix (" + std::to_string(cells.size()) + " cells):\n" +
                   listing;
    return result;
  }

  MetricsSink sink(result.experiment, result.kind);
  bool ran = false;
  if (result.kind == "training") {
    ran = RunTraining(spec, ParseTrainingConfig(spec), &sink, &result.error);
  } else if (result.kind == "serving") {
    ran = RunServing(ParseServingConfig(spec), &sink, &result.error);
  } else {
    ran = RunDataset(spec, ParseDatasetConfig(spec), &sink, &result.error);
  }
  if (!ran) return result;

  result.table = sink.RenderTable();
  const std::string dir = options.out_dir.empty() ? "." : options.out_dir;
  result.json_path = dir + "/" + out_file;
  if (!sink.WriteJson(result.json_path, &result.error)) return result;

  if (!baseline_path.empty()) {
    json::Value baseline;
    if (!json::Value::ParseFile(baseline_path, &baseline, &result.error)) {
      return result;
    }
    GateReport report;
    if (!CheckAgainstBaseline(sink.ToJson(), baseline, &report,
                              &result.error)) {
      result.error = baseline_path + ": " + result.error;
      return result;
    }
    result.gate_report = report.ToString();
    if (!report.ok) {
      result.gate_violation = true;
      result.error = result.gate_report;
      return result;
    }
  }
  result.ok = true;
  return result;
}

}  // namespace d2stgnn::experiment
