// perfbench: runs one paper-scale workload in this process and prints every
// metric by name with its unit; the last stdout line is the JSON result.
//
//   perfbench --workload serve-metr-la|train-pems04|fleet-reload
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//   perfbench --list-metrics
//
// Exit codes: 0 all checks passed; 1 a correctness check failed (the result
// line says correct=false); 2 bad arguments; 3 the thread plan would exceed
// nproc (refused before any work, no result line).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve-metr-la|train-pems04|fleet-reload --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n       perfbench --list-metrics\n",
               why.c_str());
  return 2;
}

std::string SpecJson(const std::vector<std::pair<std::string, std::string>>& spec) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < spec.size(); ++i) {
    out << (i ? ", " : "") << "{\"name\": \"" << spec[i].first
        << "\", \"unit\": \"" << spec[i].second << "\"}";
  }
  out << "]";
  return out.str();
}

std::string MetricsJson(const MetricSet& set) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const Metric& m : set.all()) {
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << JsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

/// The thread plan of each workload: a one-thread kernel pool (serving: its
/// caller is the dispatcher) beside one generator thread for serving and one
/// reload thread for the fleet. On shared 4-vCPU hosts every end-to-end
/// time run on a wider pool followed the host's load: the serving p50
/// spread 20 % (IQR/median, 10 runs) at 2 pool threads, the fleet's 48 %,
/// and the training step's 3 % in one hour and 21 % in the next at 4,
/// since each of a forward's ~450 ParallelFor calls waits for a worker
/// wake-up. Thread scaling is measured per layer instead (layer_pass.cc).
bool PlanThreads(const std::string& workload, RunEnv* env) {
  env->pool_threads = 1;
  if (workload == "train-pems04") return true;
  if (workload == "serve-metr-la") {
    env->generator_threads = 1;
  } else if (workload == "fleet-reload") {
    env->generator_threads = 1;
    env->reload_threads = 1;
  } else {
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  NowS();  // time origin: process start, for all practical purposes
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n",
                  SpecJson(EndToEndMetricSpec()).c_str(),
                  SpecJson(PerLayerMetricSpec()).c_str());
      return 0;
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--write-reference") {
      args.write_reference = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  args.env = DetectRunEnv();
  if (!PlanThreads(args.workload, &args.env)) {
    return Usage("unknown workload '" + args.workload + "'");
  }
  std::printf("env nproc=%d hardware_concurrency=%d backend=%s detected=%s "
              "cpu=[%s] build=%s threads: pool=%d generator=%d reload=%d\n",
              args.env.nproc, args.env.hardware_concurrency,
              args.env.active_backend.c_str(),
              args.env.detected_backend.c_str(),
              args.env.cpu_features.c_str(), args.env.build_type.c_str(),
              args.env.pool_threads, args.env.generator_threads,
              args.env.reload_threads);
  const std::string budget = CheckThreadBudget(args.env);
  if (!budget.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", budget.c_str());
    return 3;
  }
  std::filesystem::create_directories(args.out_dir);
  d2stgnn::SetLogThreshold(d2stgnn::LogLevel::kWarning);

  Report report;
  if (args.workload == "serve-metr-la") {
    report = RunServeMetrLa(args);
  } else if (args.workload == "train-pems04") {
    report = RunTrainPems04(args);
  } else {
    report = RunFleetReload(args);
  }

  // Every run reports every metric of its kind, as BENCHMARK.json lists.
  const MetricSet& out = args.trace ? report.per_layer : report.end_to_end;
  MetricSet ordered;
  for (const auto& [name, unit] :
       args.trace ? PerLayerMetricSpec() : EndToEndMetricSpec()) {
    report.Check(out.Has(name), "metric " + name + " was not measured");
    ordered.Set(name, unit, out.Get(name));
  }

  for (const std::string& line : report.detail) std::printf("%s\n", line.c_str());
  for (const MetricSet* set : {&report.end_to_end, &report.per_layer}) {
    for (const Metric& m : set->all()) {
      std::printf("metric %-28s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& failure : report.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  // The run's full record (both metric kinds), for the overhead comparison
  // of traced and untraced runs and for later reading.
  const std::string record_path = args.out_dir + "/" + args.workload +
                                  "-seed" + std::to_string(args.seed) +
                                  "-trace" + (args.trace ? "1" : "0") + ".json";
  std::ofstream(record_path) << "{\"workload\": \"" << args.workload
                             << "\", \"seed\": " << args.seed
                             << ", \"correct\": "
                             << (report.correct ? "true" : "false")
                             << ", \"end_to_end\": "
                             << MetricsJson(report.end_to_end)
                             << ", \"per_layer\": "
                             << MetricsJson(report.per_layer) << "}\n";

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              MetricsJson(ordered).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
