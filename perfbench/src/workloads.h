#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads and the pieces they share: graph kits at
// the paper's Table 2 shapes, the open-loop load generator, the per-layer
// pass, and the run report every workload fills in.

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/d2stgnn.h"
#include "data/scaler.h"
#include "data/sliding_window.h"
#include "data/synthetic_traffic.h"
#include "infer/session.h"
#include "optim/adam.h"

namespace perfbench {

namespace core = d2stgnn::core;
namespace data = d2stgnn::data;
namespace infer = d2stgnn::infer;
namespace optim = d2stgnn::optim;

struct Args {
  std::string workload;
  RunEnv env;  ///< machine record and the thread plan main checked
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  /// Train only: write the observed reference trajectory to this file.
  std::string write_reference;
};

/// What a workload hands back to main: metrics (end-to-end and per-layer),
/// the result-line counters, the check outcome, and human-readable detail.
struct Report {
  MetricSet end_to_end;
  MetricSet per_layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> check_failures;
  std::vector<std::string> detail;  ///< printed above the result line
  RunEnv env;

  void Check(bool ok, const std::string& what);
  void Note(const std::string& line) { detail.push_back(line); }
};

// ---------------------------------------------------------------------------
// Graph kits.

/// A paper-shaped synthetic dataset, its scaler and the paper-default model
/// configuration for it.
struct GraphKit {
  std::string name;
  data::SyntheticTraffic traffic;
  data::StandardScaler scaler;
  core::D2StgnnConfig config;
  int64_t train_steps = 0;  ///< scaler fit range / training windows region
};

/// Days of readings generated per kit: the presets' own minimum (16 days).
/// Only the topology and node count set the model's cost.
inline constexpr int64_t kKitDays = 16;

GraphKit MakeKit(data::SyntheticTrafficOptions options);

/// Model weights depend only on `model_seed`, so two builds with one seed
/// are identical (the eager reference relies on it).
std::unique_ptr<core::D2Stgnn> MakeModel(const GraphKit& kit,
                                         uint64_t model_seed);

std::shared_ptr<infer::InferenceSession> MakeSession(const GraphKit& kit,
                                                     uint64_t model_seed,
                                                     bool use_plans);

/// The request for the window starting at reading `start`.
infer::ForecastRequest MakeRequest(const GraphKit& kit, int64_t start);

/// A window start in the kit's held-out region, drawn from `rng`.
int64_t PickWindowStart(const GraphKit& kit, SplitMix64& rng);

// ---------------------------------------------------------------------------
// Open-loop load.

enum class Outcome { kPending, kOk, kRejected, kExpired, kErrored };

const char* OutcomeName(Outcome outcome);

/// One scheduled request and what happened to it.
struct RequestRecord {
  int lane = 0;          ///< which class/lane it belongs to
  int64_t window = 0;    ///< window start it carried
  double scheduled_s = 0.0;
  double sent_s = 0.0;
  double resolved_s = 0.0;
  Outcome outcome = Outcome::kPending;
  std::string reason;    ///< reject/expire/error reason
  std::vector<float> values;  ///< the forecast, when ok
};

/// A planned open-loop phase: its requests in send order.
struct Phase {
  std::string name;
  std::vector<RequestRecord> requests;  ///< scheduled_s relative to start
  int64_t backlog_at_end = 0;  ///< unresolved when the last send went out
};

/// Sends each request of `phase` at its scheduled time from one generator
/// thread (the calling thread), polling outstanding futures between sends
/// to stamp their resolution, then waits for every future. `submit` sends
/// one request and returns its future. Times become absolute NowS() times.
void RunOpenLoop(Phase* phase,
                 const std::function<std::future<infer::Forecast>(
                     const RequestRecord&)>& submit,
                 Tracer* tracer, int64_t parent_span);

/// Counts of a set of requests (one phase or lane).
struct PhaseCounts {
  int64_t sent = 0, ok = 0, rejected = 0, expired = 0, errored = 0;
  Summary latency_ms;  ///< scheduled send -> resolved, ok requests only
  double late_p99_ms = 0.0;
  double first_scheduled_s = 0.0, last_resolved_s = 0.0;
};

PhaseCounts CountPhase(const Phase& phase, int lane = -1);

/// The generator's allowed lateness at p99 before a run is invalid.
inline constexpr double kMaxLateP99Ms = 20.0;

/// Compares served forecasts against an eager (plan-free) session over the
/// same windows: bitwise on the scalar backend, within a tolerance derived
/// from tensor/kernels/backend.h on others. Returns the number compared.
int64_t CheckAgainstEager(const GraphKit& kit, uint64_t model_seed,
                          const std::vector<const RequestRecord*>& served,
                          Report* report, const std::string& label);

// ---------------------------------------------------------------------------
// Training steps.

/// Per-step timings (ms) and values of a run of TrainStep calls.
struct StepLog {
  std::vector<double> batch_ms, forward_ms, backward_ms, optim_ms, total_ms;
  std::vector<double> losses, grad_norms;
};

/// Trainer defaults: Adam at the paper's learning rate, clip at norm 5.
inline constexpr float kLearningRate = 1e-3f;
inline constexpr float kClipNorm = 5.0f;

/// One optimizer step the way Trainer::Fit makes it (GetBatch -> Forward ->
/// masked-MAE loss -> Backward -> clip -> Adam step), with the full horizon
/// supervised. Spans: train.step (under `parent`) with GetBatch, Forward,
/// Backward and Step children.
void TrainStep(core::D2Stgnn* model, optim::Adam* optimizer,
               const data::WindowDataLoader& loader,
               const data::StandardScaler& scaler, int64_t index,
               Tracer* tracer, int64_t parent, StepLog* log);

// ---------------------------------------------------------------------------
// Per-layer pass (traced runs).

struct LayerPassInput {
  const GraphKit* kit = nullptr;
  uint64_t model_seed = 0;
  int64_t batch = 1;  ///< batch of the core/kernel shapes
  /// The run's serving session, or null (the pass builds one).
  std::shared_ptr<infer::InferenceSession> session;
  /// Training-step parts from the load phase (ms); empty: the pass runs
  /// its own batch-1 steps.
  std::vector<double> train_batch_ms, train_forward_ms, train_backward_ms,
      train_optim_ms;
};

/// Calls each layer's public entry points directly and fills the per-layer
/// metrics that every workload reports the same way (pool, kernels, train,
/// core, exec, session, server probe, reload). Workload-specific counters
/// are set by the workload afterwards.
void RunLayerPass(const LayerPassInput& in, Tracer* tracer, Report* report);

/// Runs a two-lane FleetServer (gold: `gold_session`; bronze: a fresh
/// PEMS08-shaped session) for a short open-loop probe and one bronze swap,
/// and sets the fleet.* per-layer counters.
void RunFleetProbe(const GraphKit& gold_kit,
                   std::shared_ptr<infer::InferenceSession> gold_session,
                   Tracer* tracer, Report* report);

/// Workload entry points; each runs in its own process.
Report RunServeMetrLa(const Args& args);
Report RunTrainPems04(const Args& args);
Report RunFleetReload(const Args& args);

/// Per-layer metric names (in print order) every workload reports.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricSpec();
/// End-to-end metric names and units every workload reports.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetricSpec();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
