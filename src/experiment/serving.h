#ifndef D2STGNN_EXPERIMENT_SERVING_H_
#define D2STGNN_EXPERIMENT_SERVING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "data/scaler.h"
#include "data/synthetic_traffic.h"
#include "experiment/load_driver.h"
#include "experiment/metrics_sink.h"
#include "experiment/spec.h"
#include "infer/fleet/fleet.h"
#include "infer/hot_reload.h"
#include "infer/session.h"
#include "infer/session_host.h"
#include "train/forecasting_model.h"

// kind = serving: the bench_inference protocol behind scenario names
// (DESIGN.md §11). The workload, model and session builders, the fleet
// tenant parser and the hot-reload helper are public so
// examples/serve_forecasts serves and reloads exactly what the scenarios do.

namespace d2stgnn::experiment {

struct ServingConfig {
  // [model] — the served D2STGNN.
  int64_t num_nodes = 4;
  int64_t input_len = 12;
  int64_t output_len = 12;
  int64_t hidden_dim = 8;
  int64_t embed_dim = 4;
  int64_t num_layers = 1;
  int64_t num_heads = 2;
  uint64_t model_seed = 3;
  // [workload] — the request stream.
  int64_t num_steps = 600;
  uint64_t workload_seed = 17;
  int64_t ring_size = 64;
  // [serving] — what to sweep.
  std::vector<std::string> scenarios;
  std::vector<int64_t> threads;
  std::vector<int64_t> batch_sizes;
  /// Kernel backends to sweep ("auto" = whatever startup selection picked).
  /// Sessions are rebuilt per backend so plans are captured and replayed
  /// under the backend being measured.
  std::vector<std::string> backends;
  int64_t iters = 40;
  int64_t server_requests = 80;
  int64_t producers = 4;
  int64_t parity_iters = 200;
  int64_t max_batch_size = 8;
  int64_t max_wait_us = 500;
  int64_t max_queue_depth = 64;
  // [overload] — the open-loop past-saturation scenario.
  double overload_factor = 2.0;   ///< offered load as a multiple of saturation
  int64_t overload_windows = 4;   ///< trajectory resolution
  int64_t window_ms = 250;
  int64_t deadline_ms = 0;        ///< 0: auto (5x the measured batch latency)
  int64_t low_priority_every = 4; ///< every Nth request is shed class kLow
  double overload_rate_rps = 0.0; ///< token-bucket limit (0: off)
  int64_t shed_latency_ms = 0;    ///< EWMA shed budget (0: off)
  bool hot_swap = true;           ///< stage + swap a checkpoint mid-run
  // [fleet] — the multi-model mixed-tenant scenario (DESIGN.md §14).
  std::vector<std::string> fleet_models;  ///< "id:slo" tenants, in order
  std::string fleet_hot_model;      ///< past-saturation tenant ("" : last)
  double fleet_hot_factor = 2.0;    ///< hot tenant's offered load, x saturation
  double fleet_healthy_factor = 0.25;  ///< every other tenant's offered load
  int64_t fleet_windows = 4;        ///< trajectory resolution
  int64_t fleet_window_ms = 250;
  int64_t fleet_deadline_ms = 0;    ///< 0: auto (5x the measured batch latency)
  std::string fleet_reload_model;   ///< mid-run hot-reload tenant ("" : first)
  int64_t fleet_reload_poll_ms = 25;  ///< CheckpointReloader poll period
  bool fleet_hot_swap = true;       ///< hot-reload one tenant mid-run
  // [chaos] — "point@offset" scripts armed for the run (kErrno, one-shot).
  std::vector<std::string> chaos_faults;
};

/// Reads every serving key of `spec` (consuming it for Spec::Validate).
ServingConfig ParseServingConfig(const Spec& spec);

/// One cell per (backend, scenario, threads[, batch size]). Refuses unknown
/// names and out-of-range sizes, naming the offending key.
bool ExpandServing(const ServingConfig& config,
                   std::vector<std::string>* cells, std::string* error);

/// Runs every expanded cell into `sink`.
bool RunServing(const ServingConfig& config, MetricsSink* sink,
                std::string* error);

/// The synthetic road network and the ring of request windows cut from it.
struct ServingWorkload {
  data::SyntheticTraffic traffic;
  data::StandardScaler scaler;
  std::vector<infer::ForecastRequest> ring;
};

ServingWorkload BuildServingWorkload(const ServingConfig& config);

/// A fresh served model with weights drawn from `seed` (the hot-reload
/// factory rebuilds this architecture for every staged checkpoint).
std::unique_ptr<train::ForecastingModel> BuildServingModel(
    const ServingWorkload& w, const ServingConfig& config, uint64_t seed);

infer::SessionOptions ServingSessionOptions(const ServingWorkload& w,
                                            const ServingConfig& config,
                                            bool use_plans);

/// A session over BuildServingModel(..., config.model_seed).
std::unique_ptr<infer::InferenceSession> BuildServingSession(
    const ServingWorkload& w, const ServingConfig& config, bool use_plans);

/// Hot reload, attached the one way every caller uses: opens `stage` on
/// `dir` (`fresh` as in CheckpointStage::Open) with the twin of weights
/// `seed` — drawn from seed + 1 — and returns a started CheckpointReloader
/// that polls it every `poll_ms` and swaps sessions over the twin
/// (plan-backed when `use_plans`) into `host`. When `reference` is non-null
/// it receives the twin's forecast for ring[0], the bitwise post-swap
/// expectation. Null, with `*error` set, when staging fails. `w` and
/// `config` must outlive the reloader.
std::unique_ptr<infer::CheckpointReloader> StartTwinReloader(
    const ServingWorkload& w, const ServingConfig& config, uint64_t seed,
    bool use_plans, const std::string& dir, bool fresh, int64_t poll_ms,
    infer::SessionHost* host, CheckpointStage* stage,
    std::vector<float>* reference, std::string* error);

/// One tenant of an open-loop serving run (the overload scenario serves
/// one, the fleet scenario one per [fleet] models entry): a model id, its
/// resolved SLO class, the seed its weights are drawn from (the hot-reload
/// twin is seed + 1), and its offered load as a multiple of the measured
/// saturation rate (the fleet's past-saturation tenant is `hot`).
struct FleetTenant {
  std::string id;
  infer::SloClass slo;
  uint64_t seed = 0;
  double factor = 0.0;
  bool hot = false;
  /// Open-loop streams offering that load; they share one request
  /// sequence, of which every `low_priority_every`-th request is kLow (0:
  /// none).
  int64_t streams = 1;
  int64_t low_priority_every = 0;
  /// Columns the tenant's trajectory records carry (fleet tenants: model,
  /// slo, priority).
  json::Value labels = json::Value::Object();
};

/// Parses the [fleet] models list ("id" or "id:slo" entries, surrounding
/// blanks trimmed, blank entries skipped; SLO names are the built-in
/// gold/silver/bronze tiers), labels each tenant and marks the hot one.
/// Runs at expansion time too, so --dry-run refuses a bad tenant list.
bool ParseFleetTenants(const ServingConfig& c, std::vector<FleetTenant>* out,
                       std::string* error);

/// Registers every tenant in `fleet`: a plan session over the tenant's
/// weights, batched at config.max_batch_size / max_wait_us.
bool AddFleetTenants(const ServingWorkload& w, const ServingConfig& config,
                     const std::vector<FleetTenant>& tenants,
                     infer::ModelFleet* fleet, std::string* error);

}  // namespace d2stgnn::experiment

#endif  // D2STGNN_EXPERIMENT_SERVING_H_
