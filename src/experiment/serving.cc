#include "experiment/serving.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/d2stgnn.h"
#include "experiment/registry.h"
#include "infer/batching_server.h"
#include "infer/fleet/fleet_server.h"
#include "infer/retry.h"
#include "metrics/metrics.h"
#include "tensor/kernels/registry.h"

namespace d2stgnn::experiment {
namespace {

// Resolves [serving] backends into concrete, deduplicated registry names
// ("auto avx2" on an avx2 host collapses to one entry, so records are never
// duplicated by spelling the same backend two ways).
bool ResolveServingBackends(const ServingConfig& config,
                            std::vector<std::string>* resolved,
                            std::string* error) {
  for (const std::string& name : config.backends) {
    std::string backend;
    if (!ResolveBackend(name, &backend, error)) return false;
    if (std::find(resolved->begin(), resolved->end(), backend) ==
        resolved->end()) {
      resolved->push_back(backend);
    }
  }
  return true;
}

// Sizes a run would divide by, allocate from, or CHECK on, refused at
// expansion so --dry-run catches them.
bool CheckServingRanges(const ServingConfig& c, std::string* error) {
  std::vector<std::pair<std::string, int64_t>> positive = {
      {"[workload] requests", c.ring_size},
      {"[serving] max_batch_size", c.max_batch_size},
      {"[overload] windows", c.overload_windows},
      {"[overload] window_ms", c.window_ms},
      {"[fleet] windows", c.fleet_windows},
      {"[fleet] window_ms", c.fleet_window_ms},
  };
  for (const int64_t t : c.threads) positive.emplace_back("[serving] threads", t);
  for (const int64_t b : c.batch_sizes) {
    positive.emplace_back("[serving] batch_sizes", b);
  }
  for (const auto& [key, value] : positive) {
    if (value <= 0) {
      *error = key + " must be positive, got " + std::to_string(value);
      return false;
    }
  }
  // Request window r covers steps [r, r + input_len).
  if (c.ring_size + c.input_len - 1 > c.num_steps) {
    *error = "[workload] requests = " + std::to_string(c.ring_size) +
             " windows of input_len " + std::to_string(c.input_len) +
             " need num_steps >= " +
             std::to_string(c.ring_size + c.input_len - 1) + ", got " +
             std::to_string(c.num_steps);
    return false;
  }
  return true;
}

json::Value ServingRecord(const std::string& scenario,
                          const std::string& mode, int64_t threads,
                          int64_t batch_size, int64_t requests,
                          const metrics::LatencyStats& latency_ms,
                          double throughput_rps) {
  json::Value record = json::Value::Object();
  record.Set("scenario", json::Value::Str(scenario));
  record.Set("mode", json::Value::Str(mode));
  // The backend the sweep currently runs under (RunServing activates each
  // swept backend before building sessions), so rows of a multi-backend
  // sweep stay attributable.
  record.Set("backend", json::Value::Str(kernels::ActiveBackend().name));
  record.Set("threads", json::Value::Int(threads));
  record.Set("batch_size", json::Value::Int(batch_size));
  record.Set("requests", json::Value::Int(requests));
  record.Set("p50_ms", json::Value::Number(latency_ms.p50));
  record.Set("p95_ms", json::Value::Number(latency_ms.p95));
  record.Set("p99_ms", json::Value::Number(latency_ms.p99));
  record.Set("mean_ms", json::Value::Number(latency_ms.mean));
  record.Set("max_ms", json::Value::Number(latency_ms.max));
  record.Set("throughput_rps", json::Value::Number(throughput_rps));
  return record;
}

/// Direct PredictRequests calls at a fixed batch size.
bool SweepSession(infer::InferenceSession* session, const ServingConfig& c,
                  const ServingWorkload& w, const std::string& scenario,
                  int64_t threads, int64_t batch_size, MetricsSink* sink,
                  std::string* error) {
  SetNumThreads(static_cast<int>(threads));
  std::vector<double> latencies_ms;
  double elapsed = 0.0;
  if (!TimeBatches(session, w.ring, batch_size, c.iters, &latencies_ms,
                   &elapsed, error)) {
    return false;
  }
  const int64_t requests = c.iters * batch_size;
  sink->AddRecord(ServingRecord(
      scenario, scenario, threads, batch_size, requests,
      metrics::SummarizeLatencies(latencies_ms),
      elapsed > 0.0 ? static_cast<double>(requests) / elapsed : 0.0));
  return true;
}

/// Closed-loop producers against the BatchingServer.
bool SweepServer(infer::InferenceSession* session, const ServingConfig& c,
                 const ServingWorkload& w, int64_t threads, MetricsSink* sink,
                 std::string* error) {
  SetNumThreads(static_cast<int>(threads));
  infer::BatchingOptions options;
  options.max_batch_size = c.max_batch_size;
  options.max_wait_us = c.max_wait_us;
  infer::BatchingServer server(session, options);

  using clock = std::chrono::steady_clock;
  const int producers = static_cast<int>(c.producers);
  std::vector<std::vector<double>> latencies(static_cast<size_t>(producers));
  std::vector<std::string> failures(static_cast<size_t>(producers));
  const auto start = clock::now();
  std::vector<std::thread> workers;
  for (int p = 0; p < producers; ++p) {
    workers.emplace_back([&, p] {
      std::vector<double>& mine = latencies[static_cast<size_t>(p)];
      mine.reserve(static_cast<size_t>(c.server_requests));
      for (int64_t i = 0; i < c.server_requests; ++i) {
        const infer::ForecastRequest& request =
            w.ring[static_cast<size_t>(p * c.server_requests + i) %
                   w.ring.size()];
        const auto submit = clock::now();
        infer::Forecast f = server.Submit(request).get();
        if (!f.ok) {
          failures[static_cast<size_t>(p)] = f.error;
          return;
        }
        mine.push_back(
            std::chrono::duration<double, std::milli>(clock::now() - submit)
                .count());
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const double elapsed =
      std::chrono::duration<double>(clock::now() - start).count();
  server.Shutdown();
  for (const std::string& failure : failures) {
    if (!failure.empty()) {
      *error = "server request failed: " + failure;
      return false;
    }
  }

  std::vector<double> all;
  for (const std::vector<double>& chunk : latencies) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  sink->AddRecord(ServingRecord(
      "server", "server", threads, c.max_batch_size,
      static_cast<int64_t>(all.size()), metrics::SummarizeLatencies(all),
      elapsed > 0.0 ? static_cast<double>(all.size()) / elapsed : 0.0));
  return true;
}

/// Plan replay vs eager dispatch on single requests, with the bitwise
/// parity check of DESIGN.md §10.
bool SweepParity(infer::InferenceSession* plan_session,
                 infer::InferenceSession* eager_session,
                 const ServingConfig& c, const ServingWorkload& w,
                 int64_t threads, MetricsSink* sink, double* eager_p50,
                 double* plan_p50, std::string* error) {
  SetNumThreads(static_cast<int>(threads));
  plan_session->Warmup(/*batch_size=*/1, /*runs=*/2);

  for (const infer::ForecastRequest& request : w.ring) {
    const infer::Forecast plan = plan_session->PredictOne(request);
    const infer::Forecast eager = eager_session->PredictOne(request);
    if (!plan.ok || !eager.ok || plan.values != eager.values) {
      *error = "plan and eager forecasts diverge at " +
               std::to_string(threads) + " threads";
      return false;
    }
  }
  if (plan_session->session_stats().plan_replays == 0) {
    *error = "plan session never replayed a plan";
    return false;
  }

  const auto time_one = [&](infer::InferenceSession* session,
                            const std::string& mode,
                            double* p50) -> bool {
    using clock = std::chrono::steady_clock;
    std::vector<double> latencies_ms;
    latencies_ms.reserve(static_cast<size_t>(c.parity_iters));
    const auto sweep_start = clock::now();
    for (int64_t i = 0; i < c.parity_iters; ++i) {
      const auto start = clock::now();
      const infer::Forecast f = session->PredictOne(
          w.ring[static_cast<size_t>(i) % w.ring.size()]);
      if (!f.ok) {
        *error = mode + " forward failed: " + f.error;
        return false;
      }
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(clock::now() - start)
              .count());
    }
    const double elapsed =
        std::chrono::duration<double>(clock::now() - sweep_start).count();
    const metrics::LatencyStats stats =
        metrics::SummarizeLatencies(latencies_ms);
    *p50 = stats.p50;
    sink->AddRecord(ServingRecord(
        "parity", mode, threads, 1, c.parity_iters, stats,
        elapsed > 0.0 ? static_cast<double>(c.parity_iters) / elapsed : 0.0));
    return true;
  };
  return time_one(eager_session, "eager", eager_p50) &&
         time_one(plan_session, "plan", plan_p50);
}

/// Arms the [chaos] "point@offset" scripts (kErrno, one-shot) for one
/// serving run, and disarms every fault point when the run ends.
class ChaosFaults {
 public:
  explicit ChaosFaults(const std::vector<std::string>& entries) {
    for (const std::string& entry : entries) {
      fault::FaultScript script;
      script.kind = fault::FaultKind::kErrno;
      const size_t at = entry.find('@');
      if (at != std::string::npos) {
        script.trigger_offset =
            std::strtoll(entry.c_str() + at + 1, nullptr, 10);
      }
      fault::ArmFaultPoint(entry.substr(0, at), script);
    }
  }
  ~ChaosFaults() { fault::DisarmAllFaultPoints(); }
  ChaosFaults(const ChaosFaults&) = delete;
  ChaosFaults& operator=(const ChaosFaults&) = delete;
};

/// A private hot-reload watch directory for one scenario run.
std::string TempWatchDir(const std::string& scenario, int64_t threads) {
  return (std::filesystem::temp_directory_path() /
          ("d2stgnn_" + scenario + "_" + std::to_string(::getpid()) + "_t" +
           std::to_string(threads)))
      .string();
}

/// One trajectory row of an open-loop scenario: the ServingRecord columns
/// over the window's offered load, then `labels`, then the window's
/// outcome counts and rates.
json::Value WindowRecord(const std::string& scenario, int64_t threads,
                         int64_t batch_size, double window_s, int64_t window,
                         const WindowTally& tally, const json::Value& labels) {
  json::Value record = ServingRecord(
      scenario, scenario, threads, batch_size, tally.offered,
      metrics::SummarizeLatencies(tally.latencies_ms),
      static_cast<double>(tally.completed) / std::max(window_s, 1e-9));
  for (const auto& [key, value] : labels.items()) record.Set(key, value);
  record.Set("window", json::Value::Int(window));
  record.Set("completed", json::Value::Int(tally.completed));
  record.Set("shed", json::Value::Int(tally.shed));
  record.Set("expired", json::Value::Int(tally.expired));
  record.Set("shed_rate", json::Value::Number(tally.Share(tally.shed)));
  record.Set("deadline_miss_rate",
             json::Value::Number(tally.Share(tally.expired)));
  return record;
}

/// What a plan session over weights `seed` forecasts for ring[0]: the
/// bitwise expectation for any lane serving those weights.
bool ReferenceForecast(const ServingWorkload& w, const ServingConfig& config,
                       uint64_t seed, std::vector<float>* out,
                       std::string* error) {
  auto session = infer::InferenceSession::Wrap(
      BuildServingModel(w, config, seed), w.scaler,
      ServingSessionOptions(w, config, /*use_plans=*/true));
  const infer::Forecast forecast =
      session == nullptr ? infer::Forecast{} : session->PredictOne(w.ring[0]);
  if (!forecast.ok) {
    *error = "reference forward over weights seed " + std::to_string(seed) +
             " failed: " + forecast.error;
    return false;
  }
  *out = forecast.values;
  return true;
}

/// Drives `streams` for `windows` windows of `window_s`, dropping the
/// stage's twin checkpoint one window in (a failed drop stops the run and
/// lands in `stage_error`) and tracking the worst tier `tier()` reports.
std::vector<std::vector<LoadSample>> DriveWindows(
    const std::vector<LoadStream>& streams, int64_t windows, double window_s,
    const std::function<infer::OverloadTier()>& tier, CheckpointStage* stage,
    infer::OverloadTier* max_tier, std::string* stage_error) {
  OpenLoopOptions options;
  options.windows = windows;
  options.window_s = window_s;
  options.on_tick = [&](double elapsed_s) {
    *max_tier = std::max(*max_tier, tier());
    return stage->DropAt(elapsed_s, window_s, stage_error);
  };
  return RunOpenLoop(streams, options);
}

/// Open-loop producers past saturation: the overload scenario of DESIGN.md
/// §13. Offered load is a multiple of the *measured* serving rate
/// (self-calibrating, so the same spec saturates under a sanitizer too),
/// every request carries a deadline, every Nth is low priority, the
/// scripted chaos faults fire mid-run, and a checkpoint hot-swap lands
/// while the server is shedding. Emits one record per time window — the
/// shed-rate / deadline-miss / p99 trajectory — plus run-level summaries.
bool SweepOverload(const ServingConfig& c, const ServingWorkload& w,
                   int64_t threads, MetricsSink* sink, std::string* error) {
  SetNumThreads(static_cast<int>(threads));

  // The server takes shared ownership: a mid-run SwapSession retires this
  // session once the last in-flight batch lets go of it.
  std::shared_ptr<infer::InferenceSession> session(
      BuildServingSession(w, c, /*use_plans=*/true).release());
  if (session == nullptr) {
    *error = "failed to build the overload inference session";
    return false;
  }
  Saturation saturation;
  if (!CalibrateSaturation(session.get(), w.ring, c.max_batch_size,
                           &saturation, error)) {
    return false;
  }
  const double offered_rps = std::max(1.0, saturation.rps * c.overload_factor);
  const int64_t deadline_us = saturation.DeadlineUs(c.deadline_ms);
  const ChaosFaults chaos(c.chaos_faults);

  infer::BatchingOptions options;
  options.max_batch_size = c.max_batch_size;
  options.max_wait_us = c.max_wait_us;
  options.max_queue_depth = c.max_queue_depth;
  options.admission.rate_rps = c.overload_rate_rps;
  options.admission.shed_latency_us = c.shed_latency_ms * 1000;
  infer::BatchingServer server(session, options);

  // Hot-reload plumbing: twin weights (model_seed + 1) are checkpointed
  // into a private watch directory one window into the run.
  CheckpointStage stage;
  std::vector<float> swap_reference;
  std::unique_ptr<infer::CheckpointReloader> reloader;
  if (c.hot_swap) {
    if (!StageTwin(w, c, c.model_seed, TempWatchDir("overload", threads),
                   /*fresh=*/true, &stage, &swap_reference, error)) {
      return false;
    }
    infer::HotReloadOptions reload_options;
    reload_options.directory = stage.dir();
    reload_options.poll_interval_ms = std::max<int64_t>(10, c.window_ms / 10);
    reloader = std::make_unique<infer::CheckpointReloader>(
        &server, [&w, &c] { return BuildServingModel(w, c, c.model_seed); },
        w.scaler, ServingSessionOptions(w, c, /*use_plans=*/true),
        reload_options);
    reloader->Start();
  }

  // One sequence across the producers keeps the low-priority share at
  // 1/low_priority_every of the offered load.
  const int64_t producers = std::max<int64_t>(1, c.producers);
  std::atomic<int64_t> sequence{0};
  std::vector<LoadStream> streams(static_cast<size_t>(producers));
  for (LoadStream& stream : streams) {
    stream.rate_rps = offered_rps / static_cast<double>(producers);
    stream.submit = [&](int64_t) {
      const int64_t seq = sequence.fetch_add(1);
      infer::ForecastRequest request =
          w.ring[static_cast<size_t>(seq) % w.ring.size()];
      request.deadline_us = deadline_us;
      if (c.low_priority_every > 0 &&
          seq % c.low_priority_every == c.low_priority_every - 1) {
        request.priority = infer::RequestPriority::kLow;
      }
      return server.Submit(std::move(request));
    };
  }
  const double window_s = static_cast<double>(c.window_ms) / 1000.0;
  infer::OverloadTier max_tier = infer::OverloadTier::kNormal;
  std::string stage_error;
  std::vector<LoadSample> samples;
  for (const std::vector<LoadSample>& stream : DriveWindows(
           streams, c.overload_windows, window_s,
           [&] { return server.stats().tier; }, &stage, &max_tier,
           &stage_error)) {
    samples.insert(samples.end(), stream.begin(), stream.end());
  }

  // The swap must land (the reloader retries through injected faults) and
  // the post-swap forecast must be bitwise the twin reference.
  int64_t hot_swaps = 0;
  int64_t post_swap_bitwise = -1;
  if (reloader != nullptr) {
    post_swap_bitwise = 0;
    if (stage_error.empty() && stage.WaitForSwap(*reloader, &stage_error)) {
      infer::RetryPolicy policy;
      policy.max_attempts = 16;
      policy.initial_backoff_us = 5000;
      policy.jitter_seed = c.workload_seed;
      const infer::RetryResult probe =
          infer::SubmitWithRetry(&server, w.ring[0], policy);
      post_swap_bitwise =
          probe.forecast.ok && probe.forecast.values == swap_reference ? 1 : 0;
    }
    hot_swaps = reloader->stats().swaps;
    reloader->Stop();
  }
  server.Shutdown();
  if (!stage_error.empty()) {
    *error = "overload run: " + stage_error;
    return false;
  }
  const infer::BatchingServerStats server_stats = server.stats();
  const int64_t faults_fired = fault::FaultFireCount();

  // Per-window trajectory records.
  WindowTally total;
  double max_p99_ms = 0.0;
  const std::vector<WindowTally> tallies =
      TallyWindows(samples, c.overload_windows);
  for (int64_t i = 0; i < c.overload_windows; ++i) {
    const WindowTally& tally = tallies[static_cast<size_t>(i)];
    total += tally;
    json::Value record =
        WindowRecord("overload", threads, c.max_batch_size, window_s, i,
                     tally, json::Value::Object());
    max_p99_ms = std::max(max_p99_ms, record.Get("p99_ms").AsDouble());
    sink->AddRecord(std::move(record));
  }

  sink->SetSummary("saturation_rps", json::Value::Number(saturation.rps));
  sink->SetSummary("offered_rps", json::Value::Number(offered_rps));
  sink->SetSummary("overload_shed_rate",
                   json::Value::Number(total.Share(total.shed)));
  sink->SetSummary("overload_deadline_miss_rate",
                   json::Value::Number(total.Share(total.expired)));
  sink->SetSummary("overload_completed", json::Value::Int(total.completed));
  sink->SetSummary("overload_max_p99_ms", json::Value::Number(max_p99_ms));
  sink->SetSummary("hot_swaps", json::Value::Int(hot_swaps));
  sink->SetSummary("post_swap_bitwise", json::Value::Int(post_swap_bitwise));
  sink->SetSummary("faults_armed", json::Value::Int(static_cast<int64_t>(
                                       c.chaos_faults.size())));
  sink->SetSummary("faults_fired", json::Value::Int(faults_fired));
  sink->SetSummary("max_tier",
                   json::Value::Str(infer::OverloadTierName(max_tier)));
  sink->SetSummary("degrade_transitions",
                   json::Value::Int(server_stats.degrade_transitions));
  sink->SetSummary("session_swaps",
                   json::Value::Int(server_stats.session_swaps));

  if (total.completed == 0) {
    *error = "overload run completed zero requests";
    return false;
  }
  if (c.hot_swap && post_swap_bitwise != 1) {
    *error = "post-swap forecast is not bitwise equal to the staged weights";
    return false;
  }
  return true;
}

/// The multi-city fleet scenario (DESIGN.md §14): one FleetServer hosts
/// every configured tenant, each with its own weights, plan cache, and SLO
/// class. Open-loop streams offer a skewed mix — every healthy tenant well
/// under saturation, one low-priority tenant past 2x — while a
/// CheckpointReloader hot-reloads one model mid-run. Emits one record per
/// (model, window) — the per-tenant shed-rate / p99 / throughput
/// trajectory — plus the isolation summaries the baseline gates: the
/// high-priority tenants must ride out the hot tenant's overload, every
/// model must stay bitwise identical to a standalone single-model session,
/// and the reload must not perturb any other lane.
bool SweepFleet(const ServingConfig& c, const ServingWorkload& w,
                int64_t threads, MetricsSink* sink, std::string* error) {
  SetNumThreads(static_cast<int>(threads));

  std::vector<FleetTenant> tenants;
  if (!ParseFleetTenants(c, &tenants, error)) return false;
  const std::string reload_id =
      c.fleet_reload_model.empty() ? tenants.front().id : c.fleet_reload_model;

  // Register every tenant, and record the bitwise reference each lane must
  // reproduce: the same weights served by a standalone single-model
  // session. The fleet may arbitrate *when* a model runs, never *what* it
  // computes.
  infer::ModelFleet fleet;
  if (!AddFleetTenants(w, c, tenants, &fleet, error)) return false;
  std::map<std::string, std::vector<float>> reference;
  uint64_t reload_seed = 0;
  for (const FleetTenant& tenant : tenants) {
    if (!ReferenceForecast(w, c, tenant.seed, &reference[tenant.id], error)) {
      return false;
    }
    if (tenant.id == reload_id) reload_seed = tenant.seed;
  }

  // Calibrate the saturated serving rate once — every tenant shares the
  // architecture, so one measurement sizes all the offered loads.
  Saturation saturation;
  if (!CalibrateSaturation(fleet.session(tenants.front().id).get(), w.ring,
                           c.max_batch_size, &saturation, error)) {
    return false;
  }
  const int64_t deadline_us = saturation.DeadlineUs(c.fleet_deadline_ms);
  const ChaosFaults chaos(c.chaos_faults);

  infer::FleetOptions fleet_options;
  fleet_options.max_queue_depth = c.max_queue_depth;
  infer::FleetServer server(&fleet, fleet_options);

  // Hot-reload plumbing for the one reloaded tenant: twin weights
  // (seed + 1) land in a private watch directory one window into the run.
  CheckpointStage stage;
  std::vector<float> swap_reference;
  if (c.fleet_hot_swap) {
    if (!StageTwin(w, c, reload_seed, TempWatchDir("fleet", threads),
                   /*fresh=*/true, &stage, &swap_reference, error)) {
      return false;
    }
    infer::HotReloadOptions reload_options;
    reload_options.directory = stage.dir();
    reload_options.poll_interval_ms =
        std::max<int64_t>(5, c.fleet_reload_poll_ms);
    if (!fleet.AttachReloader(
            reload_id, server.host(reload_id),
            [&w, &c, reload_seed] { return BuildServingModel(w, c, reload_seed); },
            w.scaler, ServingSessionOptions(w, c, true), reload_options,
            error)) {
      return false;
    }
    fleet.StartReloaders();
  }

  // One open-loop stream per tenant: offered = saturation * tenant.factor.
  std::vector<LoadStream> streams;
  for (const FleetTenant& tenant : tenants) {
    LoadStream stream;
    stream.rate_rps = std::max(1.0, saturation.rps * tenant.factor);
    stream.submit = [&, id = tenant.id](int64_t seq) {
      infer::ForecastRequest request =
          w.ring[static_cast<size_t>(seq) % w.ring.size()];
      request.deadline_us = deadline_us;
      return server.Submit(id, std::move(request));
    };
    streams.push_back(std::move(stream));
  }
  const double window_s = static_cast<double>(c.fleet_window_ms) / 1000.0;
  infer::OverloadTier max_tier = infer::OverloadTier::kNormal;
  std::string stage_error;
  const std::vector<std::vector<LoadSample>> samples = DriveWindows(
      streams, c.fleet_windows, window_s, [&] { return server.stats().tier; },
      &stage, &max_tier, &stage_error);

  // The reload must land before the probes (the reloader retries through
  // any injected staging fault).
  int64_t hot_swaps = 0;
  if (c.fleet_hot_swap) {
    const infer::CheckpointReloader& reloader = *fleet.reloader(reload_id);
    if (stage_error.empty()) stage.WaitForSwap(reloader, &stage_error);
    hot_swaps = reloader.stats().swaps;
  }
  if (!stage_error.empty()) {
    fleet.StopReloaders();
    *error = "fleet run: " + stage_error;
    return false;
  }

  // Bitwise probes, after the backlog drains: every tenant must serve
  // exactly what its standalone session serves — the reloaded tenant, what
  // the staged twin serves. Generous retries ride out tier recovery.
  int64_t bitwise_models = 0;
  int64_t post_swap_bitwise = c.fleet_hot_swap ? 0 : -1;
  for (const FleetTenant& tenant : tenants) {
    infer::RetryPolicy policy;
    policy.max_attempts = 64;
    policy.initial_backoff_us = 2000;
    policy.max_backoff_us = 50000;
    policy.jitter_seed = c.workload_seed;
    const infer::RetryResult probe =
        infer::SubmitWithRetry(&server, tenant.id, w.ring[0], policy);
    const bool reloaded = c.fleet_hot_swap && tenant.id == reload_id;
    const std::vector<float>& expected =
        reloaded ? swap_reference : reference[tenant.id];
    const bool bitwise = probe.forecast.ok && probe.forecast.values == expected;
    if (bitwise) ++bitwise_models;
    if (reloaded) post_swap_bitwise = bitwise ? 1 : 0;
  }

  fleet.StopReloaders();
  server.Shutdown();
  const infer::FleetStats fleet_stats = server.stats();
  const int64_t faults_fired = fault::FaultFireCount();

  // Per-(model, window) trajectory records, plus per-tenant aggregates for
  // the isolation summaries.
  WindowTally all, high, hot;
  double high_p99_ms = 0.0;
  int64_t best_priority = tenants.front().slo.priority;
  for (const FleetTenant& tenant : tenants) {
    best_priority = std::min(best_priority, tenant.slo.priority);
  }
  for (size_t t = 0; t < tenants.size(); ++t) {
    const FleetTenant& tenant = tenants[t];
    json::Value labels = json::Value::Object();
    labels.Set("model", json::Value::Str(tenant.id));
    labels.Set("slo", json::Value::Str(tenant.slo.name));
    labels.Set("priority", json::Value::Int(tenant.slo.priority));
    WindowTally tenant_total;
    const std::vector<WindowTally> tallies =
        TallyWindows(samples[t], c.fleet_windows);
    for (int64_t i = 0; i < c.fleet_windows; ++i) {
      const WindowTally& tally = tallies[static_cast<size_t>(i)];
      tenant_total += tally;
      sink->AddRecord(WindowRecord("fleet", threads, c.max_batch_size,
                                   window_s, i, tally, labels));
    }
    all += tenant_total;
    if (tenant.hot) {
      hot += tenant_total;
    } else if (tenant.slo.priority == best_priority) {
      high += tenant_total;
      high_p99_ms =
          std::max(high_p99_ms,
                   metrics::SummarizeLatencies(tenant_total.latencies_ms).p99);
    }
  }

  // Isolation summaries. "high" covers the healthy best-priority tenants;
  // "hot" is the past-saturation one. The reload must touch exactly one
  // lane: every other model's session_swaps stays zero.
  int64_t others_session_swaps = 0;
  int64_t rejected_quota = 0;
  for (const auto& [id, model_stats] : fleet_stats.models) {
    rejected_quota += model_stats.rejected_quota;
    if (!(c.fleet_hot_swap && id == reload_id)) {
      others_session_swaps += model_stats.session_swaps;
    }
  }
  sink->SetSummary("saturation_rps", json::Value::Number(saturation.rps));
  sink->SetSummary("fleet_models",
                   json::Value::Int(static_cast<int64_t>(tenants.size())));
  sink->SetSummary("fleet_completed", json::Value::Int(all.completed));
  sink->SetSummary("fleet_high_shed_rate",
                   json::Value::Number(high.Share(high.shed)));
  sink->SetSummary("fleet_high_deadline_miss_rate",
                   json::Value::Number(high.Share(high.expired)));
  sink->SetSummary("fleet_high_p99_ms", json::Value::Number(high_p99_ms));
  sink->SetSummary("fleet_hot_shed_rate",
                   json::Value::Number(hot.Share(hot.shed)));
  sink->SetSummary("rejected_quota", json::Value::Int(rejected_quota));
  sink->SetSummary("hot_swaps", json::Value::Int(hot_swaps));
  sink->SetSummary("post_swap_bitwise", json::Value::Int(post_swap_bitwise));
  sink->SetSummary("bitwise_models", json::Value::Int(bitwise_models));
  sink->SetSummary("others_session_swaps",
                   json::Value::Int(others_session_swaps));
  sink->SetSummary("faults_armed", json::Value::Int(static_cast<int64_t>(
                                       c.chaos_faults.size())));
  sink->SetSummary("faults_fired", json::Value::Int(faults_fired));
  sink->SetSummary("max_tier",
                   json::Value::Str(infer::OverloadTierName(max_tier)));
  sink->SetSummary("degrade_transitions",
                   json::Value::Int(fleet_stats.degrade_transitions));

  if (all.completed == 0) {
    *error = "fleet run completed zero requests";
    return false;
  }
  if (c.fleet_hot_swap && post_swap_bitwise != 1) {
    *error = "post-swap fleet forecast is not bitwise the staged twin";
    return false;
  }
  if (bitwise_models != static_cast<int64_t>(tenants.size())) {
    *error = "fleet forecasts diverge from the standalone sessions (" +
             std::to_string(bitwise_models) + "/" +
             std::to_string(tenants.size()) + " bitwise)";
    return false;
  }
  if (others_session_swaps != 0) {
    *error = "hot reload perturbed other models' sessions (" +
             std::to_string(others_session_swaps) + " unexpected swaps)";
    return false;
  }
  return true;
}

}  // namespace

ServingConfig ParseServingConfig(const Spec& spec) {
  ServingConfig c;
  c.num_nodes = spec.GetInt("model", "num_nodes", c.num_nodes);
  c.input_len = spec.GetInt("model", "input_len", c.input_len);
  c.output_len = spec.GetInt("model", "output_len", c.output_len);
  c.hidden_dim = spec.GetInt("model", "hidden_dim", c.hidden_dim);
  c.embed_dim = spec.GetInt("model", "embed_dim", c.embed_dim);
  c.num_layers = spec.GetInt("model", "num_layers", c.num_layers);
  c.num_heads = spec.GetInt("model", "num_heads", c.num_heads);
  c.model_seed = static_cast<uint64_t>(
      spec.GetInt("model", "seed", static_cast<int64_t>(c.model_seed)));
  c.num_steps = spec.GetInt("workload", "num_steps", c.num_steps);
  c.workload_seed = static_cast<uint64_t>(spec.GetInt(
      "workload", "seed", static_cast<int64_t>(c.workload_seed)));
  c.ring_size = spec.GetInt("workload", "requests", c.ring_size);
  c.scenarios = spec.GetList("serving", "scenarios");
  c.threads = spec.GetIntList("serving", "threads");
  c.batch_sizes = spec.GetIntList("serving", "batch_sizes");
  c.backends = spec.GetList("serving", "backends");
  if (c.threads.empty()) c.threads = {1, 2, 4};
  if (c.batch_sizes.empty()) c.batch_sizes = {1, 4, 8};
  if (c.backends.empty()) c.backends = {"auto"};
  c.iters = spec.GetInt("serving", "iters", c.iters);
  c.server_requests =
      spec.GetInt("serving", "server_requests", c.server_requests);
  c.producers = spec.GetInt("serving", "producers", c.producers);
  c.parity_iters = spec.GetInt("serving", "parity_iters", c.parity_iters);
  c.max_batch_size =
      spec.GetInt("serving", "max_batch_size", c.max_batch_size);
  c.max_wait_us = spec.GetInt("serving", "max_wait_us", c.max_wait_us);
  c.max_queue_depth =
      spec.GetInt("serving", "max_queue_depth", c.max_queue_depth);
  c.overload_factor = spec.GetDouble("overload", "factor", c.overload_factor);
  c.overload_windows =
      spec.GetInt("overload", "windows", c.overload_windows);
  c.window_ms = spec.GetInt("overload", "window_ms", c.window_ms);
  c.deadline_ms = spec.GetInt("overload", "deadline_ms", c.deadline_ms);
  c.low_priority_every =
      spec.GetInt("overload", "low_priority_every", c.low_priority_every);
  c.overload_rate_rps =
      spec.GetDouble("overload", "rate_rps", c.overload_rate_rps);
  c.shed_latency_ms =
      spec.GetInt("overload", "shed_latency_ms", c.shed_latency_ms);
  c.hot_swap = spec.GetInt("overload", "hot_swap", c.hot_swap ? 1 : 0) != 0;
  c.fleet_models = spec.GetList("fleet", "models");
  if (c.fleet_models.empty()) {
    c.fleet_models = {"metr-la:gold", "pems-bay:silver", "city-syn:bronze"};
  }
  c.fleet_hot_model = spec.GetString("fleet", "hot_model", c.fleet_hot_model);
  c.fleet_hot_factor =
      spec.GetDouble("fleet", "hot_factor", c.fleet_hot_factor);
  c.fleet_healthy_factor =
      spec.GetDouble("fleet", "healthy_factor", c.fleet_healthy_factor);
  c.fleet_windows = spec.GetInt("fleet", "windows", c.fleet_windows);
  c.fleet_window_ms = spec.GetInt("fleet", "window_ms", c.fleet_window_ms);
  c.fleet_deadline_ms =
      spec.GetInt("fleet", "deadline_ms", c.fleet_deadline_ms);
  c.fleet_reload_model =
      spec.GetString("fleet", "reload_model", c.fleet_reload_model);
  c.fleet_reload_poll_ms =
      spec.GetInt("fleet", "reload_poll_ms", c.fleet_reload_poll_ms);
  c.fleet_hot_swap =
      spec.GetInt("fleet", "hot_swap", c.fleet_hot_swap ? 1 : 0) != 0;
  c.chaos_faults = spec.GetList("chaos", "faults");
  return c;
}

bool ExpandServing(const ServingConfig& config,
                   std::vector<std::string>* cells, std::string* error) {
  if (!CheckServingRanges(config, error)) return false;
  if (config.scenarios.empty()) {
    *error = "[serving] scenarios lists no scenarios";
    return false;
  }
  std::vector<std::string> backends;
  if (!ResolveServingBackends(config, &backends, error)) return false;
  // A single backend keeps the historical cell text; only a real sweep
  // prefixes cells with the backend axis.
  for (const std::string& backend : backends) {
    const std::string prefix =
        backends.size() > 1 ? "backend=" + backend + " " : "";
    for (const std::string& scenario : config.scenarios) {
      if (!ResolveServingScenario(scenario, error)) return false;
      for (const int64_t threads : config.threads) {
        if (scenario == "session-eager" || scenario == "session-plan") {
          for (const int64_t batch : config.batch_sizes) {
            cells->push_back(prefix + "scenario=" + scenario +
                             " threads=" + std::to_string(threads) +
                             " batch_size=" + std::to_string(batch));
          }
        } else if (scenario == "fleet") {
          std::vector<FleetTenant> tenants;
          if (!ParseFleetTenants(config, &tenants, error)) return false;
          cells->push_back(prefix + "scenario=fleet threads=" +
                           std::to_string(threads) +
                           " models=" + std::to_string(tenants.size()));
        } else {
          cells->push_back(prefix + "scenario=" + scenario +
                           " threads=" + std::to_string(threads));
        }
      }
    }
  }
  return true;
}

ServingWorkload BuildServingWorkload(const ServingConfig& config) {
  ServingWorkload w;
  data::SyntheticTrafficOptions options;
  options.network.num_nodes = config.num_nodes;
  options.network.neighbors = 2;
  options.num_steps = config.num_steps;
  options.seed = config.workload_seed;
  w.traffic = data::GenerateSyntheticTraffic(options);
  w.scaler.Fit(w.traffic.dataset.values, config.num_steps * 2 / 3, true);
  const std::vector<float>& values = w.traffic.dataset.values.Data();
  for (int64_t start = 0; start < config.ring_size; ++start) {
    infer::ForecastRequest request;
    request.window.assign(
        values.data() + start * config.num_nodes,
        values.data() + (start + config.input_len) * config.num_nodes);
    request.time_of_day = w.traffic.dataset.TimeOfDay(start);
    request.day_of_week = w.traffic.dataset.DayOfWeek(start);
    w.ring.push_back(std::move(request));
  }
  return w;
}

std::unique_ptr<train::ForecastingModel> BuildServingModel(
    const ServingWorkload& w, const ServingConfig& config, uint64_t seed) {
  core::D2StgnnConfig model_config;
  model_config.num_nodes = config.num_nodes;
  model_config.input_len = config.input_len;
  model_config.output_len = config.output_len;
  model_config.hidden_dim = config.hidden_dim;
  model_config.embed_dim = config.embed_dim;
  model_config.num_layers = config.num_layers;
  model_config.num_heads = config.num_heads;
  model_config.steps_per_day = w.traffic.dataset.steps_per_day;
  Rng rng(seed);
  return std::make_unique<core::D2Stgnn>(
      model_config, w.traffic.dataset.network.adjacency, rng);
}

infer::SessionOptions ServingSessionOptions(const ServingWorkload& w,
                                            const ServingConfig& config,
                                            bool use_plans) {
  infer::SessionOptions session_options;
  session_options.num_nodes = config.num_nodes;
  session_options.input_len = config.input_len;
  session_options.steps_per_day = w.traffic.dataset.steps_per_day;
  session_options.use_plans = use_plans;
  return session_options;
}

std::unique_ptr<infer::InferenceSession> BuildServingSession(
    const ServingWorkload& w, const ServingConfig& config, bool use_plans) {
  return infer::InferenceSession::Wrap(
      BuildServingModel(w, config, config.model_seed), w.scaler,
      ServingSessionOptions(w, config, use_plans));
}

bool AddFleetTenants(const ServingWorkload& w, const ServingConfig& config,
                     const std::vector<FleetTenant>& tenants,
                     infer::ModelFleet* fleet, std::string* error) {
  for (const FleetTenant& tenant : tenants) {
    std::shared_ptr<infer::InferenceSession> session(
        infer::InferenceSession::Wrap(
            BuildServingModel(w, config, tenant.seed), w.scaler,
            ServingSessionOptions(w, config, /*use_plans=*/true))
            .release());
    infer::FleetModelOptions options;
    options.model_id = tenant.id;
    options.slo = tenant.slo;
    options.max_batch_size = config.max_batch_size;
    options.max_wait_us = config.max_wait_us;
    if (session == nullptr) {
      *error = "failed to build the fleet session for '" + tenant.id + "'";
      return false;
    }
    if (!fleet->AddModel(std::move(session), options, error)) return false;
  }
  return true;
}

bool StageTwin(const ServingWorkload& w, const ServingConfig& config,
               uint64_t seed, const std::string& dir, bool fresh,
               CheckpointStage* stage, std::vector<float>* reference,
               std::string* error) {
  if (reference != nullptr &&
      !ReferenceForecast(w, config, seed + 1, reference, error)) {
    return false;
  }
  return stage->Open(dir, fresh, BuildServingModel(w, config, seed + 1),
                     error);
}

bool ParseFleetTenants(const ServingConfig& c, std::vector<FleetTenant>* out,
                       std::string* error) {
  out->clear();
  const auto find = [out](const std::string& id) {
    return std::find_if(out->begin(), out->end(),
                        [&id](const FleetTenant& t) { return t.id == id; });
  };
  for (const std::string& raw : c.fleet_models) {
    const size_t first = raw.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const std::string entry =
        raw.substr(first, raw.find_last_not_of(" \t") - first + 1);
    FleetTenant tenant;
    const size_t colon = entry.find(':');
    tenant.id = entry.substr(0, colon);
    if (tenant.id.empty()) {
      *error = "[fleet] models entry '" + entry + "' has an empty model id";
      return false;
    }
    if (colon != std::string::npos) {
      const std::string slo_name = entry.substr(colon + 1);
      if (!infer::ResolveSloClass(slo_name, &tenant.slo)) {
        *error = "[fleet] models entry '" + entry +
                 "' names an unknown SLO class '" + slo_name +
                 "' (known: gold, silver, bronze)";
        return false;
      }
    }
    if (find(tenant.id) != out->end()) {
      *error = "[fleet] models lists '" + tenant.id + "' twice";
      return false;
    }
    // Distinct weights per tenant, spaced so one tenant's hot-reload twin
    // (seed + 1) can never collide with another tenant's seed.
    tenant.seed = c.model_seed + 16 * (static_cast<uint64_t>(out->size()) + 1);
    tenant.factor = c.fleet_healthy_factor;
    out->push_back(tenant);
  }
  if (out->empty()) {
    *error = "[fleet] models lists no models";
    return false;
  }
  const std::string hot_id =
      c.fleet_hot_model.empty() ? out->back().id : c.fleet_hot_model;
  const auto hot = find(hot_id);
  if (hot == out->end()) {
    *error = "[fleet] hot_model '" + hot_id + "' is not in the models list";
    return false;
  }
  hot->hot = true;
  hot->factor = c.fleet_hot_factor;
  const std::string reload_id = c.fleet_reload_model.empty()
                                    ? out->front().id
                                    : c.fleet_reload_model;
  if (c.fleet_hot_swap && find(reload_id) == out->end()) {
    *error = "[fleet] reload_model '" + reload_id +
             "' is not in the models list";
    return false;
  }
  return true;
}

bool RunServing(const ServingConfig& config, MetricsSink* sink,
                std::string* error) {
  std::vector<std::string> backends;
  if (!ResolveServingBackends(config, &backends, error)) return false;
  const ServingWorkload w = BuildServingWorkload(config);

  double eager_p50 = 0.0;
  double plan_p50 = 0.0;
  bool parity_ran = false;
  // Every scenario under the active backend, on sessions (and hence
  // captured plans) rebuilt for it, so every number is measured under the
  // backend it is labeled with.
  const auto run_backend = [&]() -> bool {
    const auto plan_session = BuildServingSession(w, config, true);
    const auto eager_session = BuildServingSession(w, config, false);
    if (plan_session == nullptr || eager_session == nullptr) {
      *error = "failed to build the serving inference sessions";
      return false;
    }
    for (const std::string& scenario : config.scenarios) {
      if (!ResolveServingScenario(scenario, error)) return false;
      std::printf("serving scenario: %s\n", scenario.c_str());
      std::fflush(stdout);
      for (const int64_t threads : config.threads) {
        bool ok = true;
        if (scenario == "session-eager" || scenario == "session-plan") {
          infer::InferenceSession* session = scenario == "session-plan"
                                                 ? plan_session.get()
                                                 : eager_session.get();
          for (const int64_t batch : config.batch_sizes) {
            ok = ok && SweepSession(session, config, w, scenario, threads,
                                    batch, sink, error);
          }
        } else if (scenario == "server") {
          ok = SweepServer(plan_session.get(), config, w, threads, sink,
                           error);
        } else if (scenario == "overload") {
          ok = SweepOverload(config, w, threads, sink, error);
        } else if (scenario == "fleet") {
          ok = SweepFleet(config, w, threads, sink, error);
        } else {  // parity
          ok = SweepParity(plan_session.get(), eager_session.get(), config,
                           w, threads, sink, &eager_p50, &plan_p50, error);
          parity_ran = true;
        }
        if (!ok) return false;
      }
    }
    return true;
  };

  // The backend axis is the outermost loop; the prior backend is restored
  // on exit.
  const std::string original_backend = kernels::ActiveBackend().name;
  bool ok = true;
  for (size_t i = 0; ok && i < backends.size(); ++i) {
    ok = kernels::SetActiveBackend(backends[i], error);
    if (ok && backends.size() > 1) {
      std::printf("serving backend: %s\n", backends[i].c_str());
      std::fflush(stdout);
    }
    ok = ok && run_backend();
  }
  kernels::SetActiveBackend(original_backend);
  SetNumThreads(1);
  if (!ok) return false;

  if (parity_ran) {
    // The headline numbers come from the last (largest) thread count.
    sink->SetSummary("eager_p50_ms", json::Value::Number(eager_p50));
    sink->SetSummary("plan_p50_ms", json::Value::Number(plan_p50));
    sink->SetSummary(
        "plan_speedup",
        json::Value::Number(plan_p50 > 0.0 ? eager_p50 / plan_p50 : 0.0));
    sink->SetSummary("bitwise_identical", json::Value::Int(1));
  }
  return true;
}

}  // namespace d2stgnn::experiment
