#include "experiment/serving.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/d2stgnn.h"
#include "experiment/registry.h"
#include "infer/batching_server.h"
#include "infer/fleet/fleet_server.h"
#include "infer/hot_reload.h"
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

/// A [chaos] faults entry: the fault point and its trigger offset.
using ChaosFault = std::pair<std::string, int64_t>;

/// Parses [chaos] faults entries "point[@offset]": the point must be
/// non-empty and the offset, when given, a non-negative integer with
/// nothing after it.
bool ParseChaosFaults(const std::vector<std::string>& entries,
                      std::vector<ChaosFault>* out, std::string* error) {
  for (const std::string& entry : entries) {
    const size_t at = entry.find('@');
    ChaosFault fault{entry.substr(0, at), 0};
    bool ok = !fault.first.empty();
    if (ok && at != std::string::npos) {
      const char* last = entry.data() + entry.size();
      const auto [end, ec] =
          std::from_chars(entry.data() + at + 1, last, fault.second);
      ok = ec == std::errc() && end == last && fault.second >= 0;
    }
    if (!ok) {
      *error = "[chaos] faults entry '" + entry +
               "' is not point[@offset] (a fault point name and an "
               "optional non-negative integer offset)";
      return false;
    }
    out->push_back(std::move(fault));
  }
  return true;
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

/// An open-loop run, as data.
struct LoadRun {
  std::string scenario;  ///< record scenario and mode
  std::vector<FleetTenant> tenants;
  infer::FleetOptions fleet;  ///< the shared queue and admission gate
  int64_t windows = 1;
  int64_t window_ms = 250;
  int64_t deadline_ms = 0;  ///< 0: auto (Saturation::DeadlineUs)
  std::string reload_id;    ///< the tenant hot-reloaded mid-run ("": none)
  int64_t reload_poll_ms = 25;
};

/// What an open-loop run measured.
struct LoadOutcome {
  Saturation saturation;
  std::vector<double> offered_rps;  ///< per tenant
  std::vector<WindowTally> totals;  ///< per tenant, over every window
  double max_window_p99_ms = 0.0;   ///< worst window over every tenant
  int64_t hot_swaps = 0;
  int64_t post_swap_bitwise = -1;  ///< -1: no reload
  int64_t bitwise_models = 0;
  int64_t others_session_swaps = 0;  ///< swaps outside the reload lane
  int64_t faults_fired = 0;
  infer::OverloadTier max_tier = infer::OverloadTier::kNormal;
  infer::FleetStats stats;
};

/// The one open-loop scenario body (DESIGN.md §13, §14): overload runs it
/// with one tenant, fleet with many. Every tenant is a lane of one
/// FleetServer. Offered loads are multiples of the *measured* serving rate
/// (self-calibrating, so the same spec saturates under a sanitizer too),
/// every request carries a deadline, the chaos faults fire mid-run, and the
/// reload tenant's twin checkpoint lands one window in, while the server
/// sheds. Emits one record per (tenant, window) — the shed-rate /
/// deadline-miss / p99 trajectory. Fails on a staging error, zero
/// completions, a lane that is not bitwise what it should serve after the
/// run (the fleet may arbitrate *when* a model runs, never *what* it
/// computes), or a swap outside the reload lane.
bool RunOpenLoopScenario(const ServingConfig& c, const ServingWorkload& w,
                         int64_t threads, const LoadRun& run,
                         const std::vector<ChaosFault>& faults,
                         MetricsSink* sink, LoadOutcome* out,
                         std::string* error) {
  SetNumThreads(static_cast<int>(threads));
  const std::vector<FleetTenant>& tenants = run.tenants;
  infer::ModelFleet fleet;
  if (!AddFleetTenants(w, c, tenants, &fleet, error)) return false;
  // Each lane's bitwise reference: its weights in a standalone session.
  std::vector<std::vector<float>> reference(tenants.size());
  for (size_t t = 0; t < tenants.size(); ++t) {
    if (!ReferenceForecast(w, c, tenants[t].seed, &reference[t], error)) {
      return false;
    }
  }
  // The tenants share the architecture: one calibration sizes every load.
  if (!CalibrateSaturation(fleet.session(tenants.front().id).get(), w.ring,
                           c.max_batch_size, &out->saturation, error)) {
    return false;
  }
  const int64_t deadline_us = out->saturation.DeadlineUs(run.deadline_ms);
  // The chaos faults (kErrno, one-shot) are armed for this run only.
  struct DisarmOnExit {
    ~DisarmOnExit() { fault::DisarmAllFaultPoints(); }
  } disarm;
  for (const auto& [point, offset] : faults) {
    fault::FaultScript script;
    script.kind = fault::FaultKind::kErrno;
    script.trigger_offset = offset;
    fault::ArmFaultPoint(point, script);
  }
  infer::FleetServer server(&fleet, run.fleet);

  const auto reloaded = std::find_if(
      tenants.begin(), tenants.end(),
      [&run](const FleetTenant& t) { return t.id == run.reload_id; });
  CheckpointStage stage;
  std::unique_ptr<infer::CheckpointReloader> reloader;
  if (reloaded != tenants.end()) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("d2stgnn_" + run.scenario + "_" + std::to_string(::getpid()) + "_t" +
         std::to_string(threads));
    reloader = StartTwinReloader(
        w, c, reloaded->seed, /*use_plans=*/true, dir.string(),
        /*fresh=*/true, run.reload_poll_ms, server.host(reloaded->id), &stage,
        &reference[reloaded - tenants.begin()], error);
    if (reloader == nullptr) return false;
  }

  std::vector<std::atomic<int64_t>> sequences(tenants.size());
  std::vector<LoadStream> streams;
  for (size_t t = 0; t < tenants.size(); ++t) {
    out->offered_rps.push_back(
        std::max(1.0, out->saturation.rps * tenants[t].factor));
    for (int64_t s = 0; s < tenants[t].streams; ++s) {
      LoadStream stream;
      stream.rate_rps =
          out->offered_rps.back() / static_cast<double>(tenants[t].streams);
      stream.submit = [&, t](int64_t) {
        const int64_t seq = sequences[t].fetch_add(1);
        const int64_t every = tenants[t].low_priority_every;
        infer::ForecastRequest request =
            w.ring[static_cast<size_t>(seq) % w.ring.size()];
        request.deadline_us = deadline_us;
        if (every > 0 && seq % every == every - 1) {
          request.priority = infer::RequestPriority::kLow;
        }
        return server.Submit(tenants[t].id, std::move(request));
      };
      streams.push_back(std::move(stream));
    }
  }
  const double window_s = static_cast<double>(run.window_ms) / 1000.0;
  std::string stage_error;
  OpenLoopOptions options;
  options.windows = run.windows;
  options.window_s = window_s;
  options.on_tick = [&](double elapsed_s) {
    out->max_tier = std::max(out->max_tier, server.stats().tier);
    return stage.DropAt(elapsed_s, window_s, &stage_error);
  };
  const std::vector<std::vector<LoadSample>> samples =
      RunOpenLoop(streams, options);

  // The swap must land before the probes (the reloader retries through
  // any injected staging fault).
  if (reloader != nullptr) {
    if (stage_error.empty()) stage.WaitForSwap(*reloader, &stage_error);
    out->hot_swaps = reloader->stats().swaps;
  }
  if (!stage_error.empty()) {
    *error = run.scenario + " run: " + stage_error;
    return false;
  }
  // Bitwise probes once the backlog drains (the reloaded lane's reference
  // is now its twin's); generous retries ride out tier recovery.
  for (size_t t = 0; t < tenants.size(); ++t) {
    infer::RetryPolicy policy;
    policy.max_attempts = 64;
    policy.initial_backoff_us = 2000;
    policy.max_backoff_us = 50000;
    policy.jitter_seed = c.workload_seed;
    const infer::RetryResult probe =
        infer::SubmitWithRetry(&server, tenants[t].id, w.ring[0], policy);
    const bool bitwise =
        probe.forecast.ok && probe.forecast.values == reference[t];
    out->bitwise_models += bitwise ? 1 : 0;
    if (tenants.begin() + static_cast<ptrdiff_t>(t) == reloaded) {
      out->post_swap_bitwise = bitwise ? 1 : 0;
    }
  }
  reloader.reset();
  server.Shutdown();
  out->stats = server.stats();
  out->faults_fired = fault::FaultFireCount();
  for (const auto& [id, model] : out->stats.models) {
    if (id != run.reload_id) out->others_session_swaps += model.session_swaps;
  }

  int64_t completed = 0;
  for (size_t t = 0, stream = 0; t < tenants.size(); ++t) {
    std::vector<LoadSample> mine;  // the tenant's streams are consecutive
    for (int64_t s = 0; s < tenants[t].streams; ++s, ++stream) {
      mine.insert(mine.end(), samples[stream].begin(), samples[stream].end());
    }
    WindowTally total;
    const std::vector<WindowTally> tallies = TallyWindows(mine, run.windows);
    for (int64_t i = 0; i < run.windows; ++i) {
      json::Value record = WindowRecord(
          run.scenario, threads, c.max_batch_size, window_s, i,
          tallies[static_cast<size_t>(i)], tenants[t].labels);
      out->max_window_p99_ms =
          std::max(out->max_window_p99_ms, record.Get("p99_ms").AsDouble());
      sink->AddRecord(std::move(record));
      total += tallies[static_cast<size_t>(i)];
    }
    completed += total.completed;
    out->totals.push_back(std::move(total));
  }

  if (completed == 0) {
    *error = run.scenario + " run completed zero requests";
  } else if (out->bitwise_models != static_cast<int64_t>(tenants.size())) {
    *error = run.scenario + " forecasts diverge from the standalone " +
             "sessions and staged twins (" +
             std::to_string(out->bitwise_models) + "/" +
             std::to_string(tenants.size()) + " tenants bitwise)";
  } else if (out->others_session_swaps != 0) {
    *error = "hot reload perturbed other models' sessions (" +
             std::to_string(out->others_session_swaps) +
             " unexpected swaps)";
  }
  return error->empty();
}

using Summaries = std::vector<std::pair<std::string, json::Value>>;

/// Writes an open-loop scenario's summary keys in their BENCH order:
/// saturation_rps, `head`, the reload outcome, `middle`, the chaos and
/// degrade outcome, `tail`.
void WriteSummaries(const LoadOutcome& out, size_t faults_armed,
                    const Summaries& head, const Summaries& middle,
                    const Summaries& tail, MetricsSink* sink) {
  using json::Value;
  Summaries all = {{"saturation_rps", Value::Number(out.saturation.rps)}};
  all.insert(all.end(), head.begin(), head.end());
  all.emplace_back("hot_swaps", Value::Int(out.hot_swaps));
  all.emplace_back("post_swap_bitwise", Value::Int(out.post_swap_bitwise));
  all.insert(all.end(), middle.begin(), middle.end());
  all.emplace_back("faults_armed",
                   Value::Int(static_cast<int64_t>(faults_armed)));
  all.emplace_back("faults_fired", Value::Int(out.faults_fired));
  all.emplace_back("max_tier",
                   Value::Str(infer::OverloadTierName(out.max_tier)));
  all.emplace_back("degrade_transitions",
                   Value::Int(out.stats.degrade_transitions));
  all.insert(all.end(), tail.begin(), tail.end());
  for (const auto& [key, value] : all) sink->SetSummary(key, value);
}

/// The overload scenario (DESIGN.md §13): one tenant — the [model] seed —
/// offered `factor` x saturation over `producers` streams, every Nth
/// request low priority, behind the [overload] admission gate.
bool SweepOverload(const ServingConfig& c, const ServingWorkload& w,
                   int64_t threads, const std::vector<ChaosFault>& faults,
                   MetricsSink* sink, std::string* error) {
  FleetTenant tenant;
  tenant.id = "model";
  tenant.seed = c.model_seed;
  tenant.factor = c.overload_factor;
  tenant.streams = std::max<int64_t>(1, c.producers);
  tenant.low_priority_every = c.low_priority_every;
  LoadRun run{"overload", {tenant}, {}, c.overload_windows, c.window_ms,
              c.deadline_ms, c.hot_swap ? tenant.id : "",
              std::max<int64_t>(10, c.window_ms / 10)};
  run.fleet.max_queue_depth = c.max_queue_depth;
  run.fleet.admission.rate_rps = c.overload_rate_rps;
  run.fleet.admission.shed_latency_us = c.shed_latency_ms * 1000;
  LoadOutcome out;
  if (!RunOpenLoopScenario(c, w, threads, run, faults, sink, &out, error)) {
    return false;
  }
  using json::Value;
  const WindowTally& total = out.totals.front();
  WriteSummaries(
      out, faults.size(),
      {{"offered_rps", Value::Number(out.offered_rps.front())},
       {"overload_shed_rate", Value::Number(total.Share(total.shed))},
       {"overload_deadline_miss_rate",
        Value::Number(total.Share(total.expired))},
       {"overload_completed", Value::Int(total.completed)},
       {"overload_max_p99_ms", Value::Number(out.max_window_p99_ms)}},
      {}, {{"session_swaps", Value::Int(out.stats.session_swaps)}}, sink);
  return true;
}

/// The multi-city fleet scenario (DESIGN.md §14): every [fleet] tenant, one
/// stream each — the healthy ones well under saturation, the hot one past
/// it — while one model hot-reloads. The isolation summaries the baseline
/// gates: the best-priority healthy ("high") tenants ride out the hot
/// tenant's overload, and the reload touches one lane.
bool SweepFleet(const ServingConfig& c, const ServingWorkload& w,
                int64_t threads, const std::vector<ChaosFault>& faults,
                MetricsSink* sink, std::string* error) {
  std::vector<FleetTenant> tenants;
  if (!ParseFleetTenants(c, &tenants, error)) return false;
  const std::string reload_id =
      c.fleet_reload_model.empty() ? tenants.front().id : c.fleet_reload_model;
  LoadRun run{"fleet", tenants, {}, c.fleet_windows, c.fleet_window_ms,
              c.fleet_deadline_ms, c.fleet_hot_swap ? reload_id : "",
              std::max<int64_t>(5, c.fleet_reload_poll_ms)};
  run.fleet.max_queue_depth = c.max_queue_depth;
  LoadOutcome out;
  if (!RunOpenLoopScenario(c, w, threads, run, faults, sink, &out, error)) {
    return false;
  }
  int64_t best_priority = tenants.front().slo.priority;
  for (const FleetTenant& tenant : tenants) {
    best_priority = std::min(best_priority, tenant.slo.priority);
  }
  WindowTally all, high, hot;
  double high_p99_ms = 0.0;
  for (size_t t = 0; t < tenants.size(); ++t) {
    all += out.totals[t];
    if (tenants[t].hot) {
      hot += out.totals[t];
    } else if (tenants[t].slo.priority == best_priority) {
      high += out.totals[t];
      high_p99_ms = std::max(
          high_p99_ms,
          metrics::SummarizeLatencies(out.totals[t].latencies_ms).p99);
    }
  }
  int64_t rejected_quota = 0;
  for (const auto& [id, model] : out.stats.models) {
    rejected_quota += model.rejected_quota;
  }
  using json::Value;
  WriteSummaries(
      out, faults.size(),
      {{"fleet_models", Value::Int(static_cast<int64_t>(tenants.size()))},
       {"fleet_completed", Value::Int(all.completed)},
       {"fleet_high_shed_rate", Value::Number(high.Share(high.shed))},
       {"fleet_high_deadline_miss_rate",
        Value::Number(high.Share(high.expired))},
       {"fleet_high_p99_ms", Value::Number(high_p99_ms)},
       {"fleet_hot_shed_rate", Value::Number(hot.Share(hot.shed))},
       {"rejected_quota", Value::Int(rejected_quota)}},
      {{"bitwise_models", Value::Int(out.bitwise_models)},
       {"others_session_swaps", Value::Int(out.others_session_swaps)}},
      {}, sink);
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
  std::vector<ChaosFault> faults;
  if (!CheckServingRanges(config, error) ||
      !ParseChaosFaults(config.chaos_faults, &faults, error)) {
    return false;
  }
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

std::unique_ptr<infer::CheckpointReloader> StartTwinReloader(
    const ServingWorkload& w, const ServingConfig& config, uint64_t seed,
    bool use_plans, const std::string& dir, bool fresh, int64_t poll_ms,
    infer::SessionHost* host, CheckpointStage* stage,
    std::vector<float>* reference, std::string* error) {
  if (reference != nullptr &&
      !ReferenceForecast(w, config, seed + 1, reference, error)) {
    return nullptr;
  }
  if (!stage->Open(dir, fresh, BuildServingModel(w, config, seed + 1),
                   error)) {
    return nullptr;
  }
  infer::HotReloadOptions options;
  options.directory = stage->dir();
  options.poll_interval_ms = poll_ms;
  auto reloader = std::make_unique<infer::CheckpointReloader>(
      host, [&w, &config, seed] { return BuildServingModel(w, config, seed); },
      w.scaler, ServingSessionOptions(w, config, use_plans), options);
  reloader->Start();
  return reloader;
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
    tenant.labels.Set("model", json::Value::Str(tenant.id));
    tenant.labels.Set("slo", json::Value::Str(tenant.slo.name));
    tenant.labels.Set("priority", json::Value::Int(tenant.slo.priority));
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
  std::vector<ChaosFault> faults;
  if (!ResolveServingBackends(config, &backends, error) ||
      !ParseChaosFaults(config.chaos_faults, &faults, error)) {
    return false;
  }
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
          ok = SweepOverload(config, w, threads, faults, sink, error);
        } else if (scenario == "fleet") {
          ok = SweepFleet(config, w, threads, faults, sink, error);
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
