// Serving a trained model with the inference engine: an InferenceSession
// wrapping D2STGNN behind a micro-batching BatchingServer, driven by the
// experiment harness's open-loop load driver (experiment/load_driver.h, the
// one the overload and fleet scenarios use) — producers submit on a fixed
// schedule whether or not earlier requests have finished, like real
// traffic does — then a latency/throughput report (p50/p95/p99 via
// metrics::SummarizeLatencies). The network, request ring, model and
// session come from the serving scenarios' builders
// (experiment/serving.h), at the demo's own sizes.
//
// The generator runs once per serving mode, each against a fresh session
// around identically-initialized weights:
//   eager — every forward runs the normal op dispatch path
//   plan  — warmed-up batch shapes replay captured execution plans
//           (DESIGN.md §10); the report adds the plan-cache counters
//
//   ./build/examples/serve_forecasts [rate_rps] [seconds] [producers]
//       [--mode=eager|plan|both] [--qps=N] [--deadline-ms=N]
//       [--reload-dir=DIR] [--reload-poll-ms=N]
//       [--fleet] [--models=id:slo,...]
//
// Defaults: 200 req/s for 2 seconds from 2 producers, --mode=both.
//
// Overload-resilience knobs (DESIGN.md §13):
//   --qps=N         named override of the positional rate — push it past
//                   what one core serves and watch the admission controller
//                   shed with typed, retryable rejections
//   --deadline-ms=N per-request deadline; requests that would go stale in
//                   the queue are dropped before they waste a batch slot
//   --reload-dir=D  watch D for checkpoints and hot-swap them in under
//                   live traffic; the demo drops a differently-seeded twin
//                   checkpoint into D halfway through each run, so the
//                   post-swap forecasts visibly change mid-load, and waits
//                   for the swap (exit 1 if the twin cannot be staged)
//   --reload-poll-ms=N  checkpoint watcher poll period (default 50)
//
// Fleet mode (DESIGN.md §14) — one process, many city models:
//   --fleet         serve every tenant in --models from a single
//                   FleetServer: per-model weights, plan caches, and SLO
//                   classes behind one shared queue, with weighted-fair
//                   arbitration once the queue is contended. Ends with a
//                   per-model report table (per-reason rejects, tier,
//                   session swaps). With --reload-dir, a twin checkpoint
//                   is hot-reloaded into the *first* tenant mid-run — the
//                   other lanes must not swap.
//   --models=...    comma-separated "id" or "id:slo" tenants (SLO classes:
//                   gold, silver, bronze); default
//                   "metr-la:gold,pems-bay:silver,city-syn:bronze"
//
//   ./build/examples/serve_forecasts --fleet
//       --models=metr-la:gold,pems-bay:silver,city-syn:bronze
//       --qps=600 --reload-dir=/tmp/fleet-demo

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "experiment/load_driver.h"
#include "experiment/serving.h"
#include "infer/batching_server.h"
#include "infer/fleet/fleet.h"
#include "infer/fleet/fleet_server.h"
#include "infer/hot_reload.h"
#include "metrics/metrics.h"
#include "tensor/kernels/registry.h"

using namespace d2stgnn;
using experiment::CheckpointStage;
using experiment::FleetTenant;
using experiment::LoadSample;
using experiment::ServingConfig;
using experiment::ServingWorkload;

namespace {

// The demo's serving shape: a 20-sensor network and a two-layer D2STGNN.
ServingConfig DemoConfig() {
  ServingConfig c;
  c.num_nodes = 20;
  c.hidden_dim = 16;
  c.embed_dim = 8;
  c.num_layers = 2;
  c.num_heads = 4;
  c.workload_seed = 11;
  c.model_seed = 3;
  c.max_batch_size = 8;
  c.max_wait_us = 1000;
  c.max_queue_depth = 1024;
  return c;
}

// Load knobs threaded from main into each run.
struct LoadConfig {
  double rate_rps = 200.0;   // aggregate, split evenly across the streams
  double seconds = 2.0;
  int64_t deadline_us = 0;   // 0 = no deadline
  std::string reload_dir;    // empty = no hot-reload watcher
  int64_t reload_poll_ms = 50;
};

using SubmitFn = std::function<std::future<infer::Forecast>(
    size_t stream, infer::ForecastRequest request)>;

// Drives `streams` open-loop streams sharing load.rate_rps, stream i
// cycling through ring entries i, i + streams, ... through `submit`. With
// --reload-dir, the twin of weights `seed` is staged in `reload_dir`,
// checkpointed halfway through the run and hot-reloaded into `host`, and
// the run waits for the swap; the watcher stops before this returns.
// Fills per-stream samples and the run's wall time; false with `error` set
// when staging or the swap fails.
bool DriveLoad(const LoadConfig& load, size_t streams, const ServingWorkload& w,
               const ServingConfig& c, const SubmitFn& submit,
               infer::SessionHost* host, uint64_t seed, bool use_plans,
               const std::string& reload_dir,
               std::vector<std::vector<LoadSample>>* samples,
               double* elapsed_s, std::string* error) {
  CheckpointStage stage;
  std::unique_ptr<infer::CheckpointReloader> reloader;
  if (!load.reload_dir.empty()) {
    reloader = experiment::StartTwinReloader(
        w, c, seed, use_plans, reload_dir, /*fresh=*/false,
        load.reload_poll_ms, host, &stage, nullptr, error);
    if (reloader == nullptr) return false;
  }
  std::vector<experiment::LoadStream> lanes(streams);
  for (size_t i = 0; i < streams; ++i) {
    lanes[i].rate_rps = load.rate_rps / static_cast<double>(streams);
    lanes[i].submit = [&, i](int64_t seq) {
      infer::ForecastRequest request =
          w.ring[(static_cast<size_t>(seq) * streams + i) % w.ring.size()];
      request.deadline_us = load.deadline_us;
      return submit(i, std::move(request));
    };
  }
  experiment::OpenLoopOptions options;
  options.window_s = load.seconds;
  options.on_tick = [&](double elapsed) {
    return stage.DropAt(elapsed, load.seconds / 2.0, error);
  };
  const auto start = std::chrono::steady_clock::now();
  *samples = experiment::RunOpenLoop(lanes, options);
  *elapsed_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  if (reloader != nullptr && error->empty()) {
    stage.WaitForSwap(*reloader, error);
  }
  return error->empty();
}

// Drives the open-loop load against one session and prints its report.
// Returns false on setup or hot-reload failure.
bool RunLoad(infer::InferenceSession* session, const char* label,
             bool use_plans, const ServingWorkload& w, const ServingConfig& c,
             int producers, const LoadConfig& load) {
  infer::BatchingOptions batching;
  batching.max_batch_size = c.max_batch_size;
  batching.max_wait_us = c.max_wait_us;
  batching.max_queue_depth = c.max_queue_depth;
  infer::BatchingServer server(session, batching);

  // Hot-reload: watch --reload-dir and swap staged checkpoints in while
  // the producers keep submitting. The demo seeds the directory itself: a
  // twin model (different weights, same architecture) is checkpointed
  // halfway through the run, so the swap happens under live traffic. Each
  // mode gets its own subdirectory so --mode=both does not replay the eager
  // run's checkpoint into the plan run at t=0.
  const std::string reload_dir = load.reload_dir + "/" + label;
  std::printf("\n[%s] open-loop load: %.0f req/s for %.1f s from %d "
              "producer%s\n",
              label, load.rate_rps, load.seconds, producers,
              producers == 1 ? "" : "s");
  std::vector<std::vector<LoadSample>> samples;
  double elapsed = 0.0;
  std::string error;
  const bool ok = DriveLoad(
      load, static_cast<size_t>(producers), w, c,
      [&](size_t, infer::ForecastRequest request) {
        return server.Submit(std::move(request));
      },
      &server, c.model_seed, use_plans, reload_dir, &samples, &elapsed,
      &error);
  server.Shutdown();
  if (!ok) {
    std::fprintf(stderr, "[%s] %s\n", label, error.c_str());
    return false;
  }

  experiment::WindowTally tally;
  for (const std::vector<LoadSample>& lane : samples) {
    tally += experiment::TallyWindows(lane, 1)[0];
  }
  const metrics::LatencyStats stats =
      metrics::SummarizeLatencies(tally.latencies_ms);
  const infer::BatchingServerStats server_stats = server.stats();
  std::printf("[%s] served %lld requests in %.2f s (%.1f req/s), "
              "%lld shed, %lld expired\n",
              label, static_cast<long long>(stats.count), elapsed,
              static_cast<double>(stats.count) / elapsed,
              static_cast<long long>(tally.shed),
              static_cast<long long>(tally.expired));
  std::printf("[%s] latency: p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  "
              "max %.3f ms\n",
              label, stats.p50, stats.p95, stats.p99, stats.max);
  std::printf("[%s] batches: %lld (%lld full, %lld by timer), mean %.2f "
              "req/batch, peak queue %lld\n",
              label, static_cast<long long>(server_stats.batches),
              static_cast<long long>(server_stats.full_flushes),
              static_cast<long long>(server_stats.timeout_flushes),
              server_stats.batches > 0
                  ? static_cast<double>(server_stats.completed) /
                        static_cast<double>(server_stats.batches)
                  : 0.0,
              static_cast<long long>(server_stats.max_queue_depth_seen));
  if (server_stats.rejected + server_stats.expired_deadlines > 0) {
    std::printf("[%s] rejects: %lld queue-full, %lld rate-limited, "
                "%lld overloaded, %lld low-priority, %lld deadline-expired "
                "(tier %s)\n",
                label, static_cast<long long>(server_stats.rejected_queue_full),
                static_cast<long long>(server_stats.rejected_rate_limited),
                static_cast<long long>(server_stats.rejected_overloaded),
                static_cast<long long>(server_stats.rejected_low_priority),
                static_cast<long long>(server_stats.expired_deadlines),
                infer::OverloadTierName(server_stats.tier));
  }
  if (!load.reload_dir.empty()) {
    std::printf("[%s] hot-reload: %lld session swap%s from %s\n", label,
                static_cast<long long>(server_stats.session_swaps),
                server_stats.session_swaps == 1 ? "" : "s",
                reload_dir.c_str());
  }
  const infer::SessionStats session_stats = session->session_stats();
  if (session_stats.plans_built > 0) {
    std::printf("[%s] plans: %lld built, %lld replays (%lld padded), "
                "%lld eager fallbacks\n",
                label, static_cast<long long>(session_stats.plans_built),
                static_cast<long long>(session_stats.plan_replays),
                static_cast<long long>(session_stats.padded_replays),
                static_cast<long long>(session_stats.eager_forwards));
  }
  return true;
}

// Fleet mode: every tenant behind one FleetServer, one open-loop stream
// per model, then a per-model report table. Returns false on setup or
// hot-reload failure.
bool RunFleetLoad(const std::vector<FleetTenant>& tenants,
                  const ServingWorkload& w, const ServingConfig& c,
                  const LoadConfig& load) {
  infer::ModelFleet fleet;
  std::string error;
  if (!experiment::AddFleetTenants(w, c, tenants, &fleet, &error)) {
    std::fprintf(stderr, "fleet setup failed: %s\n", error.c_str());
    return false;
  }
  infer::FleetOptions fleet_options;
  fleet_options.max_queue_depth = c.max_queue_depth;
  infer::FleetServer server(&fleet, fleet_options);

  // Hot reload in fleet mode: the watcher targets the *first* tenant's
  // lane; every other lane must ride out the swap untouched.
  const FleetTenant& reloaded = tenants.front();
  const std::string reload_dir = load.reload_dir + "/fleet-" + reloaded.id;
  std::printf("\n[fleet] open-loop load: %.0f req/s split across %zu "
              "model%s for %.1f s\n",
              load.rate_rps, tenants.size(), tenants.size() == 1 ? "" : "s",
              load.seconds);
  std::vector<std::vector<LoadSample>> samples;
  double elapsed = 0.0;
  const bool ok = DriveLoad(
      load, tenants.size(), w, c,
      [&](size_t m, infer::ForecastRequest request) {
        return server.Submit(tenants[m].id, std::move(request));
      },
      server.host(reloaded.id), reloaded.seed, /*use_plans=*/true,
      reload_dir, &samples, &elapsed, &error);
  server.Shutdown();
  if (!ok) {
    std::fprintf(stderr, "[fleet] %s\n", error.c_str());
    return false;
  }

  const infer::FleetStats stats = server.stats();
  std::printf("[fleet] %lld served / %lld offered in %.2f s (tier %s, "
              "%lld unknown-model rejects)\n",
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.submitted), elapsed,
              infer::OverloadTierName(stats.tier),
              static_cast<long long>(stats.rejected_unknown_model));
  std::printf("  %-12s %-8s %9s %9s %9s %9s %28s %6s\n", "model", "slo",
              "served", "p50 ms", "p99 ms", "shed",
              "rejects (q/rate/over/low/quota)", "swaps");
  for (size_t m = 0; m < tenants.size(); ++m) {
    const infer::FleetModelStats& ms = stats.models.at(tenants[m].id);
    const metrics::LatencyStats lat = metrics::SummarizeLatencies(
        experiment::TallyWindows(samples[m], 1)[0].latencies_ms);
    char rejects[64];
    std::snprintf(rejects, sizeof(rejects),
                  "%lld/%lld/%lld/%lld/%lld",
                  static_cast<long long>(ms.rejected_queue_full),
                  static_cast<long long>(ms.rejected_rate_limited),
                  static_cast<long long>(ms.rejected_overloaded),
                  static_cast<long long>(ms.rejected_low_priority),
                  static_cast<long long>(ms.rejected_quota));
    std::printf("  %-12s %-8s %9lld %9.3f %9.3f %9lld %28s %6lld\n",
                tenants[m].id.c_str(), tenants[m].slo.name.c_str(),
                static_cast<long long>(ms.completed), lat.p50, lat.p99,
                static_cast<long long>(ms.rejected + ms.expired_deadlines),
                rejects, static_cast<long long>(ms.session_swaps));
  }
  if (!load.reload_dir.empty()) {
    std::printf("[fleet] hot-reload: %lld swap%s on '%s' from %s\n",
                static_cast<long long>(stats.session_swaps),
                stats.session_swaps == 1 ? "" : "s", reloaded.id.c_str(),
                reload_dir.c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double rate_rps = 200.0;
  double seconds = 2.0;
  int64_t producer_count = 2;
  std::string mode = "both";
  double qps = 0.0;
  double deadline_ms = 0.0;
  std::string reload_dir;
  int64_t reload_poll_ms = 50;
  bool fleet_mode = false;
  std::string models = "metr-la:gold,pems-bay:silver,city-syn:bronze";
  std::string backend;
  FlagParser flags("serve_forecasts",
                   "open-loop serving demo against the BatchingServer");
  flags.AddPositionalDouble("rate_rps", &rate_rps,
                            "aggregate request rate (default 200)");
  flags.AddPositionalDouble("seconds", &seconds,
                            "run duration per mode (default 2)");
  flags.AddPositionalInt("producers", &producer_count,
                         "concurrent request producers (default 2)");
  flags.AddChoice("mode", &mode, {"eager", "plan", "both"},
                  "which dispatch mode(s) to serve");
  flags.AddDouble("qps", &qps,
                  "named override of rate_rps (0 = use the positional)");
  flags.AddDouble("deadline-ms", &deadline_ms,
                  "per-request deadline in ms (0 = none); stale requests "
                  "are dropped before dispatch");
  flags.AddString("reload-dir", &reload_dir,
                  "watch this directory for checkpoints and hot-swap them "
                  "in under load (a twin checkpoint is dropped mid-run)");
  flags.AddInt("reload-poll-ms", &reload_poll_ms,
               "checkpoint watcher poll period in ms (default 50)");
  flags.AddBool("fleet", &fleet_mode,
                "serve every --models tenant from one FleetServer "
                "(per-model SLO classes, shared-capacity arbitration)");
  flags.AddString("models", &models,
                  "fleet tenants as comma-separated id[:slo] entries "
                  "(SLO classes: gold, silver, bronze)");
  flags.AddString("backend", &backend,
                  "kernel backend to serve under (scalar, avx2; default: "
                  "runtime detection, D2STGNN_FORCE_BACKEND honored)");
  if (!flags.Parse(argc, argv)) {
    if (flags.help_requested()) {
      std::fputs(flags.Usage().c_str(), stdout);
      return 0;
    }
    std::fprintf(stderr, "%s: %s\n%s", argv[0], flags.error().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  const int producers = static_cast<int>(producer_count);
  const bool run_eager = mode == "eager" || mode == "both";
  const bool run_plan = mode == "plan" || mode == "both";
  if (qps > 0.0) rate_rps = qps;
  if (rate_rps <= 0.0 || seconds <= 0.0 || producers <= 0) {
    std::fprintf(stderr, "%s: rate_rps, seconds, and producers must be > 0\n",
                 argv[0]);
    return 1;
  }
  if (deadline_ms < 0.0) {
    std::fprintf(stderr, "%s: --deadline-ms must be >= 0\n", argv[0]);
    return 1;
  }
  if (reload_poll_ms <= 0) {
    std::fprintf(stderr, "%s: --reload-poll-ms must be > 0\n", argv[0]);
    return 1;
  }
  if (!backend.empty()) {
    std::string error;
    if (!kernels::SetActiveBackend(backend, &error)) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
      return 1;
    }
  }
  std::printf("kernel backend: %s (detected: %s)\n",
              kernels::ActiveBackend().name, kernels::DetectedBackendName());

  // A road network to serve forecasts for, and a ring of real sensor
  // windows to request forecasts for.
  ServingConfig c = DemoConfig();
  const ServingWorkload w = experiment::BuildServingWorkload(c);

  LoadConfig load;
  load.rate_rps = rate_rps;
  load.seconds = seconds;
  load.deadline_us = static_cast<int64_t>(deadline_ms * 1000.0);
  load.reload_dir = reload_dir;
  load.reload_poll_ms = reload_poll_ms;

  if (fleet_mode) {
    std::istringstream entries(models);
    for (std::string entry; std::getline(entries, entry, ',');) {
      c.fleet_models.push_back(entry);
    }
    c.fleet_hot_swap = !reload_dir.empty();
    std::vector<FleetTenant> tenants;
    std::string error;
    if (!experiment::ParseFleetTenants(c, &tenants, &error)) {
      std::fprintf(stderr, "%s: --models: %s\n", argv[0], error.c_str());
      return 1;
    }
    return RunFleetLoad(tenants, w, c, load) ? 0 : 1;
  }

  std::unique_ptr<infer::InferenceSession> last_session;
  for (const bool use_plans : {false, true}) {
    if (!(use_plans ? run_plan : run_eager)) continue;
    // A session over deterministically-seeded weights. A real deployment
    // would InferenceSession::Load() a trained checkpoint instead; the
    // serving path is identical. With plans on, the BatchingServer warms
    // sizes 1 and max_batch_size on construction, so the load runs against
    // captured plans from the start.
    auto session = experiment::BuildServingSession(w, c, use_plans);
    if (session == nullptr ||
        !RunLoad(session.get(), use_plans ? "plan" : "eager", use_plans, w, c,
                 producers, load)) {
      return 1;
    }
    last_session = std::move(session);
  }

  // One forecast, end to end, for show: the model's 12-step speed forecast
  // for sensor 0.
  const infer::Forecast sample = last_session->PredictOne(w.ring[0]);
  if (sample.ok) {
    std::printf("\nsensor 0 forecast (mph):");
    for (int64_t t = 0; t < sample.horizon; ++t) {
      std::printf(" %.1f", sample.values[static_cast<size_t>(
                               t * sample.num_nodes)]);
    }
    std::printf("\n");
  }
  return 0;
}
