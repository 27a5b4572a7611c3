// fleet-reload: a two-lane FleetServer (gold: METR-LA-shaped, bronze:
// PEMS08-shaped) under open-loop load while a reload thread keeps swapping
// freshly built sessions into the bronze lane. Also the fleet probe that
// serve-metr-la's traced run uses to measure the fleet layer.

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/thread_pool.h"
#include "data/presets.h"
#include "infer/fleet/fleet.h"
#include "infer/fleet/fleet_server.h"
#include "workloads.h"

namespace perfbench {

using namespace d2stgnn;

namespace {

constexpr uint64_t kGoldSeed = 207;
constexpr uint64_t kBronzeSeed = 170;
constexpr int kSetupRepeats = 3;
constexpr double kLimitMs = 2500.0;
/// Per-lane arrival rate, below the shared capacity of the seed commit.
constexpr double kLaneRatePerS = 1.0;
/// Pause between one bronze swap's end and the next build, as a share of
/// --seconds: short, so a swap is in flight most of the run and every seed
/// sees about the same churn.
constexpr double kReloadPauseShare = 0.05;
constexpr int kGold = 0;
constexpr int kBronze = 1;
const char* const kLaneIds[] = {"gold", "bronze"};

struct FleetRig {
  std::unique_ptr<GraphKit> kits[2];
  std::unique_ptr<infer::ModelFleet> fleet;
  std::unique_ptr<infer::FleetServer> server;

  void Reset() {
    server.reset();
    fleet.reset();
    kits[0].reset();
    kits[1].reset();
  }
};

/// Registers both lanes (SLO class named like the lane) and starts the
/// server, which warms each lane's plans at 1 and 8.
void StartFleet(FleetRig* rig,
                std::shared_ptr<infer::InferenceSession> sessions[2]) {
  rig->fleet = std::make_unique<infer::ModelFleet>();
  for (int lane = 0; lane < 2; ++lane) {
    infer::FleetModelOptions options;
    options.model_id = kLaneIds[lane];
    infer::ResolveSloClass(kLaneIds[lane], &options.slo);
    std::string error;
    if (!rig->fleet->AddModel(sessions[lane], options, &error)) {
      std::fprintf(stderr, "fleet: AddModel failed: %s\n", error.c_str());
      std::exit(2);
    }
  }
  rig->server = std::make_unique<infer::FleetServer>(rig->fleet.get(),
                                                     infer::FleetOptions());
}

void BuildRig(FleetRig* rig) {
  rig->kits[kGold] =
      std::make_unique<GraphKit>(MakeKit(data::MetrLaOptions(1.0f)));
  rig->kits[kBronze] =
      std::make_unique<GraphKit>(MakeKit(data::Pems08Options(1.0f)));
  std::shared_ptr<infer::InferenceSession> sessions[2] = {
      MakeSession(*rig->kits[kGold], kGoldSeed, /*use_plans=*/true),
      MakeSession(*rig->kits[kBronze], kBronzeSeed, /*use_plans=*/true)};
  StartFleet(rig, sessions);
}

double MeanBatch(const infer::FleetModelStats& s) {
  return s.batches > 0 ? static_cast<double>(s.completed) /
                             static_cast<double>(s.batches)
                       : 0.0;
}

/// The fleet-layer counters every run with a fleet reports.
void SetFleetCounters(const infer::FleetStats& stats, MetricSet* pl) {
  int64_t quota = 0, low_priority = 0;
  for (const auto& [id, s] : stats.models) {
    quota += s.rejected_quota;
    low_priority += s.rejected_low_priority;
  }
  pl->Set("fleet.gold_mean_batch", "requests",
          MeanBatch(stats.models.at(kLaneIds[kGold])));
  pl->Set("fleet.bronze_mean_batch", "requests",
          MeanBatch(stats.models.at(kLaneIds[kBronze])));
  pl->Set("fleet.quota_rejects", "count", static_cast<double>(quota));
  pl->Set("fleet.low_priority_rejects", "count",
          static_cast<double>(low_priority));
}

}  // namespace

Report RunFleetReload(const Args& args) {
  Report report;
  report.env = args.env;
  SetNumThreads(report.env.pool_threads);
  Tracer tracer(args.trace);

  std::vector<double> setup_s;
  FleetRig rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.Reset();
    ScopedSpan span(&tracer, "setup");
    const double t0 = NowS();
    BuildRig(&rig);
    setup_s.push_back(NowS() - t0);
  }
  const GraphKit& bronze = *rig.kits[kBronze];
  const std::shared_ptr<infer::InferenceSession> gold_session =
      rig.server->session(kLaneIds[kGold]);
  const int64_t gold_allocs = gold_session->arena_stats().fresh_allocations;

  // One merged open-loop phase; the lanes draw from their own streams.
  Phase phase;
  phase.name = "fleet";
  for (int lane = 0; lane < 2; ++lane) {
    SplitMix64 windows(args.seed * 1000003ull + 101 + lane);
    for (const double t : PoissonSchedule(args.seed * 7919ull + 101 + lane,
                                          kLaneRatePerS, args.seconds)) {
      RequestRecord r;
      r.lane = lane;
      r.window = PickWindowStart(*rig.kits[lane], windows);
      r.scheduled_s = t;
      phase.requests.push_back(std::move(r));
    }
  }
  std::stable_sort(phase.requests.begin(), phase.requests.end(),
                   [](const RequestRecord& a, const RequestRecord& b) {
                     return a.scheduled_s < b.scheduled_s;
                   });

  // Reload thread: build a fresh bronze session, then swap it in (the swap
  // warms it: plan capture and verification at batch 1 and 8).
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::vector<double> swap_ms;
  std::shared_ptr<infer::InferenceSession> last_bronze;
  int64_t last_bronze_allocs = 0;
  double last_swap_end_s = 0.0;
  const int64_t load_span = tracer.Begin("load");
  std::thread reloader([&] {
    const auto interval =
        std::chrono::duration<double>(args.seconds * kReloadPauseShare);
    std::unique_lock<std::mutex> lock(mu);
    while (!cv.wait_for(lock, interval, [&] { return stop; })) {
      lock.unlock();
      const int64_t reload_span = tracer.Begin("reload", load_span);
      std::shared_ptr<infer::InferenceSession> next;
      {
        ScopedSpan build(&tracer, "reload.build_session", reload_span);
        next = MakeSession(bronze, kBronzeSeed, /*use_plans=*/true);
      }
      const double t0 = NowS();
      {
        ScopedSpan swap(&tracer, "reload.SwapSession", reload_span);
        rig.server->SwapSession(kLaneIds[kBronze], next);
      }
      const double t1 = NowS();
      tracer.End(reload_span);
      lock.lock();
      swap_ms.push_back((t1 - t0) * 1e3);
      last_bronze = next;
      last_bronze_allocs = next->arena_stats().fresh_allocations;
      last_swap_end_s = t1;
    }
  });
  RunOpenLoop(
      &phase,
      [&](const RequestRecord& r) {
        infer::ForecastRequest request = MakeRequest(*rig.kits[r.lane], r.window);
        request.deadline_us = static_cast<int64_t>(kLimitMs * 1e3);
        return rig.server->Submit(kLaneIds[r.lane], std::move(request));
      },
      &tracer, load_span);
  {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
  }
  cv.notify_all();
  reloader.join();
  tracer.End(load_span);

  const infer::FleetStats stats = rig.server->stats();
  const int64_t gold_fresh =
      gold_session->arena_stats().fresh_allocations - gold_allocs;
  const int64_t bronze_fresh =
      last_bronze ? last_bronze->arena_stats().fresh_allocations -
                        last_bronze_allocs
                  : 0;

  const PhaseCounts all = CountPhase(phase);
  const PhaseCounts lanes[2] = {CountPhase(phase, kGold),
                                CountPhase(phase, kBronze)};
  report.Check(all.sent == all.ok + all.rejected + all.expired + all.errored,
               "fleet: sent != ok + rejected + expired + errored");
  std::vector<double> latency;
  for (const RequestRecord& r : phase.requests) {
    if (r.outcome == Outcome::kOk) {
      latency.push_back((r.resolved_s - r.scheduled_s) * 1e3);
    }
  }
  const Summary pooled = Summarize(latency);
  for (int lane = 0; lane < 2; ++lane) {
    const PhaseCounts& c = lanes[lane];
    const infer::FleetModelStats& s = stats.models.at(kLaneIds[lane]);
    report.Check(s.completed == c.ok && s.rejected == c.rejected &&
                     s.expired_deadlines == c.expired,
                 std::string("fleet lane ") + kLaneIds[lane] +
                     ": server counters differ from the generator's");
    std::ostringstream line;
    line << kLaneIds[lane] << "_p50_ms " << c.latency_ms.p50 << " ms, "
         << kLaneIds[lane] << "_tail_ms " << c.latency_ms.tail << " ms (p"
         << c.latency_ms.tail_pct << ", n=" << c.latency_ms.n << ") | sent "
         << c.sent << " ok " << c.ok << " rejected " << c.rejected
         << " expired " << c.expired << " errored " << c.errored
         << " | late p99 " << c.late_p99_ms << " ms";
    report.Note(line.str());
  }
  report.Note(Format(
      "load.tail_ms = p%.1f of both lanes' %lld forecasts; %zu bronze swaps, "
      "median %.1f ms; limit %.0f ms",
      pooled.tail_pct, static_cast<long long>(pooled.n), swap_ms.size(),
      Median(swap_ms), kLimitMs));

  report.attempted = all.sent;
  report.failed = all.rejected + all.expired + all.errored;
  report.end_to_end.Set("setup_s", "s", Median(setup_s));
  report.end_to_end.Set("peak_rss_mb", "MiB", PeakRssMb());
  report.end_to_end.Set("p50_ms", "ms", lanes[kGold].latency_ms.p50);
  const double span_s = all.last_resolved_s - all.first_scheduled_s;
  report.end_to_end.Set("throughput_per_s", "1/s",
                        span_s > 0 ? static_cast<double>(all.ok) / span_s : 0.0);

  report.Check(!swap_ms.empty(), "fleet: the reload thread made no swap");
  report.Check(gold_fresh == 0 && bronze_fresh == 0,
               "fleet: session arenas allocated fresh buffers after warm-up "
               "(gold " + std::to_string(gold_fresh) + ", bronze " +
                   std::to_string(bronze_fresh) + ")");
  report.Check(all.late_p99_ms <= kMaxLateP99Ms,
               Format("generator ran late: p99 %.2f ms > %.0f ms (run invalid)",
                      all.late_p99_ms, kMaxLateP99Ms));

  // Eager reference: a sample spread over each lane, including bronze
  // forecasts served after the last swap.
  for (int lane = 0; lane < 2; ++lane) {
    std::vector<const RequestRecord*> sample;
    int64_t seen = 0;
    for (const RequestRecord& r : phase.requests) {
      if (r.lane != lane || r.outcome != Outcome::kOk) continue;
      const bool after_swap = lane == kBronze && r.scheduled_s > last_swap_end_s;
      if ((seen++ % 12 == 0 || after_swap) && sample.size() < 8) {
        sample.push_back(&r);
      }
    }
    CheckAgainstEager(*rig.kits[lane], lane == kGold ? kGoldSeed : kBronzeSeed,
                      sample, &report, std::string("fleet-") + kLaneIds[lane]);
  }

  if (args.trace) {
    LayerPassInput in;
    in.kit = &bronze;
    in.model_seed = kBronzeSeed;
    in.batch = 1;
    in.session = rig.server->session(kLaneIds[kBronze]);
    RunLayerPass(in, &tracer, &report);
  }
  MetricSet& pl = report.per_layer;
  int64_t completed = 0, batches = 0, timeouts = 0, max_depth = 0;
  for (const auto& [id, s] : stats.models) {
    completed += s.completed;
    batches += s.batches;
    timeouts += s.timeout_flushes;
    max_depth = std::max(max_depth, s.max_queue_depth_seen);
  }
  pl.Set("server.mean_batch", "requests",
         batches > 0 ? static_cast<double>(completed) / batches : 0.0);
  pl.Set("server.timeout_flush_frac", "ratio",
         batches > 0 ? static_cast<double>(timeouts) / batches : 0.0);
  pl.Set("server.max_queue_depth", "count", static_cast<double>(max_depth));
  pl.Set("server.expired", "count", static_cast<double>(stats.expired_deadlines));
  pl.Set("server.rejected", "count", static_cast<double>(stats.rejected));
  SetFleetCounters(stats, &pl);
  pl.Set("reload.swap_ms", "ms", Median(swap_ms));
  pl.Set("reload.swaps", "count", static_cast<double>(swap_ms.size()));
  pl.Set("load.tail_ms", "ms", pooled.tail);
  pl.Set("gen.sent", "count", static_cast<double>(all.sent));
  pl.Set("gen.late_p99_ms", "ms", all.late_p99_ms);
  pl.Set("load.failed_frac", "ratio",
         all.sent > 0 ? static_cast<double>(report.failed) / all.sent : 0.0);

  rig.server->Shutdown(true);
  if (args.trace) {
    tracer.WriteTraceEvents(args.out_dir + "/fleet-reload-seed" +
                            std::to_string(args.seed) + ".trace.json");
  }
  return report;
}

void RunFleetProbe(const GraphKit& gold_kit,
                   std::shared_ptr<infer::InferenceSession> gold_session,
                   Tracer* tracer, Report* report) {
  const int64_t span = tracer->Begin("fleet.probe");
  FleetRig rig;
  rig.kits[kBronze] =
      std::make_unique<GraphKit>(MakeKit(data::Pems08Options(1.0f)));
  std::shared_ptr<infer::InferenceSession> sessions[2] = {
      std::move(gold_session),
      MakeSession(*rig.kits[kBronze], kBronzeSeed, /*use_plans=*/true)};
  StartFleet(&rig, sessions);
  const GraphKit* kits[2] = {&gold_kit, rig.kits[kBronze].get()};
  Phase phase;
  phase.name = "fleet.probe";
  for (int lane = 0; lane < 2; ++lane) {
    SplitMix64 windows(0xf1ee7 + lane);
    for (const double t : PoissonSchedule(0xf1ee7 + lane, 1.0, 4.0)) {
      RequestRecord r;
      r.lane = lane;
      r.window = PickWindowStart(*kits[lane], windows);
      r.scheduled_s = t;
      phase.requests.push_back(r);
    }
  }
  std::stable_sort(phase.requests.begin(), phase.requests.end(),
                   [](const RequestRecord& a, const RequestRecord& b) {
                     return a.scheduled_s < b.scheduled_s;
                   });
  RunOpenLoop(
      &phase,
      [&](const RequestRecord& r) {
        return rig.server->Submit(kLaneIds[r.lane],
                                  MakeRequest(*kits[r.lane], r.window));
      },
      tracer, span);
  const PhaseCounts counts = CountPhase(phase);
  report->Check(counts.ok == counts.sent,
                "fleet probe: not every request was served");
  {
    ScopedSpan swap(tracer, "fleet.SwapSession", span);
    rig.server->SwapSession(
        kLaneIds[kBronze],
        MakeSession(*rig.kits[kBronze], kBronzeSeed, /*use_plans=*/true));
  }
  SetFleetCounters(rig.server->stats(), &report->per_layer);
  rig.server->Shutdown(true);
  tracer->End(span);
}

}  // namespace perfbench
