// serve-metr-la: one BatchingServer over a METR-LA-shaped D2STGNN, driven
// open-loop over a fixed ladder of arrival rates.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "common/thread_pool.h"
#include "data/presets.h"
#include "infer/batching_server.h"
#include "workloads.h"

namespace perfbench {

using namespace d2stgnn;

namespace {

constexpr uint64_t kModelSeed = 207;
constexpr int kSetupRepeats = 3;
/// Latency limit on every percentile reported, and each request's deadline.
constexpr double kLimitMs = 2500.0;

struct Rung {
  const char* name;
  double rate_per_s;
  double share;  ///< of --seconds
};
/// The lowest rung is mostly batch-1 traffic; the top one lies beyond the
/// capacity of the seed commit (about 10 req/s in batches of 8).
constexpr Rung kLadder[] = {
    {"light", 2.0, 0.50},
    {"heavy", 4.0, 0.25},
    {"overload", 20.0, 0.25},
};

/// Forecasts per second while the server is backlogged: the requests of one
/// batch resolve together, so successive clusters of resolution stamps are
/// successive batches and each cluster's size over the gap since the
/// previous cluster is one batch's throughput. The median over batches
/// ignores the ramp-up, the drain and single slow batches.
double BacklogThroughput(const Phase& phase) {
  std::vector<double> resolved;
  for (const RequestRecord& r : phase.requests) {
    if (r.outcome == Outcome::kOk) resolved.push_back(r.resolved_s);
  }
  std::sort(resolved.begin(), resolved.end());
  constexpr double kSameBatchS = 0.005;  // >> the generator's 0.5 ms poll
  std::vector<double> rates;
  double previous = -1.0, start = -1.0;
  int64_t size = 0;
  const auto close_cluster = [&] {
    if (previous >= 0.0 && size > 0) {
      rates.push_back(static_cast<double>(size) / (start - previous));
    }
  };
  for (const double t : resolved) {
    if (start < 0.0 || t - start > kSameBatchS) {
      close_cluster();
      previous = start;
      start = t;
      size = 0;
    }
    ++size;
  }
  close_cluster();
  return Median(rates);
}

}  // namespace

Report RunServeMetrLa(const Args& args) {
  Report report;
  report.env = args.env;
  SetNumThreads(report.env.pool_threads);
  Tracer tracer(args.trace);

  // Set-up, repeated; the last one serves.
  std::vector<double> setup_s;
  std::unique_ptr<GraphKit> kit;
  std::shared_ptr<infer::InferenceSession> session;
  std::unique_ptr<infer::BatchingServer> server;
  infer::BatchingOptions options;  // batch cap 8, plans warmed at 1 and 8
  for (int i = 0; i < kSetupRepeats; ++i) {
    server.reset();
    session.reset();
    kit.reset();
    ScopedSpan span(&tracer, "setup");
    const double t0 = NowS();
    kit = std::make_unique<GraphKit>(MakeKit(data::MetrLaOptions(1.0f)));
    session = MakeSession(*kit, kModelSeed, /*use_plans=*/true);
    server = std::make_unique<infer::BatchingServer>(session, options);
    setup_s.push_back(NowS() - t0);
  }
  const int64_t allocs_after_warm = session->arena_stats().fresh_allocations;
  const infer::SessionStats session_before = session->session_stats();

  // Load: one phase per rung, drained before the next.
  std::vector<Phase> phases;
  const int64_t load_span = tracer.Begin("load");
  for (size_t p = 0; p < std::size(kLadder); ++p) {
    const Rung& rung = kLadder[p];
    Phase phase;
    phase.name = rung.name;
    SplitMix64 windows(args.seed * 1000003ull + p);
    for (const double t : PoissonSchedule(args.seed * 7919ull + p,
                                          rung.rate_per_s,
                                          args.seconds * rung.share)) {
      RequestRecord r;
      r.lane = static_cast<int>(p);
      r.window = PickWindowStart(*kit, windows);
      r.scheduled_s = t;
      phase.requests.push_back(std::move(r));
    }
    const int64_t phase_span = tracer.Begin(std::string("phase.") + rung.name,
                                            load_span);
    RunOpenLoop(
        &phase,
        [&](const RequestRecord& r) {
          infer::ForecastRequest request = MakeRequest(*kit, r.window);
          request.deadline_us = static_cast<int64_t>(kLimitMs * 1e3);
          return server->Submit(std::move(request));
        },
        &tracer, phase_span);
    tracer.End(phase_span);
    phases.push_back(std::move(phase));
  }
  tracer.End(load_span);
  const infer::BatchingServerStats stats = server->stats();
  const infer::SessionStats session_after = session->session_stats();
  const int64_t fresh_allocs =
      session->arena_stats().fresh_allocations - allocs_after_warm;

  // Per-rung accounting.
  int64_t sent = 0, ok = 0, rejected = 0, expired = 0, errored = 0;
  double max_rate = 0.0, max_late = 0.0;
  std::vector<double> sustained_latency;
  for (size_t p = 0; p < phases.size(); ++p) {
    const PhaseCounts c = CountPhase(phases[p]);
    report.Check(c.sent == c.ok + c.rejected + c.expired + c.errored,
                 std::string("phase ") + kLadder[p].name +
                     ": sent != ok + rejected + expired + errored");
    sent += c.sent;
    ok += c.ok;
    rejected += c.rejected;
    expired += c.expired;
    errored += c.errored;
    max_late = std::max(max_late, c.late_p99_ms);
    const int64_t failures = c.rejected + c.expired + c.errored;
    const bool sustained = failures == 0 && c.latency_ms.tail <= kLimitMs &&
                           phases[p].backlog_at_end <= options.max_batch_size;
    if (sustained) max_rate = std::max(max_rate, kLadder[p].rate_per_s);
    const bool overload_rung = p + 1 == phases.size();
    if (!overload_rung) {
      report.failed += failures;
      for (const RequestRecord& r : phases[p].requests) {
        if (r.outcome == Outcome::kOk) {
          sustained_latency.push_back((r.resolved_s - r.scheduled_s) * 1e3);
        }
      }
    } else {
      report.failed += c.errored;
      report.end_to_end.Set("throughput_per_s", "1/s",
                            BacklogThroughput(phases[p]));
    }
    std::ostringstream line;
    line << "rung " << kLadder[p].name << " " << kLadder[p].rate_per_s
         << " req/s: sent " << c.sent << " ok " << c.ok << " rejected "
         << c.rejected << " expired " << c.expired << " errored " << c.errored
         << " | p50 " << c.latency_ms.p50 << " ms, p" << c.latency_ms.tail_pct
         << " " << c.latency_ms.tail << " ms (n=" << c.latency_ms.n
         << ") | late p99 " << c.late_p99_ms << " ms | backlog at last send "
         << phases[p].backlog_at_end << (sustained ? " | sustained" : "");
    report.Note(line.str());
    if (p == 0) {
      report.end_to_end.Set("p50_ms", "ms", c.latency_ms.p50);
      report.Note(Format("light_p50_ms %.3f ms, light_tail_ms %.3f ms (p%.1f, n=%.0f)",
                      c.latency_ms.p50, c.latency_ms.tail,
                      c.latency_ms.tail_pct,
                      static_cast<double>(c.latency_ms.n)));
    }
  }
  // Heavy = the highest sustained rung.
  for (size_t p = phases.size(); p-- > 0;) {
    if (kLadder[p].rate_per_s != max_rate) continue;
    const PhaseCounts c = CountPhase(phases[p]);
    report.Note(Format("heavy_p50_ms %.3f ms, heavy_tail_ms %.3f ms (p%.1f, n=%.0f) at %.0f req/s",
                    c.latency_ms.p50, c.latency_ms.tail, c.latency_ms.tail_pct,
                    static_cast<double>(c.latency_ms.n), max_rate));
  }
  const Summary pooled = Summarize(sustained_latency);
  report.Note(Format("load.tail_ms = p%.1f of the sustained rungs' %.0f forecasts; "
                  "max_rate_rps %.0f; failed_frac %.4f; limit %.0f ms",
                  pooled.tail_pct, static_cast<double>(pooled.n), max_rate,
                  sent > 0 ? static_cast<double>(rejected + expired + errored) /
                                 static_cast<double>(sent)
                           : 0.0,
                  kLimitMs));
  report.attempted = sent;

  // Cross-layer checks: the server's own counters agree with the generator.
  report.Check(stats.rejected == rejected,
               "server rejected count differs from the generator's");
  report.Check(stats.expired_deadlines == expired,
               "server expired count differs from the generator's");
  report.Check(stats.completed == ok,
               "server completed count differs from the generator's ok count");
  report.Check(fresh_allocs == 0,
               "session arena allocated " + std::to_string(fresh_allocs) +
                   " fresh buffers after warm-up");
  report.Check(max_late <= kMaxLateP99Ms,
               Format("generator ran late: p99 %.2f ms > %.0f ms (run invalid)",
                   max_late, kMaxLateP99Ms));
  report.Check(max_rate > 0, "no rung was sustained");

  // Eager reference over a sample spread through each rung.
  std::vector<const RequestRecord*> sample;
  for (const Phase& phase : phases) {
    int64_t seen = 0;
    for (const RequestRecord& r : phase.requests) {
      if (r.outcome == Outcome::kOk && seen++ % 16 == 0 && sample.size() < 12) {
        sample.push_back(&r);
      }
    }
  }
  CheckAgainstEager(*kit, kModelSeed, sample, &report, "serve-metr-la");

  const int64_t replays = session_after.plan_replays - session_before.plan_replays;
  const int64_t eager = session_after.eager_forwards - session_before.eager_forwards;
  const int64_t padded =
      session_after.padded_replays - session_before.padded_replays;

  report.end_to_end.Set("setup_s", "s", Median(setup_s));
  report.end_to_end.Set("peak_rss_mb", "MiB", PeakRssMb());

  if (args.trace) {
    LayerPassInput in;
    in.kit = kit.get();
    in.model_seed = kModelSeed;
    in.batch = 1;
    in.session = session;
    RunLayerPass(in, &tracer, &report);
    RunFleetProbe(*kit, session, &tracer, &report);
  }
  MetricSet& pl = report.per_layer;
  pl.Set("session.plan_hit_frac", "ratio",
         replays + eager > 0 ? static_cast<double>(replays) /
                                   static_cast<double>(replays + eager)
                             : 0.0);
  pl.Set("session.padded_frac", "ratio",
         replays > 0 ? static_cast<double>(padded) / static_cast<double>(replays)
                     : 0.0);
  pl.Set("session.fresh_allocs", "count", static_cast<double>(fresh_allocs));
  pl.Set("server.mean_batch", "requests",
         stats.batches > 0 ? static_cast<double>(stats.completed) /
                                 static_cast<double>(stats.batches)
                           : 0.0);
  pl.Set("server.timeout_flush_frac", "ratio",
         stats.batches > 0 ? static_cast<double>(stats.timeout_flushes) /
                                 static_cast<double>(stats.batches)
                           : 0.0);
  pl.Set("server.max_queue_depth", "count",
         static_cast<double>(stats.max_queue_depth_seen));
  pl.Set("server.expired", "count", static_cast<double>(stats.expired_deadlines));
  pl.Set("server.rejected", "count", static_cast<double>(stats.rejected));
  pl.Set("gen.sent", "count", static_cast<double>(sent));
  pl.Set("gen.late_p99_ms", "ms", max_late);
  pl.Set("load.failed_frac", "ratio",
         sent > 0 ? static_cast<double>(rejected + expired + errored) /
                        static_cast<double>(sent)
                  : 0.0);
  pl.Set("load.max_rate_rps", "1/s", max_rate);
  pl.Set("load.tail_ms", "ms", pooled.tail);

  server->Shutdown(true);
  if (args.trace) {
    tracer.WriteTraceEvents(args.out_dir + "/serve-metr-la-seed" +
                            std::to_string(args.seed) + ".trace.json");
  }
  return report;
}

}  // namespace perfbench
