// Graph kits, the open-loop generator, phase accounting and the eager
// reference check shared by the workloads.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "tensor/kernels/backend.h"
#include "tensor/kernels/registry.h"
#include "workloads.h"

namespace perfbench {

using namespace d2stgnn;

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  check_failures.push_back(what);
}

// ---------------------------------------------------------------------------
// Graph kits.

GraphKit MakeKit(data::SyntheticTrafficOptions options) {
  GraphKit kit;
  kit.name = options.name;
  // The sensor network is drawn first from the preset's seed, so the
  // topology is the preset's whatever the number of steps.
  options.num_steps = kKitDays * options.steps_per_day;
  kit.traffic = data::GenerateSyntheticTraffic(options);
  kit.train_steps = options.num_steps * 7 / 10;
  kit.scaler.Fit(kit.traffic.dataset.values, kit.train_steps,
                 /*mask_zeros=*/true);
  kit.config.num_nodes = kit.traffic.dataset.num_nodes();
  kit.config.steps_per_day = options.steps_per_day;
  return kit;
}

std::unique_ptr<core::D2Stgnn> MakeModel(const GraphKit& kit,
                                         uint64_t model_seed) {
  Rng rng(model_seed);
  return std::make_unique<core::D2Stgnn>(
      kit.config, kit.traffic.dataset.network.adjacency, rng);
}

std::shared_ptr<infer::InferenceSession> MakeSession(const GraphKit& kit,
                                                     uint64_t model_seed,
                                                     bool use_plans) {
  infer::SessionOptions options;
  options.num_nodes = kit.config.num_nodes;
  options.input_len = kit.config.input_len;
  options.steps_per_day = kit.config.steps_per_day;
  options.use_plans = use_plans;
  options.verify_plans = true;  // every capture is re-verified
  return std::shared_ptr<infer::InferenceSession>(infer::InferenceSession::Wrap(
      MakeModel(kit, model_seed), kit.scaler, options));
}

infer::ForecastRequest MakeRequest(const GraphKit& kit, int64_t start) {
  const data::TimeSeriesDataset& ds = kit.traffic.dataset;
  const int64_t n = ds.num_nodes();
  const std::vector<float>& values = ds.values.Data();
  infer::ForecastRequest request;
  request.window.assign(values.begin() + start * n,
                        values.begin() + (start + kit.config.input_len) * n);
  request.time_of_day = ds.TimeOfDay(start);
  request.day_of_week = ds.DayOfWeek(start);
  return request;
}

int64_t PickWindowStart(const GraphKit& kit, SplitMix64& rng) {
  const int64_t first = kit.train_steps;
  const int64_t last =
      kit.traffic.dataset.num_steps() - kit.config.input_len;  // exclusive
  return first + static_cast<int64_t>(rng.Next() %
                                      static_cast<uint64_t>(last - first));
}

// ---------------------------------------------------------------------------
// Open-loop load.

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kPending: return "pending";
    case Outcome::kOk: return "ok";
    case Outcome::kRejected: return "rejected";
    case Outcome::kExpired: return "expired";
    case Outcome::kErrored: return "errored";
  }
  return "?";
}

namespace {

Outcome Classify(const infer::Forecast& f) {
  if (f.ok) return Outcome::kOk;
  switch (f.reason) {
    case infer::RejectReason::kDeadlineExceeded:
      return Outcome::kExpired;
    case infer::RejectReason::kQueueFull:
    case infer::RejectReason::kRateLimited:
    case infer::RejectReason::kOverloaded:
    case infer::RejectReason::kShedLowPriority:
    case infer::RejectReason::kQuotaExceeded:
      return Outcome::kRejected;
    default:
      return Outcome::kErrored;
  }
}

/// How often the generator checks outstanding futures between sends; the
/// resolution stamp of a request is late by at most this much.
constexpr double kPollS = 0.0005;

}  // namespace

void RunOpenLoop(Phase* phase,
                 const std::function<std::future<infer::Forecast>(
                     const RequestRecord&)>& submit,
                 Tracer* tracer, int64_t parent_span) {
  struct Live {
    size_t index;
    std::future<infer::Forecast> future;
  };
  std::vector<RequestRecord>& reqs = phase->requests;
  std::vector<Live> live;
  const double t0 = NowS() + 0.005;
  for (RequestRecord& r : reqs) r.scheduled_s += t0;

  const auto resolve = [&](Live& l, double now) {
    RequestRecord& r = reqs[l.index];
    infer::Forecast f = l.future.get();
    r.resolved_s = now;
    r.outcome = Classify(f);
    if (r.outcome == Outcome::kOk) {
      r.values = std::move(f.values);
    } else {
      r.reason = infer::RejectReasonName(f.reason);
    }
    if (tracer->enabled()) {
      std::ostringstream args;
      args << "\"request_id\": " << l.index << ", \"lane\": " << r.lane
           << ", \"phase\": \"" << phase->name
           << "\", \"submitted_ms\": " << (r.sent_s - r.scheduled_s) * 1e3
           << ", \"outcome\": \"" << OutcomeName(r.outcome) << "\"";
      if (!r.reason.empty()) args << ", \"reason\": \"" << r.reason << "\"";
      tracer->Add("request", parent_span, r.scheduled_s, r.resolved_s,
                  args.str());
    }
  };
  const auto sweep = [&]() {
    for (size_t i = 0; i < live.size();) {
      if (live[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        resolve(live[i], NowS());
        live[i] = std::move(live.back());
        live.pop_back();
      } else {
        ++i;
      }
    }
  };

  size_t next = 0;
  while (next < reqs.size() || !live.empty()) {
    double now = NowS();
    while (next < reqs.size() && reqs[next].scheduled_s <= now) {
      RequestRecord& r = reqs[next];
      r.sent_s = now;
      live.push_back({next, submit(r)});
      ++next;
      if (next == reqs.size()) {
        phase->backlog_at_end = static_cast<int64_t>(live.size());
      }
      now = NowS();
    }
    sweep();
    double wake = NowS() + kPollS;
    if (next < reqs.size()) wake = std::min(wake, reqs[next].scheduled_s);
    std::this_thread::sleep_until(
        SteadyClock::now() +
        std::chrono::duration<double>(std::max(0.0, wake - NowS())));
  }
}

PhaseCounts CountPhase(const Phase& phase, int lane) {
  PhaseCounts c;
  std::vector<double> latency, late;
  c.first_scheduled_s = 1e300;
  for (const RequestRecord& r : phase.requests) {
    if (lane >= 0 && r.lane != lane) continue;
    ++c.sent;
    c.first_scheduled_s = std::min(c.first_scheduled_s, r.scheduled_s);
    c.last_resolved_s = std::max(c.last_resolved_s, r.resolved_s);
    late.push_back((r.sent_s - r.scheduled_s) * 1e3);
    switch (r.outcome) {
      case Outcome::kOk:
        ++c.ok;
        latency.push_back((r.resolved_s - r.scheduled_s) * 1e3);
        break;
      case Outcome::kRejected: ++c.rejected; break;
      case Outcome::kExpired: ++c.expired; break;
      case Outcome::kErrored: ++c.errored; break;
      case Outcome::kPending: break;  // breaks the sent = sum identity
    }
  }
  if (c.sent == 0) c.first_scheduled_s = 0.0;
  c.latency_ms = Summarize(latency);
  if (!late.empty()) {
    std::sort(late.begin(), late.end());
    c.late_p99_ms = late[static_cast<size_t>(
        std::ceil(0.99 * static_cast<double>(late.size()))) - 1];
  }
  return c;
}

int64_t CheckAgainstEager(const GraphKit& kit, uint64_t model_seed,
                          const std::vector<const RequestRecord*>& served,
                          Report* report, const std::string& label) {
  std::shared_ptr<infer::InferenceSession> eager =
      MakeSession(kit, model_seed, /*use_plans=*/false);
  const bool bitwise = std::string(kernels::ActiveBackend().name) == "scalar";
  // SIMD backends differ from the scalar reference by the per-op bounds of
  // tensor/kernels/backend.h; plan replay and eager run the same kernels, so
  // the largest matmul bound (the diffusion contraction over k_t * N) is a
  // generous per-element relative budget here.
  const double tol = kernels::MatMulRelTol(kit.config.k_t * kit.config.num_nodes);
  double worst = 0.0;
  int64_t compared = 0;
  for (const RequestRecord* r : served) {
    const infer::Forecast ref = eager->PredictOne(MakeRequest(kit, r->window));
    if (!ref.ok || ref.values.size() != r->values.size()) {
      report->Check(false, label + ": eager reference failed for window " +
                               std::to_string(r->window));
      continue;
    }
    ++compared;
    if (bitwise) {
      report->Check(std::memcmp(ref.values.data(), r->values.data(),
                                ref.values.size() * sizeof(float)) == 0,
                    label + ": served forecast differs bitwise from eager "
                            "for window " + std::to_string(r->window));
      continue;
    }
    double scale = 0.0;
    for (const float v : ref.values) scale += std::fabs(v);
    scale = std::max(1.0, scale / static_cast<double>(ref.values.size()));
    for (size_t i = 0; i < ref.values.size(); ++i) {
      worst = std::max(worst, std::fabs(static_cast<double>(ref.values[i]) -
                                        r->values[i]) / scale);
    }
  }
  std::ostringstream line;
  line << "check " << label << ": " << compared
       << " served forecasts vs eager on backend "
       << kernels::ActiveBackend().name
       << (bitwise ? " (bitwise)" : "") << ", max relative deviation "
       << worst << " (tolerance " << (bitwise ? 0.0 : tol) << ")";
  report->Note(line.str());
  report->Check(bitwise || worst <= tol,
                label + ": served forecasts deviate from eager beyond the "
                        "declared tolerance");
  report->Check(compared > 0, label + ": no served forecast was checked");
  return compared;
}

// ---------------------------------------------------------------------------
// Metric specs.

const std::vector<std::pair<std::string, std::string>>& EndToEndMetricSpec() {
  static const std::vector<std::pair<std::string, std::string>> spec = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"p50_ms", "ms"},
      {"throughput_per_s", "1/s"},
  };
  return spec;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetricSpec() {
  static const std::vector<std::pair<std::string, std::string>> spec = {
      {"pool.fork_join_us", "us"},
      {"pool.threads", "count"},
      {"kernels.dg.bmm_gflops", "GFLOP/s"},
      {"kernels.dg.bmm_gflops_1t", "GFLOP/s"},
      {"kernels.dg.bmm_scaling", "ratio"},
      {"kernels.dg.softmax_gbps", "GB/s"},
      {"kernels.dg.ewise_gbps", "GB/s"},
      {"kernels.dif.bmm_gflops", "GFLOP/s"},
      {"kernels.dif.bmm_gflops_1t", "GFLOP/s"},
      {"kernels.dif.bmm_scaling", "ratio"},
      {"kernels.dif.ewise_gbps", "GB/s"},
      {"train.batch_ms", "ms"},
      {"train.forward_ms", "ms"},
      {"train.backward_ms", "ms"},
      {"train.optim_ms", "ms"},
      {"core.forward_ms", "ms"},
      {"core.forward_nproc_ms", "ms"},
      {"core.dynamic_graph_ms", "ms"},
      {"core.gate_ms", "ms"},
      {"core.diffusion_ms", "ms"},
      {"core.inherent_ms", "ms"},
      {"core.parts_frac", "ratio"},
      {"exec.capture_ms", "ms"},
      {"exec.verify_ms", "ms"},
      {"exec.replay_b1_ms", "ms"},
      {"exec.replay_b1_nproc_ms", "ms"},
      {"exec.replay_b8_ms", "ms"},
      {"exec.plan_steps", "count"},
      {"exec.plan_levels", "count"},
      {"exec.slab_mb", "MiB"},
      {"session.assemble_us", "us"},
      {"session.predict_b1_ms", "ms"},
      {"session.predict_b8_ms", "ms"},
      {"session.warmup_s", "s"},
      {"session.plan_hit_frac", "ratio"},
      {"session.padded_frac", "ratio"},
      {"session.fresh_allocs", "count"},
      {"server.mean_batch", "requests"},
      {"server.timeout_flush_frac", "ratio"},
      {"server.max_queue_depth", "count"},
      {"server.expired", "count"},
      {"server.rejected", "count"},
      {"server.overhead_ms", "ms"},
      {"fleet.gold_mean_batch", "requests"},
      {"fleet.bronze_mean_batch", "requests"},
      {"fleet.quota_rejects", "count"},
      {"fleet.low_priority_rejects", "count"},
      {"reload.swap_ms", "ms"},
      {"reload.swaps", "count"},
      {"gen.sent", "count"},
      {"gen.late_p99_ms", "ms"},
      {"load.tail_ms", "ms"},
      {"load.failed_frac", "ratio"},
      {"load.max_rate_rps", "1/s"},
  };
  return spec;
}

}  // namespace perfbench
