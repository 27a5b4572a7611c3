// The per-layer pass of a traced run: after the load phase it calls each
// layer's public entry points directly, at the workload's shapes, and times
// them from here (no spans inside the library).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/diffusion_block.h"
#include "core/dynamic_graph.h"
#include "core/estimation_gate.h"
#include "core/inherent_block.h"
#include "exec/graph_capture.h"
#include "exec/plan_executor.h"
#include "exec/plan_verifier.h"
#include "graph/localized_transition.h"
#include "graph/transition.h"
#include "infer/batching_server.h"
#include "tensor/buffer_arena.h"
#include "tensor/kernels.h"
#include "tensor/kernels/registry.h"
#include "tensor/ops.h"
#include "workloads.h"

namespace perfbench {

using namespace d2stgnn;

namespace {

/// Median seconds per call of `fn`, over 5 samples of enough calls to make
/// each sample about 20 ms. `prepare` runs untimed before every call.
double SecondsPerCall(const std::function<void()>& fn,
                      const std::function<void()>& prepare = nullptr) {
  if (prepare) prepare();
  double t0 = NowS();
  fn();
  const double once = std::max(NowS() - t0, 1e-7);
  const int iters = static_cast<int>(std::clamp(0.02 / once, 1.0, 2000.0));
  std::vector<double> samples;
  for (int s = 0; s < 5; ++s) {
    double busy = 0.0;
    for (int i = 0; i < iters; ++i) {
      if (prepare) prepare();
      t0 = NowS();
      fn();
      busy += NowS() - t0;
    }
    samples.push_back(busy / iters);
  }
  return Median(samples);
}

/// Median seconds of `reps` calls after one untimed warm call.
double MedianSeconds(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowS();
    fn();
    samples.push_back(NowS() - t0);
  }
  return Median(samples);
}

std::vector<float> RandomFloats(size_t n, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.UniformOpen() - 0.5);
  return v;
}

/// Batched matmul [batch, m, k] x [batch, k, n] at the current thread count
/// and at 1 thread; GFLOP/s from 2*batch*m*k*n.
void TimeBmm(const std::string& prefix, int64_t batch, int64_t m, int64_t k,
             int64_t n, Report* report) {
  const kernels::KernelBackend& backend = kernels::ActiveBackend();
  const std::vector<float> a = RandomFloats(static_cast<size_t>(batch * m * k), 1);
  const std::vector<float> b = RandomFloats(static_cast<size_t>(batch * k * n), 2);
  std::vector<float> out(static_cast<size_t>(batch * m * n));
  std::vector<int64_t> a_off, b_off;
  for (int64_t i = 0; i < batch; ++i) {
    a_off.push_back(i * m * k);
    b_off.push_back(i * k * n);
  }
  const auto run = [&] {
    kernels::BatchedMatMul(backend, a.data(), b.data(), out.data(), a_off,
                           b_off, m, k, n);
  };
  const auto zero = [&] { std::fill(out.begin(), out.end(), 0.0f); };
  const double flops = 2.0 * static_cast<double>(batch * m) *
                       static_cast<double>(k * n);
  const double gflops = flops / SecondsPerCall(run, zero) / 1e9;
  const int threads = GetNumThreads();
  SetNumThreads(1);
  const double gflops_1t = flops / SecondsPerCall(run, zero) / 1e9;
  SetNumThreads(threads);
  report->per_layer.Set(prefix + ".bmm_gflops", "GFLOP/s", gflops);
  report->per_layer.Set(prefix + ".bmm_gflops_1t", "GFLOP/s", gflops_1t);
  report->per_layer.Set(prefix + ".bmm_scaling", "ratio", gflops / gflops_1t);
  report->Note(Format("kernels %s: bmm [%lld x %lld x %lld] x %lld on %s: "
                      "%.2f GFLOP/s at %d threads, %.2f at 1 (FLOPs from "
                      "tensor sizes)",
                      prefix.c_str(), static_cast<long long>(m),
                      static_cast<long long>(k), static_cast<long long>(n),
                      static_cast<long long>(batch), backend.name, gflops,
                      threads, gflops_1t));
}

/// Elementwise product over n floats; GB/s from 3 * 4n bytes (two reads,
/// one write).
double TimeEwiseGbps(int64_t n) {
  const kernels::KernelBackend& backend = kernels::ActiveBackend();
  const std::vector<float> a = RandomFloats(static_cast<size_t>(n), 3);
  const std::vector<float> b = RandomFloats(static_cast<size_t>(n), 4);
  std::vector<float> out(static_cast<size_t>(n));
  const double s = SecondsPerCall([&] {
    kernels::EwiseBinary(backend, kernels::BinaryKind::kMul, a.data(),
                         b.data(), out.data(), n);
  });
  return 12.0 * static_cast<double>(n) / s / 1e9;
}

std::vector<infer::ForecastRequest> Requests(const GraphKit& kit,
                                             int64_t count) {
  SplitMix64 rng(0x5eed);
  std::vector<infer::ForecastRequest> out;
  for (int64_t i = 0; i < count; ++i) {
    out.push_back(MakeRequest(kit, PickWindowStart(kit, rng)));
  }
  return out;
}

std::vector<std::vector<Tensor>> Localize(const std::vector<Tensor>& ps,
                                          int64_t k_s, int64_t k_t) {
  std::vector<std::vector<Tensor>> supports;
  for (const Tensor& p : ps) {
    std::vector<Tensor> localized;
    for (const Tensor& power : graph::TransitionPowers(p, k_s)) {
      localized.push_back(graph::LocalizedTransition(power, k_t));
    }
    supports.push_back(std::move(localized));
  }
  return supports;
}

}  // namespace

void RunLayerPass(const LayerPassInput& in, Tracer* tracer, Report* report) {
  MetricSet& pl = report->per_layer;
  // Workload-specific counters default to 0 where the workload has no such
  // layer; the workload overwrites what it measured.
  for (const auto& [name, unit] : PerLayerMetricSpec()) pl.Set(name, unit, 0.0);

  const GraphKit& kit = *in.kit;
  const core::D2StgnnConfig& cfg = kit.config;
  const int64_t nodes = cfg.num_nodes;
  const int64_t batch = in.batch;
  const int64_t steps = cfg.input_len;
  const int64_t d = cfg.hidden_dim;
  const int64_t de = cfg.embed_dim;
  const int64_t root = tracer->Begin("layer_pass");

  // The pass measures the pool, the kernels and one forward and replay at
  // nproc threads as well: the run itself uses one (main.cc says why), and
  // the load phase's other threads are idle here.
  const int run_threads = GetNumThreads();
  const int nproc = report->env.nproc;
  pl.Set("pool.threads", "count", run_threads);

  // --- common/thread_pool: an empty ParallelFor at nproc threads.
  {
    ScopedSpan span(tracer, "pool.fork_join", root);
    SetNumThreads(nproc);
    const double s = SecondsPerCall([nproc] {
      ParallelFor(0, nproc, 1, [](int64_t, int64_t) {});
    });
    SetNumThreads(run_threads);
    pl.Set("pool.fork_join_us", "us", s * 1e6);
  }

  // --- tensor/kernels at the dynamic-graph and diffusion shapes, at nproc
  // threads and at 1.
  {
    ScopedSpan span(tracer, "kernels", root);
    SetNumThreads(nproc);
    // Dynamic graph: [B, N, d] x [B, d, N] scores, softmax over [B*N, N],
    // masked by the static transition (elementwise over B*N*N).
    TimeBmm("kernels.dg", batch, nodes, d, nodes, report);
    {
      const kernels::KernelBackend& backend = kernels::ActiveBackend();
      const std::vector<float> a =
          RandomFloats(static_cast<size_t>(batch * nodes * nodes), 5);
      std::vector<float> out(a.size());
      const double s = SecondsPerCall([&] {
        kernels::SoftmaxKernel(backend, a.data(), out.data(), batch * nodes,
                               nodes, 1);
      });
      pl.Set("kernels.dg.softmax_gbps", "GB/s",
             8.0 * static_cast<double>(a.size()) / s / 1e9);
    }
    pl.Set("kernels.dg.ewise_gbps", "GB/s",
           TimeEwiseGbps(batch * nodes * nodes));
    // Diffusion: localized support [B, N, k_t*N] x signal [B, k_t*N, d];
    // elementwise over the latent window [B, T, N, d].
    TimeBmm("kernels.dif", batch, nodes, cfg.k_t * nodes, d, report);
    pl.Set("kernels.dif.ewise_gbps", "GB/s",
           TimeEwiseGbps(batch * steps * nodes * d));
    SetNumThreads(run_threads);
  }

  // --- tensor autograd, optim, data: training steps (batch 1 when the
  // workload does not train).
  {
    StepLog log;
    if (in.train_forward_ms.empty()) {
      const int64_t train_span = tracer->Begin("train", root);
      auto model = MakeModel(kit, in.model_seed);
      optim::Adam optimizer(model->Parameters(), kLearningRate);
      std::vector<int64_t> starts = {0, 97, 194};
      data::WindowDataLoader loader(&kit.traffic.dataset, &kit.scaler, starts,
                                    cfg.input_len, cfg.output_len, 1);
      for (int64_t i = 0; i < 3; ++i) {
        TrainStep(model.get(), &optimizer, loader, kit.scaler, i, tracer,
                  train_span, &log);
      }
      tracer->End(train_span);
      // The first step pays first-touch allocations.
      for (auto* v : {&log.batch_ms, &log.forward_ms, &log.backward_ms,
                      &log.optim_ms}) {
        v->erase(v->begin());
      }
    } else {
      log.batch_ms = in.train_batch_ms;
      log.forward_ms = in.train_forward_ms;
      log.backward_ms = in.train_backward_ms;
      log.optim_ms = in.train_optim_ms;
    }
    pl.Set("train.batch_ms", "ms", Median(log.batch_ms));
    pl.Set("train.forward_ms", "ms", Median(log.forward_ms));
    pl.Set("train.backward_ms", "ms", Median(log.backward_ms));
    pl.Set("train.optim_ms", "ms", Median(log.optim_ms));
  }

  // Inputs shared by core and exec: `batch` assembled requests.
  std::shared_ptr<infer::InferenceSession> session = in.session;
  if (session == nullptr) session = MakeSession(kit, in.model_seed, true);
  const std::vector<infer::ForecastRequest> requests = Requests(kit, 8);
  const data::Batch model_batch = session->AssembleBatch(
      std::vector<infer::ForecastRequest>(requests.begin(),
                                          requests.begin() + batch));

  // --- core: the eager forward, then each block's Forward at its shapes.
  // The model keeps its blocks private, so the pass builds blocks of the
  // same configuration and feeds them inputs of the shapes the model does.
  {
    const int64_t core_span = tracer->Begin("core", root);
    auto model = MakeModel(kit, in.model_seed);
    auto arena = std::make_shared<BufferArena>();
    double forward_s = 0.0;
    const auto forward = [&] {
      InferenceModeGuard guard(arena);
      model->Forward(model_batch);
    };
    {
      ScopedSpan span(tracer, "core.D2Stgnn::Forward", core_span);
      forward_s = MedianSeconds(3, forward);
    }
    {
      ScopedSpan span(tracer, "core.D2Stgnn::Forward.nproc", core_span);
      SetNumThreads(nproc);
      pl.Set("core.forward_nproc_ms", "ms", MedianSeconds(3, forward) * 1e3);
      SetNumThreads(run_threads);
    }
    Rng rng(in.model_seed + 1);
    core::DynamicGraphLearner dynamic_graph(steps, d, de, rng);
    core::EstimationGate gate(de, d, rng);
    core::DiffusionBlock diffusion(d, cfg.k_s, cfg.k_t, /*num_supports=*/3,
                                   cfg.output_len, cfg.autoregressive, rng);
    core::InherentBlock inherent(d, cfg.num_heads, cfg.output_len, steps,
                                 cfg.use_gru, cfg.use_msa, cfg.autoregressive,
                                 rng);
    const Tensor x = Tensor::Randn({batch, steps, nodes, d}, rng);
    const Tensor t_day = Tensor::Randn({batch, steps, de}, rng);
    const Tensor t_week = Tensor::Randn({batch, steps, de}, rng);
    const Tensor day_last = Tensor::Randn({batch, de}, rng);
    const Tensor week_last = Tensor::Randn({batch, de}, rng);
    const Tensor e_u = Tensor::Randn({nodes, de}, rng);
    const Tensor e_d = Tensor::Randn({nodes, de}, rng);
    const Tensor& adjacency = kit.traffic.dataset.network.adjacency;
    const Tensor p_f = graph::ForwardTransition(adjacency);
    const Tensor p_b = graph::BackwardTransition(adjacency);

    const int64_t blocks_span = tracer->Begin("core.blocks", core_span);
    std::vector<std::vector<Tensor>> supports;
    double dg_s = 0.0, gate_s = 0.0, dif_s = 0.0, inh_s = 0.0;
    {
      // Algorithm 1 lines 1-2: dynamic transitions plus the adaptive one,
      // localized.
      ScopedSpan span(tracer, "core.DynamicGraphLearner::Forward", blocks_span);
      dg_s = MedianSeconds(3, [&] {
        InferenceModeGuard guard(arena);
        const auto [p_f_dy, p_b_dy] = dynamic_graph.Forward(
            x, day_last, week_last, e_u, e_d, p_f, p_b);
        const Tensor p_apt =
            Softmax(Relu(MatMul(e_d, Transpose(e_u, 0, 1))), -1);
        supports = Localize({p_f_dy, p_b_dy, p_apt}, cfg.k_s, cfg.k_t);
      });
    }
    Tensor gated;
    {
      ScopedSpan span(tracer, "core.EstimationGate::Forward", blocks_span);
      gate_s = MedianSeconds(3, [&] {
        InferenceModeGuard guard(arena);
        gated = gate.Forward(t_day, t_week, e_u, e_d, x);
      });
    }
    {
      ScopedSpan span(tracer, "core.DiffusionBlock::Forward", blocks_span);
      dif_s = MedianSeconds(3, [&] {
        InferenceModeGuard guard(arena);
        diffusion.Forward(gated, supports);
      });
    }
    {
      ScopedSpan span(tracer, "core.InherentBlock::Forward", blocks_span);
      inh_s = MedianSeconds(3, [&] {
        InferenceModeGuard guard(arena);
        inherent.Forward(x);
      });
    }
    tracer->End(blocks_span);
    tracer->End(core_span);
    // Per forward: the graph learner once, each block once per layer.
    const double layers = static_cast<double>(cfg.num_layers);
    pl.Set("core.forward_ms", "ms", forward_s * 1e3);
    pl.Set("core.dynamic_graph_ms", "ms", dg_s * 1e3);
    pl.Set("core.gate_ms", "ms", layers * gate_s * 1e3);
    pl.Set("core.diffusion_ms", "ms", layers * dif_s * 1e3);
    pl.Set("core.inherent_ms", "ms", layers * inh_s * 1e3);
    pl.Set("core.parts_frac", "ratio",
           (dg_s + layers * (gate_s + dif_s + inh_s)) / forward_s);
  }

  // --- exec: capture, verify and replay plans at batch 1 and 8.
  {
    const int64_t exec_span = tracer->Begin("exec", root);
    auto model = MakeModel(kit, in.model_seed);
    for (const int64_t size : {int64_t{1}, int64_t{8}}) {
      const data::Batch b = session->AssembleBatch(
          std::vector<infer::ForecastRequest>(requests.begin(),
                                              requests.begin() + size));
      auto arena = std::make_shared<BufferArena>();
      std::shared_ptr<const exec::ExecutionPlan> plan;
      std::vector<float> eager_out;
      double t0 = NowS();
      {
        ScopedSpan span(tracer, "exec.capture", exec_span);
        InferenceModeGuard guard(arena);
        exec::GraphCapture capture;
        capture.BindInput("x", b.x);
        capture.BindIndexInput("tod", b.time_of_day);
        capture.BindIndexInput("dow", b.day_of_week);
        const Tensor out = kit.scaler.InverseTransform(model->Forward(b));
        plan = capture.Finish(out);
        eager_out = out.Data();
      }
      const double capture_s = NowS() - t0;
      report->Check(plan != nullptr, "exec: plan capture failed");
      if (plan == nullptr) continue;
      t0 = NowS();
      exec::VerifierReport verified;
      {
        ScopedSpan span(tracer, "exec.VerifyPlan", exec_span);
        verified = exec::VerifyPlan(*plan);
      }
      const double verify_s = NowS() - t0;
      report->Check(verified.ok(), "exec: captured plan failed verification");
      exec::PlanExecutor executor(plan);
      const std::vector<exec::InputBinding> inputs = {
          {b.x.Data().data(), b.x.numel()}};
      const std::vector<const std::vector<int64_t>*> index_inputs = {
          &b.time_of_day, &b.day_of_week};
      double replay_s = 0.0;
      {
        ScopedSpan span(tracer, "exec.PlanExecutor::Run", exec_span);
        replay_s = MedianSeconds(size == 1 ? 5 : 3, [&] {
          const exec::ReplayStatus status = executor.Run(
              inputs, index_inputs, exec::ReplayMode::kLevelParallel);
          report->Check(status == exec::ReplayStatus::kOk,
                        "exec: plan replay failed");
        });
      }
      report->Check(std::memcmp(executor.output(), eager_out.data(),
                                eager_out.size() * sizeof(float)) == 0,
                    "exec: plan replay differs bitwise from its eager capture");
      if (size == 1) {
        pl.Set("exec.replay_b1_ms", "ms", replay_s * 1e3);
        ScopedSpan span(tracer, "exec.PlanExecutor::Run.nproc", exec_span);
        SetNumThreads(nproc);
        pl.Set("exec.replay_b1_nproc_ms", "ms",
               MedianSeconds(5, [&] {
                 executor.Run(inputs, index_inputs,
                              exec::ReplayMode::kLevelParallel);
               }) * 1e3);
        SetNumThreads(run_threads);
      } else {
        pl.Set("exec.replay_b8_ms", "ms", replay_s * 1e3);
        pl.Set("exec.capture_ms", "ms", capture_s * 1e3);
        pl.Set("exec.verify_ms", "ms", verify_s * 1e3);
        pl.Set("exec.plan_steps", "count",
               static_cast<double>(plan->steps().size()));
        pl.Set("exec.plan_levels", "count",
               static_cast<double>(plan->levels().size()));
        pl.Set("exec.slab_mb", "MiB",
               static_cast<double>(plan->slab_floats()) * 4.0 / (1 << 20));
      }
    }
    tracer->End(exec_span);
  }

  // --- infer/session: warm-up of a fresh session, request assembly, and
  // predictions through the run's session.
  {
    const int64_t session_span = tracer->Begin("session", root);
    {
      ScopedSpan span(tracer, "session.Warmup", session_span);
      auto fresh = MakeSession(kit, in.model_seed, true);
      const double t0 = NowS();
      fresh->Warmup(1);
      fresh->Warmup(8);
      pl.Set("session.warmup_s", "s", NowS() - t0);
      if (in.session == nullptr) session = fresh;
    }
    const std::vector<infer::ForecastRequest> one(requests.begin(),
                                                  requests.begin() + 1);
    const int64_t allocs_before = session->arena_stats().fresh_allocations;
    {
      ScopedSpan span(tracer, "session.AssembleBatch", session_span);
      pl.Set("session.assemble_us", "us",
             SecondsPerCall([&] { session->AssembleBatch(one); }) * 1e6);
    }
    double b1_s = 0.0;
    {
      ScopedSpan span(tracer, "session.PredictRequests.b1", session_span);
      b1_s = MedianSeconds(7, [&] { session->PredictRequests(one); });
    }
    {
      ScopedSpan span(tracer, "session.PredictRequests.b8", session_span);
      pl.Set("session.predict_b8_ms", "ms",
             MedianSeconds(3, [&] { session->PredictRequests(requests); }) *
                 1e3);
    }
    pl.Set("session.predict_b1_ms", "ms", b1_s * 1e3);
    // Both sizes were warmed (one untimed call each precedes the timing).
    const int64_t fresh =
        session->arena_stats().fresh_allocations - allocs_before;
    pl.Set("session.fresh_allocs", "count", static_cast<double>(fresh));
    report->Check(fresh == 0, "session arena allocated after warm-up");
    const infer::SessionStats stats = session->session_stats();
    const int64_t forwards = stats.plan_replays + stats.eager_forwards;
    pl.Set("session.plan_hit_frac", "ratio",
           forwards > 0 ? static_cast<double>(stats.plan_replays) / forwards
                        : 0.0);
    pl.Set("session.padded_frac", "ratio",
           stats.plan_replays > 0
               ? static_cast<double>(stats.padded_replays) / stats.plan_replays
               : 0.0);
    tracer->End(session_span);

    // --- infer/batching_server: a short open-loop probe of single
    // requests; the server's overhead is its p50 over the bare predict.
    const int64_t server_span = tracer->Begin("server.probe", root);
    // Default options: warm-up skips the sizes the session has plans for,
    // and a swapped-in session is warmed before it serves.
    infer::BatchingServer probe(session, infer::BatchingOptions());
    Phase phase;
    phase.name = "probe";
    SplitMix64 windows(0x51);
    for (const double t : PoissonSchedule(0x9b0be, 4.0, 4.0)) {
      RequestRecord r;
      r.window = PickWindowStart(kit, windows);
      r.scheduled_s = t;
      phase.requests.push_back(r);
    }
    RunOpenLoop(
        &phase,
        [&](const RequestRecord& r) { return probe.Submit(MakeRequest(kit, r.window)); },
        tracer, server_span);
    const PhaseCounts probe_counts = CountPhase(phase);
    report->Check(probe_counts.ok == probe_counts.sent,
                  "server probe: not every request was served");
    pl.Set("server.overhead_ms", "ms", probe_counts.latency_ms.p50 - b1_s * 1e3);
    const infer::BatchingServerStats probe_stats = probe.stats();
    pl.Set("server.mean_batch", "requests",
           probe_stats.batches > 0
               ? static_cast<double>(probe_stats.completed) / probe_stats.batches
               : 0.0);
    pl.Set("server.timeout_flush_frac", "ratio",
           probe_stats.batches > 0 ? static_cast<double>(probe_stats.timeout_flushes) /
                                         probe_stats.batches
                                   : 0.0);
    pl.Set("server.max_queue_depth", "count",
           static_cast<double>(probe_stats.max_queue_depth_seen));
    pl.Set("gen.sent", "count", static_cast<double>(probe_counts.sent));
    pl.Set("gen.late_p99_ms", "ms", probe_counts.late_p99_ms);
    tracer->End(server_span);

    // --- hot reload: swap a freshly built session into the probe server
    // (the swap warms it: capture and verification at batch 1 and 8).
    {
      ScopedSpan span(tracer, "reload.SwapSession", root);
      auto next = MakeSession(kit, in.model_seed, true);
      const double t0 = NowS();
      probe.SwapSession(next);
      pl.Set("reload.swap_ms", "ms", (NowS() - t0) * 1e3);
      pl.Set("reload.swaps", "count", 1);
    }
    probe.Shutdown(true);
  }
  tracer->End(root);

  // Self time per span name, largest first.
  std::vector<std::pair<double, std::string>> self;
  for (const auto& [name, s] : tracer->SelfTimes()) self.push_back({s, name});
  std::sort(self.rbegin(), self.rend());
  for (size_t i = 0; i < self.size() && i < 12; ++i) {
    report->Note(Format("self time %-36s %10.2f ms", self[i].second.c_str(),
                        self[i].first * 1e3));
  }
}

}  // namespace perfbench
