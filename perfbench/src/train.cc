// train-pems04: optimizer steps of the paper-default D2STGNN on a
// PEMS04-shaped graph, made the way Trainer makes them.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/json.h"
#include "common/thread_pool.h"
#include "data/presets.h"
#include "data/sliding_window.h"
#include "metrics/metrics.h"
#include "optim/adam.h"
#include "tensor/kernels/registry.h"
#include "workloads.h"

namespace perfbench {

using namespace d2stgnn;

namespace {

constexpr uint64_t kModelSeed = 307;
constexpr int kSetupRepeats = 3;
constexpr int64_t kBatch = 8;
/// Timed steps per run: one per this many seconds of --seconds (at least 3).
constexpr double kSecondsPerStep = 8.0;
/// Seed-drawn steps may not exceed the reference's first loss by more than
/// this factor (training must not diverge).
constexpr double kLossBand = 1.5;

bool Close(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(1.0, std::fabs(b));
}

}  // namespace

void TrainStep(core::D2Stgnn* model, optim::Adam* optimizer,
               const data::WindowDataLoader& loader,
               const data::StandardScaler& scaler, int64_t index,
               Tracer* tracer, int64_t parent, StepLog* log) {
  ScopedSpan step(tracer, "train.step", parent);
  const double t0 = NowS();
  data::Batch batch;
  {
    ScopedSpan s(tracer, "GetBatch", step.id());
    batch = loader.GetBatch(index);
  }
  const double t1 = NowS();
  Tensor loss;
  {
    ScopedSpan s(tracer, "Forward", step.id());
    const Tensor prediction = scaler.InverseTransform(model->Forward(batch));
    loss = metrics::MaskedMaeLoss(prediction, batch.y, 0.0f);
  }
  const double t2 = NowS();
  {
    ScopedSpan s(tracer, "Backward", step.id());
    optimizer->ZeroGrad();
    loss.Backward();
  }
  const double t3 = NowS();
  float grad_norm = 0.0f;
  {
    ScopedSpan s(tracer, "Step", step.id());
    grad_norm = optim::ClipGradNorm(optimizer->params(), kClipNorm);
    optimizer->Step();
  }
  const double t4 = NowS();
  log->batch_ms.push_back((t1 - t0) * 1e3);
  log->forward_ms.push_back((t2 - t1) * 1e3);
  log->backward_ms.push_back((t3 - t2) * 1e3);
  log->optim_ms.push_back((t4 - t3) * 1e3);
  log->total_ms.push_back((t4 - t0) * 1e3);
  log->losses.push_back(loss.Item());
  log->grad_norms.push_back(grad_norm);
}

Report RunTrainPems04(const Args& args) {
  Report report;
  report.env = args.env;
  SetNumThreads(report.env.pool_threads);
  Tracer tracer(args.trace);
  const int64_t timed_steps =
      std::max<int64_t>(3, static_cast<int64_t>(args.seconds / kSecondsPerStep));

  // Windows: two fixed batches (the reference trajectory), then batches
  // the seed draws from the training region.
  std::unique_ptr<GraphKit> kit;
  std::unique_ptr<core::D2Stgnn> model;
  std::unique_ptr<data::WindowDataLoader> loader;
  std::unique_ptr<optim::Adam> optimizer;
  std::vector<double> build_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    optimizer.reset();
    loader.reset();
    model.reset();
    kit.reset();
    ScopedSpan span(&tracer, "setup");
    const double t0 = NowS();
    kit = std::make_unique<GraphKit>(MakeKit(data::Pems04Options(1.0f)));
    const int64_t horizon = kit->config.output_len;
    const int64_t last_start =
        kit->train_steps - kit->config.input_len - horizon;
    std::vector<int64_t> starts;
    for (int64_t b = 0; b < 2 * kBatch; ++b) starts.push_back(b * 97);
    SplitMix64 rng(args.seed * 2654435761ull + 17);
    for (int64_t b = 0; b < timed_steps * kBatch; ++b) {
      starts.push_back(static_cast<int64_t>(
          rng.Next() % static_cast<uint64_t>(last_start)));
    }
    loader = std::make_unique<data::WindowDataLoader>(
        &kit->traffic.dataset, &kit->scaler, starts, kit->config.input_len,
        horizon, kBatch);
    model = MakeModel(*kit, kModelSeed);
    optimizer = std::make_unique<optim::Adam>(model->Parameters(),
                                              kLearningRate);
    build_s.push_back(NowS() - t0);
  }
  // One untimed warm step (first-touch allocations, pool start-up) closes
  // the set-up; it runs fixed batch 0.
  StepLog warm;
  const double warm_t0 = NowS();
  TrainStep(model.get(), optimizer.get(), *loader, kit->scaler, 0, &tracer,
            /*parent=*/0, &warm);
  const double warm_s = NowS() - warm_t0;

  StepLog steps;
  const int64_t load_span = tracer.Begin("load");
  for (int64_t s = 0; s < timed_steps; ++s) {
    TrainStep(model.get(), optimizer.get(), *loader, kit->scaler, 1 + s,
              &tracer, load_span, &steps);
  }
  tracer.End(load_span);

  // Windows per second at the median step: one slow step (a host hiccup)
  // moves a mean over 7 steps by several percent, a median not at all.
  const Summary step_ms = Summarize(steps.total_ms);
  const double samples_per_s = static_cast<double>(kBatch) / (step_ms.p50 / 1e3);
  report.end_to_end.Set("setup_s", "s", Median(build_s) + warm_s);
  report.end_to_end.Set("peak_rss_mb", "MiB", PeakRssMb());
  report.end_to_end.Set("p50_ms", "ms", step_ms.p50);
  report.end_to_end.Set("throughput_per_s", "1/s", samples_per_s);
  report.attempted = timed_steps + 1;
  std::ostringstream line;
  line << "train_samples_per_s " << samples_per_s
       << " windows/s at the median of " << timed_steps << " steps of batch "
       << kBatch
       << "; step p50 " << step_ms.p50 << " ms, max " << step_ms.max
       << " ms (n=" << step_ms.n << "); warm step " << warm_s * 1e3
       << " ms; model build median " << Median(build_s) << " s";
  report.Note(line.str());

  // Losses: finite, and the fixed-batch prefix on the stored trajectory.
  std::vector<double> losses = warm.losses;
  std::vector<double> norms = warm.grad_norms;
  losses.insert(losses.end(), steps.losses.begin(), steps.losses.end());
  norms.insert(norms.end(), steps.grad_norms.begin(), steps.grad_norms.end());
  std::ostringstream traj;
  traj << "losses";
  for (size_t i = 0; i < losses.size(); ++i) {
    const bool finite = std::isfinite(losses[i]) && std::isfinite(norms[i]);
    if (!finite) ++report.failed;
    report.Check(finite, "non-finite loss or gradient norm at step " +
                             std::to_string(i));
    traj << " " << losses[i];
  }
  report.Note(traj.str());

  const std::string backend = kernels::ActiveBackend().name;
  if (!args.write_reference.empty()) {
    json::Value ref = json::Value::Object();
    ref.Set("backend", json::Value::Str(backend));
    json::Value l = json::Value::Array(), g = json::Value::Array();
    for (size_t i = 0; i < 2; ++i) {
      l.Append(json::Value::Number(losses[i]));
      g.Append(json::Value::Number(norms[i]));
    }
    ref.Set("losses", std::move(l));
    ref.Set("grad_norms", std::move(g));
    std::ofstream(args.write_reference) << ref.Dump(1) << "\n";
    report.Note("wrote reference trajectory to " + args.write_reference);
  }
  json::Value ref;
  std::string error;
  const std::string ref_path = "perfbench/reference/train-pems04.json";
  if (!json::Value::ParseFile(ref_path, &ref, &error)) {
    report.Check(false, "cannot read the reference trajectory " + ref_path +
                            ": " + error);
  } else {
    // Same backend: the reference run's own arithmetic, so only the
    // compiler can move it. Across backends: the scalar/SIMD gap compounds
    // over a forward, a backward and an Adam step.
    const double rel = ref.Get("backend").AsString() == backend ? 1e-4 : 2e-2;
    for (size_t i = 0; i < 2; ++i) {
      const double want = ref.Get("losses").at(i).AsDouble();
      const double want_norm = ref.Get("grad_norms").at(i).AsDouble();
      report.Check(Close(losses[i], want, rel) &&
                       Close(norms[i], want_norm, rel),
                   Format("step %zu off the reference trajectory: loss %.6f "
                        "(want %.6f), grad norm %.4f (want %.4f)",
                        i, losses[i], want, norms[i], want_norm));
    }
    const double ceiling = kLossBand * ref.Get("losses").at(0).AsDouble();
    for (size_t i = 2; i < losses.size(); ++i) {
      report.Check(losses[i] > 0.0 && losses[i] < ceiling,
                   Format("seed-drawn step %zu loss %.4f outside (0, %.4f)", i,
                          losses[i], ceiling));
    }
    report.Note(Format("check train-pems04: fixed-batch steps 0-1 match %s "
                       "within %g relative; later losses in (0, %.4f)",
                       ref_path.c_str(), rel, ceiling));
  }

  if (args.trace) {
    LayerPassInput in;
    in.kit = kit.get();
    in.model_seed = kModelSeed;
    in.batch = kBatch;
    in.train_batch_ms = steps.batch_ms;
    in.train_forward_ms = steps.forward_ms;
    in.train_backward_ms = steps.backward_ms;
    in.train_optim_ms = steps.optim_ms;
    RunLayerPass(in, &tracer, &report);
    report.per_layer.Set("load.tail_ms", "ms", step_ms.tail);
    report.per_layer.Set("load.failed_frac", "ratio",
                         static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted));
    tracer.WriteTraceEvents(args.out_dir + "/train-pems04-seed" +
                            std::to_string(args.seed) + ".trace.json");
  }
  return report;
}

}  // namespace perfbench
