// Tests of the pluggable kernel-backend layer (DESIGN.md §15): registry
// selection and override semantics, per-op scalar-vs-avx2 parity at the
// declared ulp/relative tolerances across lane-boundary sizes (1, 7, 8, 9,
// 63, 64, 65 — below, at, and past the 8-float AVX2 lane and the 64-float
// unroll), forced-backend end-to-end forecast deltas on the paper's model,
// and cross-backend plan replay rejection (executor, verifier, and the
// session dropping and recapturing plans across a backend switch).
//
// Every avx2-dependent test skips cleanly on hosts without AVX2+FMA, so the
// suite is green on any x86 or non-x86 machine.

#include "tensor/kernels/registry.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/d2stgnn.h"
#include "data/sliding_window.h"
#include "data/synthetic_traffic.h"
#include "exec/graph_capture.h"
#include "exec/plan_executor.h"
#include "exec/plan_mutator.h"
#include "exec/plan_verifier.h"
#include "infer/session.h"
#include "tensor/kernels/backend.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace d2stgnn {
namespace {

using kernels::BinaryKind;
using kernels::KernelBackend;
using kernels::UnaryKind;
using kernels::UnaryParams;

// Lane-boundary sizes: below/at/past one 8-float AVX2 vector and the
// 64-float blocks the tail-masked loops step by.
const int64_t kTailSizes[] = {1, 7, 8, 9, 63, 64, 65};

/// Units-in-last-place distance between two floats, treating the float line
/// as the integers its bit patterns map to monotonically. Equal values
/// (including +0 vs -0) are 0 ulp apart.
int64_t UlpDiff(float a, float b) {
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b) ? 0
                                          : std::numeric_limits<int64_t>::max();
  }
  const int32_t ia = std::bit_cast<int32_t>(a);
  const int32_t ib = std::bit_cast<int32_t>(b);
  const int64_t la =
      ia >= 0 ? ia : -static_cast<int64_t>(ia & 0x7fffffff);
  const int64_t lb =
      ib >= 0 ? ib : -static_cast<int64_t>(ib & 0x7fffffff);
  return la > lb ? la - lb : lb - la;
}

TEST(UlpDiffTest, SanityOnKnownNeighbors) {
  EXPECT_EQ(UlpDiff(1.0f, 1.0f), 0);
  EXPECT_EQ(UlpDiff(0.0f, -0.0f), 0);
  EXPECT_EQ(UlpDiff(1.0f, std::nextafter(1.0f, 2.0f)), 1);
  EXPECT_EQ(UlpDiff(-1.0f, std::nextafter(-1.0f, -2.0f)), 1);
  // Crossing zero: one step each side of the origin.
  EXPECT_EQ(UlpDiff(std::nextafter(0.0f, 1.0f), std::nextafter(0.0f, -1.0f)),
            2);
}

// ---------------------------------------------------------------------------
// Registry: selection, override, and feature reporting.

TEST(BackendRegistryTest, ScalarIsListedFirstAndAlwaysAvailable) {
  const std::vector<std::string> names = kernels::AvailableBackendNames();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "scalar");
  for (const std::string& name : names) {
    std::string error;
    EXPECT_TRUE(kernels::SetActiveBackend(name, &error)) << error;
    EXPECT_EQ(kernels::ActiveBackend().name, name);
  }
  ASSERT_TRUE(kernels::SetActiveBackend(kernels::DetectedBackendName()));
}

TEST(BackendRegistryTest, UnknownBackendNameIsRejectedWithoutSideEffects) {
  const std::string before = kernels::ActiveBackend().name;
  std::string error;
  EXPECT_FALSE(kernels::SetActiveBackend("sse9000", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(kernels::ActiveBackend().name, before);
}

TEST(BackendRegistryTest, ScopedOverrideRestoresThePreviousBackend) {
  const std::string before = kernels::ActiveBackend().name;
  {
    kernels::ScopedBackendOverride scoped("scalar");
    ASSERT_TRUE(scoped.engaged());
    EXPECT_STREQ(kernels::ActiveBackend().name, "scalar");
  }
  EXPECT_EQ(kernels::ActiveBackend().name, before);
  {
    // An unavailable name must leave the active backend untouched.
    kernels::ScopedBackendOverride scoped("sse9000");
    EXPECT_FALSE(scoped.engaged());
    EXPECT_EQ(kernels::ActiveBackend().name, before);
  }
  EXPECT_EQ(kernels::ActiveBackend().name, before);
}

TEST(BackendRegistryTest, DetectionMatchesCpuFeatures) {
  const kernels::CpuFeatures& features = kernels::DetectCpuFeatures();
  const bool avx2_runnable = features.avx2 && features.fma;
  EXPECT_EQ(kernels::Avx2BackendOrNull() != nullptr, avx2_runnable);
  EXPECT_STREQ(kernels::DetectedBackendName(),
               avx2_runnable ? "avx2" : "scalar");

  const std::string summary = kernels::CpuFeatureSummary();
  EXPECT_EQ(summary.find("avx2") != std::string::npos, features.avx2);
  EXPECT_EQ(summary.find("fma") != std::string::npos, features.fma);
}

// ---------------------------------------------------------------------------
// Per-op parity: avx2 vs the scalar reference, at the declared tolerances,
// across lane-boundary sizes and a non-zero range start.

class BackendParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    avx2_ = kernels::Avx2BackendOrNull();
    if (avx2_ == nullptr) {
      GTEST_SKIP() << "AVX2+FMA unavailable; scalar is the only backend";
    }
    scalar_ = &kernels::ScalarBackend();
  }

  static std::vector<float> Normal(int64_t n, uint64_t seed) {
    Rng rng(seed);
    return rng.NormalVector(n, 0.0f, 1.0f);
  }

  static std::vector<float> Positive(int64_t n, uint64_t seed) {
    std::vector<float> v = Normal(n, seed);
    for (float& x : v) x = std::fabs(x) + 0.1f;
    return v;
  }

  const KernelBackend* scalar_ = nullptr;
  const KernelBackend* avx2_ = nullptr;
};

TEST_F(BackendParityTest, UnaryOpsWithinDeclaredUlp) {
  struct Case {
    UnaryKind kind;
    UnaryParams params;
    bool positive_input;
  };
  const Case cases[] = {
      {UnaryKind::kAddScalar, {0.5f, 0.0f}, false},
      {UnaryKind::kMulScalar, {1.5f, 0.0f}, false},
      {UnaryKind::kPowScalar, {2.5f, 0.0f}, true},
      {UnaryKind::kRelu, {}, false},
      {UnaryKind::kLeakyRelu, {0.1f, 0.0f}, false},
      {UnaryKind::kSigmoid, {}, false},
      {UnaryKind::kTanh, {}, false},
      {UnaryKind::kExp, {}, false},
      {UnaryKind::kLog, {}, true},
      {UnaryKind::kSqrt, {}, true},
      {UnaryKind::kAbs, {}, false},
      {UnaryKind::kGelu, {}, false},
      {UnaryKind::kClamp, {-0.5f, 0.5f}, false},
  };
  for (const Case& c : cases) {
    const int max_ulp = kernels::UnaryMaxUlp(c.kind);
    for (const int64_t n : kTailSizes) {
      const std::vector<float> a = c.positive_input
                                       ? Positive(n, 100 + n)
                                       : Normal(n, 100 + n);
      // A non-zero begin exercises the masked head the dispatcher's chunking
      // can hand a backend mid-buffer.
      for (const int64_t begin : {int64_t{0}, n > 4 ? int64_t{3} : int64_t{0}}) {
        std::vector<float> ref(n, -7.0f);
        std::vector<float> got(n, -7.0f);
        scalar_->ewise_unary(c.kind, c.params, a.data(), ref.data(), begin, n);
        avx2_->ewise_unary(c.kind, c.params, a.data(), got.data(), begin, n);
        for (int64_t i = begin; i < n; ++i) {
          EXPECT_LE(UlpDiff(ref[i], got[i]), max_ulp)
              << "kind=" << static_cast<int>(c.kind) << " n=" << n
              << " begin=" << begin << " i=" << i << " scalar=" << ref[i]
              << " avx2=" << got[i];
        }
      }
    }
  }
}

TEST_F(BackendParityTest, BinaryOpsAreBitwise) {
  for (const BinaryKind kind : {BinaryKind::kAdd, BinaryKind::kSub,
                                BinaryKind::kMul, BinaryKind::kDiv}) {
    ASSERT_EQ(kernels::BinaryMaxUlp(kind), 0);
    for (const int64_t n : kTailSizes) {
      const std::vector<float> a = Normal(n, 200 + n);
      const std::vector<float> b = Positive(n, 300 + n);
      std::vector<float> ref(n), got(n);
      scalar_->ewise_binary(kind, a.data(), b.data(), ref.data(), 0, n);
      avx2_->ewise_binary(kind, a.data(), b.data(), got.data(), 0, n);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(ref[i], got[i])
            << "kind=" << static_cast<int>(kind) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST_F(BackendParityTest, BiasAddIsBitwise) {
  for (const int64_t n : kTailSizes) {
    const int64_t rows = 3;
    const std::vector<float> a = Normal(rows * n, 400 + n);
    const std::vector<float> bias = Normal(n, 500 + n);
    std::vector<float> ref(rows * n), got(rows * n);
    scalar_->bias_add(a.data(), bias.data(), ref.data(), 0, rows, n);
    avx2_->bias_add(a.data(), bias.data(), got.data(), 0, rows, n);
    EXPECT_EQ(ref, got) << "n=" << n;
  }
}

TEST_F(BackendParityTest, MatMulWithinRelativeTolerance) {
  for (const int64_t k : kTailSizes) {
    for (const int64_t n : kTailSizes) {
      const int64_t m = 3;
      const std::vector<float> a = Normal(m * k, 600 + k);
      const std::vector<float> b = Normal(k * n, 700 + n);
      std::vector<float> ref(m * n, 0.0f), got(m * n, 0.0f);
      scalar_->matmul_row_range(a.data(), b.data(), ref.data(), 0, m, k, n);
      avx2_->matmul_row_range(a.data(), b.data(), got.data(), 0, m, k, n);
      const float tol = kernels::MatMulRelTol(k);
      for (int64_t i = 0; i < m * n; ++i) {
        EXPECT_NEAR(ref[i], got[i], tol * (1.0f + std::fabs(ref[i])))
            << "k=" << k << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST_F(BackendParityTest, ReduceSumWithinRelativeTolerance) {
  for (const int64_t n : kTailSizes) {
    const std::vector<float> a = Normal(n, 800 + n);
    const double ref = scalar_->reduce_sum_range(a.data(), 0, n);
    const double got = avx2_->reduce_sum_range(a.data(), 0, n);
    // Both accumulate the same floats in double; only association differs.
    EXPECT_NEAR(ref, got, kernels::ReduceSumRelTol() * (1.0 + std::fabs(ref)) *
                              static_cast<double>(n))
        << "n=" << n;
  }
}

TEST_F(BackendParityTest, ReduceSumDimIsBitwise) {
  ASSERT_EQ(kernels::ReduceSumDimMaxUlp(), 0);
  for (const int64_t size : {int64_t{1}, int64_t{7}, int64_t{64}}) {
    for (const int64_t inner : kTailSizes) {
      const std::vector<float> a = Normal(size * inner, 900 + size + inner);
      std::vector<float> ref(inner), got(inner);
      scalar_->reduce_sum_dim_slice(a.data(), ref.data(), size, inner);
      avx2_->reduce_sum_dim_slice(a.data(), got.data(), size, inner);
      EXPECT_EQ(ref, got) << "size=" << size << " inner=" << inner;
    }
  }
}

TEST_F(BackendParityTest, SoftmaxWithinDeclaredUlp) {
  for (const int64_t size : {int64_t{1}, int64_t{7}, int64_t{65}}) {
    for (const int64_t inner : kTailSizes) {
      const std::vector<float> a = Normal(size * inner, 1000 + size + inner);
      std::vector<float> ref(size * inner), got(size * inner);
      scalar_->softmax_slice(a.data(), ref.data(), size, inner);
      avx2_->softmax_slice(a.data(), got.data(), size, inner);
      for (int64_t i = 0; i < size * inner; ++i) {
        EXPECT_LE(UlpDiff(ref[i], got[i]), kernels::SoftmaxMaxUlp())
            << "size=" << size << " inner=" << inner << " i=" << i
            << " scalar=" << ref[i] << " avx2=" << got[i];
      }
    }
  }
}

// Within one backend, the dispatcher's fixed chunk grid makes thread count
// invisible: the same op at 1 and 4 threads is bitwise identical.
TEST_F(BackendParityTest, SameBackendIsThreadCountDeterministic) {
  const int original_threads = GetNumThreads();
  for (const std::string& name : kernels::AvailableBackendNames()) {
    kernels::ScopedBackendOverride scoped(name);
    ASSERT_TRUE(scoped.engaged());
    Rng rng(17);
    const Tensor a = Tensor::Randn({64, 96}, rng);
    const Tensor b = Tensor::Randn({96, 96}, rng);
    SetNumThreads(1);
    const std::vector<float> serial = Sigmoid(MatMul(a, b)).Data();
    SetNumThreads(4);
    const std::vector<float> threaded = Sigmoid(MatMul(a, b)).Data();
    EXPECT_EQ(serial, threaded) << "backend=" << name;
  }
  SetNumThreads(original_threads);
}

// ---------------------------------------------------------------------------
// End-to-end on the paper's model + plan/backend interaction.

constexpr int64_t kNodes = 6;
constexpr int64_t kInputLen = 12;

class BackendSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_threads_ = GetNumThreads();
    data::SyntheticTrafficOptions options;
    options.network.num_nodes = kNodes;
    options.num_steps = 600;
    options.seed = 31;
    traffic_ = data::GenerateSyntheticTraffic(options);
    scaler_.Fit(traffic_.dataset.values, 400, true);
  }

  void TearDown() override { SetNumThreads(original_threads_); }

  infer::SessionOptions Options() const {
    infer::SessionOptions options;
    options.num_nodes = kNodes;
    options.input_len = kInputLen;
    options.steps_per_day = traffic_.dataset.steps_per_day;
    return options;
  }

  infer::ForecastRequest MakeRequest(int64_t start) const {
    infer::ForecastRequest request;
    const std::vector<float>& values = traffic_.dataset.values.Data();
    request.window.assign(values.data() + start * kNodes,
                          values.data() + (start + kInputLen) * kNodes);
    request.time_of_day = traffic_.dataset.TimeOfDay(start);
    request.day_of_week = traffic_.dataset.DayOfWeek(start);
    return request;
  }

  std::vector<infer::ForecastRequest> Requests(int64_t count) const {
    std::vector<infer::ForecastRequest> requests;
    for (int64_t i = 0; i < count; ++i) requests.push_back(MakeRequest(i * 3));
    return requests;
  }

  std::unique_ptr<core::D2Stgnn> NewModel(uint64_t seed) const {
    core::D2StgnnConfig config;
    config.num_nodes = kNodes;
    config.input_len = kInputLen;
    config.output_len = 3;
    config.hidden_dim = 8;
    config.embed_dim = 4;
    config.num_layers = 1;
    config.num_heads = 2;
    config.steps_per_day = traffic_.dataset.steps_per_day;
    Rng rng(seed);
    return std::make_unique<core::D2Stgnn>(
        config, traffic_.dataset.network.adjacency, rng);
  }

  /// Serves `requests` eagerly on a fresh seed-7 model under `backend`.
  std::vector<infer::Forecast> ServeUnder(
      const std::string& backend,
      const std::vector<infer::ForecastRequest>& requests) {
    kernels::ScopedBackendOverride scoped(backend);
    EXPECT_TRUE(scoped.engaged());
    infer::SessionOptions options = Options();
    options.use_plans = false;
    auto session =
        infer::InferenceSession::Wrap(NewModel(7), scaler_, options);
    EXPECT_NE(session, nullptr);
    return session->PredictRequests(requests);
  }

  data::SyntheticTraffic traffic_;
  data::StandardScaler scaler_;
  int original_threads_ = 0;
};

class BackendSessionThreadsTest : public BackendSessionTest,
                                  public ::testing::WithParamInterface<int> {};

// Forced-backend A/B on the full D2STGNN forward: the mean absolute forecast
// delta between scalar and avx2 must stay below 1e-3 of the signal scale —
// per-op ulp bounds must not compound into a visible accuracy change.
TEST_P(BackendSessionThreadsTest, ForcedBackendForecastDeltaIsNegligible) {
  if (kernels::Avx2BackendOrNull() == nullptr) {
    GTEST_SKIP() << "AVX2+FMA unavailable; nothing to compare";
  }
  SetNumThreads(GetParam());
  const std::vector<infer::ForecastRequest> requests = Requests(4);
  const std::vector<infer::Forecast> scalar = ServeUnder("scalar", requests);
  const std::vector<infer::Forecast> avx2 = ServeUnder("avx2", requests);

  ASSERT_EQ(scalar.size(), avx2.size());
  double abs_delta = 0.0;
  double abs_ref = 0.0;
  int64_t count = 0;
  for (size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_TRUE(scalar[i].ok) << scalar[i].error;
    ASSERT_TRUE(avx2[i].ok) << avx2[i].error;
    ASSERT_EQ(scalar[i].values.size(), avx2[i].values.size());
    for (size_t j = 0; j < scalar[i].values.size(); ++j) {
      abs_delta += std::fabs(scalar[i].values[j] - avx2[i].values[j]);
      abs_ref += std::fabs(scalar[i].values[j]);
      ++count;
    }
  }
  ASSERT_GT(count, 0);
  const double mae_delta = abs_delta / static_cast<double>(count);
  const double scale = abs_ref / static_cast<double>(count);
  EXPECT_LE(mae_delta, 1e-3 * (1.0 + scale))
      << "mean |scalar - avx2| = " << mae_delta << " at signal scale "
      << scale;
}

INSTANTIATE_TEST_SUITE_P(Threads, BackendSessionThreadsTest,
                         ::testing::Values(1, 4));

// A plan captured under one backend refuses to replay under another: the
// recorded closures bind the capture-time backend, so the executor rejects
// with kBackendMismatch instead of silently mixing kernels.
TEST_F(BackendSessionTest, PlanReplayRejectsCrossBackendExecution) {
  if (kernels::Avx2BackendOrNull() == nullptr) {
    GTEST_SKIP() << "AVX2+FMA unavailable; no second backend to cross";
  }
  NoGradGuard no_grad;
  Rng rng(5);
  const Tensor x = Tensor::Randn({4, 9}, rng);
  const Tensor w = Tensor::Randn({9, 9}, rng);

  std::shared_ptr<const exec::ExecutionPlan> plan;
  {
    kernels::ScopedBackendOverride scoped("scalar");
    ASSERT_TRUE(scoped.engaged());
    exec::GraphCapture capture;
    capture.BindInput("x", x);
    const Tensor out = Sigmoid(MatMul(x, w));
    plan = capture.Finish(out);
    ASSERT_NE(plan, nullptr) << capture.error();
  }
  EXPECT_EQ(plan->backend_name(), "scalar");

  exec::PlanExecutor executor(plan);
  const std::vector<exec::InputBinding> bindings = {
      {x.Data().data(), x.numel()}};
  {
    kernels::ScopedBackendOverride scoped("avx2");
    ASSERT_TRUE(scoped.engaged());
    std::string error;
    EXPECT_EQ(executor.Run(bindings, {}, exec::ReplayMode::kSerial, &error),
              exec::ReplayStatus::kBackendMismatch);
    EXPECT_NE(error.find("scalar"), std::string::npos) << error;
  }
  {
    kernels::ScopedBackendOverride scoped("scalar");
    ASSERT_TRUE(scoped.engaged());
    EXPECT_EQ(executor.Run(bindings, {}, exec::ReplayMode::kSerial),
              exec::ReplayStatus::kOk);
  }
}

// The kCorruptBackend mutation is caught twice over: statically by the
// verifier (kUnknownBackend) and dynamically by the executor
// (kBackendMismatch). Runs on every host — no avx2 required.
TEST_F(BackendSessionTest, CorruptBackendNameIsCaughtStaticallyAndAtReplay) {
  NoGradGuard no_grad;
  Rng rng(5);
  const Tensor x = Tensor::Randn({4, 9}, rng);
  const Tensor w = Tensor::Randn({9, 9}, rng);
  exec::GraphCapture capture;
  capture.BindInput("x", x);
  const Tensor out = Relu(MatMul(x, w));
  const auto plan = capture.Finish(out);
  ASSERT_NE(plan, nullptr) << capture.error();
  ASSERT_TRUE(exec::VerifyPlan(*plan).ok());

  const auto mutant =
      exec::MutatePlan(*plan, exec::PlanMutation::kCorruptBackend);
  ASSERT_NE(mutant, nullptr);
  const exec::VerifierReport report = exec::VerifyPlan(*mutant);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasCode(exec::DiagCode::kUnknownBackend))
      << report.ToString();

  exec::PlanExecutor executor(mutant);
  std::string error;
  EXPECT_EQ(executor.Run({{x.Data().data(), x.numel()}}, {},
                         exec::ReplayMode::kSerial, &error),
            exec::ReplayStatus::kBackendMismatch);
}

// One plan map across a backend switch: the scalar plan cannot replay under
// avx2, so the first avx2 request drops it (counted as an invalidation) and
// serves eagerly; Warmup captures under avx2; switching back recaptures a
// scalar plan whose replays are bitwise those of the first scalar run.
TEST_F(BackendSessionTest, BackendSwitchDropsAndRecapturesPlans) {
  if (kernels::Avx2BackendOrNull() == nullptr) {
    GTEST_SKIP() << "AVX2+FMA unavailable; no second backend to switch to";
  }
  SetNumThreads(1);
  infer::SessionOptions options = Options();
  options.verify_plans = true;
  auto session = infer::InferenceSession::Wrap(NewModel(7), scaler_, options);
  ASSERT_NE(session, nullptr);
  infer::SessionOptions eager_options = Options();
  eager_options.use_plans = false;
  auto eager =
      infer::InferenceSession::Wrap(NewModel(7), scaler_, eager_options);
  ASSERT_NE(eager, nullptr);
  const std::vector<infer::ForecastRequest> requests = Requests(4);

  kernels::ScopedBackendOverride outer("scalar");
  ASSERT_TRUE(outer.engaged());
  session->Warmup(/*batch_size=*/4, /*runs=*/1);
  EXPECT_EQ(session->session_stats().plans_built, 1);
  const std::vector<infer::Forecast> scalar_served =
      session->PredictRequests(requests);

  {
    kernels::ScopedBackendOverride inner("avx2");
    ASSERT_TRUE(inner.engaged());
    const infer::SessionStats pre = session->session_stats();
    const std::vector<infer::Forecast> switched =
        session->PredictRequests(requests);
    infer::SessionStats stats = session->session_stats();
    EXPECT_EQ(stats.eager_forwards, pre.eager_forwards + 1);
    EXPECT_EQ(stats.plan_replays, pre.plan_replays);
    EXPECT_EQ(stats.plan_invalidations, pre.plan_invalidations + 1);
    EXPECT_TRUE(session->planned_batch_sizes().empty());
    EXPECT_TRUE(session->verifier_reports().empty());
    const std::vector<infer::Forecast> avx2_eager =
        eager->PredictRequests(requests);
    ASSERT_EQ(switched.size(), avx2_eager.size());
    for (size_t i = 0; i < switched.size(); ++i) {
      ASSERT_TRUE(switched[i].ok) << switched[i].error;
      EXPECT_EQ(switched[i].values, avx2_eager[i].values) << "request " << i;
    }

    session->Warmup(/*batch_size=*/4, /*runs=*/1);
    stats = session->session_stats();
    EXPECT_EQ(stats.plans_built, 2);
    EXPECT_EQ(stats.plan_replays, pre.plan_replays + 1);
    EXPECT_EQ(session->planned_batch_sizes(), std::vector<int64_t>{4});
  }

  // Back on scalar, Warmup finds the avx2 plan foreign and recaptures.
  session->Warmup(/*batch_size=*/4, /*runs=*/1);
  const infer::SessionStats back = session->session_stats();
  EXPECT_EQ(back.plans_built, 3);
  EXPECT_EQ(back.plan_invalidations, 2);
  const std::vector<infer::Forecast> again =
      session->PredictRequests(requests);
  EXPECT_EQ(session->session_stats().plan_replays, back.plan_replays + 1);
  ASSERT_EQ(again.size(), scalar_served.size());
  for (size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].values, scalar_served[i].values) << "request " << i;
  }
}

}  // namespace
}  // namespace d2stgnn
