// Parameterized property tests: invariants swept over shapes and model
// configurations.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "core/d2stgnn.h"
#include "data/presets.h"
#include "data/synthetic_traffic.h"
#include "graph/localized_transition.h"
#include "graph/transition.h"
#include "metrics/metrics.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

namespace d2stgnn {
namespace {

// ---------------------------------------------------------------------------
// Broadcasting: for any compatible shape pair, gradients of elementwise ops
// must match finite differences and reduce to the input shapes.

using ShapePair = std::tuple<Shape, Shape>;

class BroadcastProperty : public ::testing::TestWithParam<ShapePair> {};

TEST_P(BroadcastProperty, AddMulDivGradChecks) {
  const auto& [shape_a, shape_b] = GetParam();
  Rng rng(7);
  Tensor a = Tensor::Rand(shape_a, rng, 0.5f, 2.0f).SetRequiresGrad(true);
  Tensor b = Tensor::Rand(shape_b, rng, 0.5f, 2.0f).SetRequiresGrad(true);

  auto check = [&](auto op, const char* name) {
    a.ZeroGrad();
    b.ZeroGrad();
    auto loss = [&] { return Sum(op(a, b)); };
    const auto result = CheckGradients(loss, {a, b}, rng, 1e-3f);
    EXPECT_TRUE(result.ok) << name << " rel err " << result.max_relative_error;
  };
  check([](const Tensor& x, const Tensor& y) { return Add(x, y); }, "Add");
  check([](const Tensor& x, const Tensor& y) { return Mul(x, y); }, "Mul");
  check([](const Tensor& x, const Tensor& y) { return Div(x, y); }, "Div");
}

TEST_P(BroadcastProperty, ForwardMatchesScalarSemantics) {
  const auto& [shape_a, shape_b] = GetParam();
  Rng rng(8);
  Tensor a = Tensor::Rand(shape_a, rng, -2.0f, 2.0f);
  Tensor b = Tensor::Rand(shape_b, rng, -2.0f, 2.0f);
  Tensor sum = Add(a, b);
  const Shape out = BroadcastShapes(shape_a, shape_b);
  ASSERT_EQ(sum.shape(), out);
  // Spot-check via explicit BroadcastTo.
  Tensor ea = BroadcastTo(a, out);
  Tensor eb = BroadcastTo(b, out);
  for (int64_t i = 0; i < sum.numel(); ++i) {
    EXPECT_NEAR(sum.At(i), ea.At(i) + eb.At(i), 1e-6f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastProperty,
    ::testing::Values(ShapePair{{3, 4}, {3, 4}}, ShapePair{{3, 4}, {4}},
                      ShapePair{{2, 1, 3}, {4, 1}}, ShapePair{{5}, {2, 5}},
                      ShapePair{{2, 3, 1, 2}, {3, 2, 2}},
                      ShapePair{{1}, {2, 2}}));

// ---------------------------------------------------------------------------
// MatMul: associativity with identity, shape algebra, and gradients across
// batching patterns.

using MatMulShapes = std::tuple<Shape, Shape>;

class MatMulProperty : public ::testing::TestWithParam<MatMulShapes> {};

TEST_P(MatMulProperty, IdentityAndGrad) {
  const auto& [shape_a, shape_b] = GetParam();
  Rng rng(9);
  Tensor a = Tensor::Randn(shape_a, rng).SetRequiresGrad(true);
  Tensor b = Tensor::Randn(shape_b, rng).SetRequiresGrad(true);
  Tensor c = MatMul(a, b);
  // Multiplying by the identity on the right leaves the result unchanged.
  const int64_t n = c.size(-1);
  Tensor c_eye = MatMul(c, Tensor::Eye(n));
  for (int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c.At(i), c_eye.At(i), 1e-4f);
  }
  auto loss = [&] { return Sum(Abs(MatMul(a, b))); };
  const auto result = CheckGradients(loss, {a, b}, rng, 1e-2f, 3e-2f, 8);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulProperty,
    ::testing::Values(MatMulShapes{{3, 4}, {4, 2}},
                      MatMulShapes{{2, 3, 4}, {4, 5}},
                      MatMulShapes{{2, 3, 4}, {2, 4, 5}},
                      MatMulShapes{{3, 4}, {2, 4, 5}},
                      MatMulShapes{{2, 1, 3, 4}, {5, 4, 2}}));

// ---------------------------------------------------------------------------
// Softmax along every axis: rows sum to 1, entries positive, gradient sums
// to zero along the softmax axis (softmax is shift-invariant).

class SoftmaxProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(SoftmaxProperty, SimplexAndShiftInvariance) {
  const int64_t dim = GetParam();
  Rng rng(10);
  Tensor a = Tensor::Randn({3, 4, 5}, rng);
  Tensor s = Softmax(a, dim);
  Tensor sums = Sum(s, dim, false);
  for (int64_t i = 0; i < sums.numel(); ++i) {
    EXPECT_NEAR(sums.At(i), 1.0f, 1e-5f);
  }
  for (float v : s.Data()) EXPECT_GT(v, 0.0f);
  // softmax(a + c) == softmax(a).
  Tensor shifted = Softmax(AddScalar(a, 5.0f), dim);
  for (int64_t i = 0; i < s.numel(); ++i) {
    EXPECT_NEAR(s.At(i), shifted.At(i), 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(Axes, SoftmaxProperty, ::testing::Values(0, 1, 2, -1));

// ---------------------------------------------------------------------------
// Localized transitions (Eq. 4) for every (k_s, k_t) of Figure 7's sweep:
// one [N, N] block whatever k_t, diagonal masked, non-negative, and equal to
// the transition power off the diagonal.

using KernelSizes = std::tuple<int64_t, int64_t>;

class LocalizedProperty : public ::testing::TestWithParam<KernelSizes> {};

TEST_P(LocalizedProperty, MaskAndShape) {
  const auto& [k_s, k_t] = GetParam();
  Rng rng(11);
  graph::SensorNetworkOptions options;
  options.num_nodes = 7;
  options.neighbors = 3;
  const auto net = graph::BuildRandomSensorNetwork(options, rng);
  const Tensor p = graph::ForwardTransition(net.adjacency);
  const auto powers = graph::TransitionPowers(p, k_s);
  ASSERT_EQ(static_cast<int64_t>(powers.size()), k_s);
  for (const Tensor& power : powers) {
    const Tensor local = graph::LocalizedTransition(power, k_t);
    ASSERT_EQ(local.shape(), (Shape{7, 7}));
    for (int64_t i = 0; i < 7; ++i) {
      for (int64_t j = 0; j < 7; ++j) {
        EXPECT_FLOAT_EQ(local.At({i, j}), i == j ? 0.0f : power.At({i, j}));
      }
    }
    for (float v : local.Data()) EXPECT_GE(v, 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, LocalizedProperty,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2, 3, 5)));

// ---------------------------------------------------------------------------
// D2STGNN across architecture hyper-parameters (the Figure 7 grid): forward
// shape, finite loss, gradient mass.

using ModelParams = std::tuple<int64_t, int64_t, int64_t>;  // k_s, k_t, L

class D2StgnnProperty : public ::testing::TestWithParam<ModelParams> {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticTrafficOptions options;
    options.network.num_nodes = 6;
    options.num_steps = 600;
    options.seed = 12;
    traffic_ = new data::SyntheticTraffic(
        data::GenerateSyntheticTraffic(options));
    scaler_ = new data::StandardScaler();
    scaler_->Fit(traffic_->dataset.values, 400, true);
    loader_ = new data::WindowDataLoader(
        &traffic_->dataset, scaler_,
        data::MakeChronologicalSplits(600, 12, 12, 0.7f, 0.1f).train, 12, 12,
        3);
  }
  static void TearDownTestSuite() {
    delete loader_;
    delete scaler_;
    delete traffic_;
    loader_ = nullptr;
    scaler_ = nullptr;
    traffic_ = nullptr;
  }
  static data::SyntheticTraffic* traffic_;
  static data::StandardScaler* scaler_;
  static data::WindowDataLoader* loader_;
};

data::SyntheticTraffic* D2StgnnProperty::traffic_ = nullptr;
data::StandardScaler* D2StgnnProperty::scaler_ = nullptr;
data::WindowDataLoader* D2StgnnProperty::loader_ = nullptr;

TEST_P(D2StgnnProperty, ForwardBackwardAcrossConfigs) {
  const auto& [k_s, k_t, layers] = GetParam();
  core::D2StgnnConfig config;
  config.num_nodes = 6;
  config.hidden_dim = 8;
  config.embed_dim = 4;
  config.num_heads = 2;
  config.k_s = k_s;
  config.k_t = k_t;
  config.num_layers = layers;
  Rng rng(13);
  core::D2Stgnn model(config, traffic_->dataset.network.adjacency, rng);
  const data::Batch batch = loader_->GetBatch(0);
  Tensor loss = metrics::MaskedMaeLoss(
      scaler_->InverseTransform(model.Forward(batch)), batch.y);
  ASSERT_TRUE(std::isfinite(loss.Item()));
  model.ZeroGrad();
  loss.Backward();
  double mass = 0.0;
  for (const Tensor& p : model.Parameters()) {
    for (float g : p.GradData()) mass += std::fabs(g);
  }
  EXPECT_GT(mass, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Grid, D2StgnnProperty,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 3),
                                            ::testing::Values(1, 2)));

// ---------------------------------------------------------------------------
// Synthetic presets: generated datasets respect their family's reading
// conventions at any scale.

class PresetProperty : public ::testing::TestWithParam<int> {};

TEST_P(PresetProperty, ReadingsMatchFamily) {
  const auto presets = data::AllPresets(0.02f);
  const auto& preset = presets[static_cast<size_t>(GetParam())];
  const auto traffic = data::GenerateSyntheticTraffic(preset.options);
  EXPECT_EQ(traffic.dataset.name, preset.name);
  EXPECT_GT(traffic.dataset.num_nodes(), 0);
  for (float v : traffic.dataset.values.Data()) {
    EXPECT_GE(v, 0.0f);
    if (preset.options.flow) {
      EXPECT_FLOAT_EQ(v, std::round(v));
    } else {
      EXPECT_LE(v, preset.options.free_flow_speed + 2.0f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFour, PresetProperty, ::testing::Range(0, 4));

}  // namespace
}  // namespace d2stgnn
