#include "tensor/tensor.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

namespace d2stgnn {
namespace {

TEST(TensorBasics, ShapeAndFill) {
  Tensor t({2, 3}, 1.5f);
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 3);
  EXPECT_EQ(t.numel(), 6);
  for (float v : t.Data()) EXPECT_FLOAT_EQ(v, 1.5f);
}

TEST(TensorBasics, FromData) {
  Tensor t({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_FLOAT_EQ(t.At({0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(t.At({0, 1}), 2.0f);
  EXPECT_FLOAT_EQ(t.At({1, 0}), 3.0f);
  EXPECT_FLOAT_EQ(t.At({1, 1}), 4.0f);
}

TEST(TensorBasics, Eye) {
  Tensor eye = Tensor::Eye(3);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(eye.At({i, j}), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(TensorBasics, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(3.5f).Item(), 3.5f);
}

TEST(TensorBasics, DetachSharesNothing) {
  Tensor a = Tensor::Ones({2});
  a.SetRequiresGrad(true);
  Tensor b = a.Detach();
  EXPECT_FALSE(b.RequiresGrad());
  b.Data()[0] = 9.0f;
  EXPECT_FLOAT_EQ(a.At(0), 1.0f);
}

TEST(ElementwiseOps, AddSameShape) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  Tensor c = Add(a, b);
  EXPECT_FLOAT_EQ(c.At(0), 11.0f);
  EXPECT_FLOAT_EQ(c.At(3), 44.0f);
}

TEST(ElementwiseOps, BroadcastBiasAdd) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias({3}, {10, 20, 30});
  Tensor c = Add(a, bias);
  EXPECT_FLOAT_EQ(c.At({0, 0}), 11.0f);
  EXPECT_FLOAT_EQ(c.At({1, 2}), 36.0f);
}

TEST(ElementwiseOps, BroadcastLeadingDim) {
  Tensor a({2, 1, 2}, {1, 2, 3, 4});
  Tensor b({3, 1}, {10, 20, 30});
  Tensor c = Mul(a, b);  // -> [2, 3, 2]
  EXPECT_EQ(c.shape(), (Shape{2, 3, 2}));
  EXPECT_FLOAT_EQ(c.At({0, 0, 0}), 10.0f);
  EXPECT_FLOAT_EQ(c.At({1, 2, 1}), 120.0f);
}

TEST(ElementwiseOps, ScalarOperators) {
  Tensor a({2}, {1.0f, -2.0f});
  EXPECT_FLOAT_EQ((a + 1.0f).At(0), 2.0f);
  EXPECT_FLOAT_EQ((a * 3.0f).At(1), -6.0f);
  EXPECT_FLOAT_EQ((1.0f - a).At(1), 3.0f);
  EXPECT_FLOAT_EQ((-a).At(0), -1.0f);
}

TEST(ElementwiseOps, UnaryValues) {
  Tensor a({3}, {-1.0f, 0.0f, 2.0f});
  EXPECT_FLOAT_EQ(Relu(a).At(0), 0.0f);
  EXPECT_FLOAT_EQ(Relu(a).At(2), 2.0f);
  EXPECT_NEAR(Sigmoid(a).At(1), 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(a).At(2), std::tanh(2.0f), 1e-6f);
  EXPECT_FLOAT_EQ(Abs(a).At(0), 1.0f);
}

TEST(MatMulOp, TwoByTwo) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.At({0, 0}), 19.0f);
  EXPECT_FLOAT_EQ(c.At({0, 1}), 22.0f);
  EXPECT_FLOAT_EQ(c.At({1, 0}), 43.0f);
  EXPECT_FLOAT_EQ(c.At({1, 1}), 50.0f);
}

TEST(MatMulOp, BatchedBroadcastLhs) {
  // [N, M] x [B, M, d]: the static-support pattern of the diffusion model.
  Tensor p({1, 2, 2}, {1, 0, 0, 2});
  Tensor x({3, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(p, x);
  EXPECT_EQ(c.shape(), (Shape{3, 2, 2}));
  EXPECT_FLOAT_EQ(c.At({0, 0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(c.At({0, 1, 0}), 6.0f);
  EXPECT_FLOAT_EQ(c.At({2, 1, 1}), 24.0f);
}

TEST(MatMulOp, NdTimes2d) {
  Tensor x({2, 3, 4}, std::vector<float>(24, 1.0f));
  Tensor w({4, 5}, std::vector<float>(20, 0.5f));
  Tensor y = MatMul(x, w);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 5}));
  for (float v : y.Data()) EXPECT_FLOAT_EQ(v, 2.0f);
}

TEST(Reductions, SumAndMean) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(Sum(a).Item(), 21.0f);
  EXPECT_FLOAT_EQ(Mean(a).Item(), 3.5f);
  Tensor s0 = Sum(a, 0, false);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s0.At(0), 5.0f);
  Tensor s1 = Sum(a, 1, true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s1.At(1), 15.0f);
  EXPECT_FLOAT_EQ(Mean(a, 1, false).At(0), 2.0f);
}

TEST(Reductions, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Tensor a = Tensor::Randn({4, 7}, rng);
  Tensor s = Softmax(a, -1);
  for (int64_t i = 0; i < 4; ++i) {
    float row = 0.0f;
    for (int64_t j = 0; j < 7; ++j) row += s.At({i, j});
    EXPECT_NEAR(row, 1.0f, 1e-5f);
  }
}

TEST(Reductions, SoftmaxStableWithLargeLogits) {
  Tensor a({1, 2}, {1000.0f, 1001.0f});
  Tensor s = Softmax(a, -1);
  EXPECT_NEAR(s.At(0) + s.At(1), 1.0f, 1e-5f);
  EXPECT_GT(s.At(1), s.At(0));
}

TEST(ShapeOps, ReshapeInfer) {
  Tensor a({2, 6}, std::vector<float>(12, 1.0f));
  Tensor b = Reshape(a, {3, -1});
  EXPECT_EQ(b.shape(), (Shape{3, 4}));
}

TEST(ShapeOps, PermuteRoundTrip) {
  Tensor a({2, 3, 4}, [] {
    std::vector<float> v(24);
    for (size_t i = 0; i < 24; ++i) v[i] = static_cast<float>(i);
    return v;
  }());
  Tensor p = Permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  EXPECT_FLOAT_EQ(p.At({1, 0, 2}), a.At({0, 2, 1}));
  Tensor back = Permute(p, {1, 2, 0});
  for (int64_t i = 0; i < 24; ++i) EXPECT_FLOAT_EQ(back.At(i), a.At(i));
}

TEST(ShapeOps, TransposeMatrix) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a, 0, 1);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.At({2, 1}), 6.0f);
}

TEST(ShapeOps, ConcatAndSlice) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 3}, {5, 6, 7, 8, 9, 10});
  Tensor c = Concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 5}));
  EXPECT_FLOAT_EQ(c.At({0, 2}), 5.0f);
  EXPECT_FLOAT_EQ(c.At({1, 4}), 10.0f);
  Tensor s = Slice(c, 1, 2, 5);
  EXPECT_EQ(s.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(s.At({1, 0}), 8.0f);
}

TEST(ShapeOps, StackAndSelect) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 4});
  Tensor s = Stack({a, b}, 0);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  Tensor row = Select(s, 0, 1);
  EXPECT_EQ(row.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(row.At(0), 3.0f);
}

TEST(ShapeOps, PadFrontAddsZeros) {
  Tensor a({1, 2, 1}, {1, 2});
  Tensor p = PadFront(a, 1, 2);
  EXPECT_EQ(p.shape(), (Shape{1, 4, 1}));
  EXPECT_FLOAT_EQ(p.At({0, 0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(p.At({0, 3, 0}), 2.0f);
}

TEST(ShapeOps, BroadcastToExpands) {
  Tensor a({1, 3}, {1, 2, 3});
  Tensor b = BroadcastTo(a, {2, 3});
  EXPECT_FLOAT_EQ(b.At({1, 2}), 3.0f);
}

// Naive strided gather: out[flat] = a[sum_d idx[d] * strides[d]], one
// element at a time from the multi-index — the reference the run-based
// GatherStrided under Permute / Transpose / BroadcastTo must match bitwise.
std::vector<float> NaiveGather(const Shape& out_shape,
                               const std::vector<int64_t>& strides,
                               const std::vector<float>& a) {
  std::vector<float> out(static_cast<size_t>(NumElements(out_shape)));
  for (int64_t flat = 0; flat < static_cast<int64_t>(out.size()); ++flat) {
    int64_t rem = flat;
    int64_t src = 0;
    for (int64_t d = static_cast<int64_t>(out_shape.size()) - 1; d >= 0; --d) {
      const size_t ud = static_cast<size_t>(d);
      src += (rem % out_shape[ud]) * strides[ud];
      rem /= out_shape[ud];
    }
    out[static_cast<size_t>(flat)] = a[static_cast<size_t>(src)];
  }
  return out;
}

/// Random shape of rank 1..5 and at most 2^16 elements; about a third of
/// the dims are 1 and the rest span 2..max_dim, so unit dims, merged runs
/// and partial tiles all occur.
Shape RandomShape(Rng& rng, int64_t max_dim) {
  Shape shape;
  do {
    shape.assign(static_cast<size_t>(1 + rng.UniformInt(5)), 1);
    for (int64_t& d : shape) {
      if (rng.UniformInt(3) != 0) d = 2 + rng.UniformInt(max_dim - 1);
    }
  } while (NumElements(shape) > (int64_t{1} << 16));
  return shape;
}

TEST(ShapeOps, PermuteAndTransposeMatchNaiveGather) {
  Rng rng(23);
  std::vector<std::pair<Shape, std::vector<int64_t>>> cases = {
      {{3, 70, 90}, {0, 2, 1}},       // transposed tail past one chunk
      {{2, 40, 30, 9}, {0, 2, 1, 3}},  // contiguous runs of 9
      {{37, 1, 19}, {2, 1, 0}},       // unit dim inside a transpose
  };
  for (int trial = 0; trial < 200; ++trial) {
    const Shape shape = RandomShape(rng, trial % 4 == 0 ? 40 : 6);
    std::vector<int64_t> perm = rng.Permutation(
        static_cast<int64_t>(shape.size()));
    cases.emplace_back(shape, std::move(perm));
  }
  for (const auto& [shape, perm] : cases) {
    const Tensor a = Tensor::Randn(shape, rng);
    const std::vector<int64_t> in_strides = RowMajorStrides(shape);
    Shape out_shape;
    std::vector<int64_t> strides;
    for (int64_t p : perm) {
      out_shape.push_back(shape[static_cast<size_t>(p)]);
      strides.push_back(in_strides[static_cast<size_t>(p)]);
    }
    const Tensor got = Permute(a, perm);
    EXPECT_EQ(got.shape(), out_shape);
    EXPECT_EQ(got.Data(), NaiveGather(out_shape, strides, a.Data()))
        << "shape " << ShapeToString(shape);

    if (shape.size() < 2) continue;
    const int64_t rank = static_cast<int64_t>(shape.size());
    const int64_t d0 = perm[0] % rank;
    const int64_t d1 = (d0 + 1 + perm.back() % (rank - 1)) % rank;
    std::vector<int64_t> swap(shape.size());
    for (int64_t d = 0; d < rank; ++d) swap[static_cast<size_t>(d)] = d;
    std::swap(swap[static_cast<size_t>(d0)], swap[static_cast<size_t>(d1)]);
    EXPECT_EQ(Transpose(a, d0, d1).Data(), Permute(a, swap).Data())
        << "shape " << ShapeToString(shape) << " d0=" << d0 << " d1=" << d1;
  }
}

TEST(ShapeOps, BroadcastToMatchesNaiveGather) {
  Rng rng(29);
  std::vector<std::pair<Shape, Shape>> cases = {
      {{1, 90}, {200, 90}},       // row broadcast past one chunk
      {{70, 1}, {70, 300}},       // column broadcast: stride-0 runs
      {{5, 1, 7}, {3, 5, 4, 7}},  // lower-rank source, interior broadcast
  };
  for (int trial = 0; trial < 200; ++trial) {
    const Shape out_shape = RandomShape(rng, trial % 4 == 0 ? 40 : 6);
    // Keep a random suffix of the target's dims, each either kept or 1.
    Shape src(out_shape.begin() + rng.UniformInt(
                                      static_cast<int64_t>(out_shape.size())),
              out_shape.end());
    for (int64_t& d : src) {
      if (rng.UniformInt(2) == 0) d = 1;
    }
    cases.emplace_back(src, out_shape);
  }
  for (const auto& [src, out_shape] : cases) {
    const Tensor a = Tensor::Randn(src, rng);
    const Tensor got = BroadcastTo(a, out_shape);
    EXPECT_EQ(got.shape(), out_shape);
    const size_t offset = out_shape.size() - src.size();
    const std::vector<int64_t> src_strides = RowMajorStrides(src);
    std::vector<int64_t> strides(out_shape.size(), 0);
    for (size_t d = 0; d < src.size(); ++d) {
      strides[offset + d] = src[d] == 1 ? 0 : src_strides[d];
    }
    EXPECT_EQ(got.Data(), NaiveGather(out_shape, strides, a.Data()))
        << ShapeToString(src) << " -> " << ShapeToString(out_shape);
  }
}

TEST(IndexOps, EmbeddingLookup) {
  Tensor table({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor out = EmbeddingLookup(table, {2, 0, 2}, {3});
  EXPECT_EQ(out.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(out.At({0, 1}), 21.0f);
  EXPECT_FLOAT_EQ(out.At({1, 0}), 0.0f);
}

TEST(DropoutOp, EvalIsIdentityTrainZeroesSome) {
  Rng rng(5);
  Tensor a = Tensor::Ones({1000});
  Tensor eval_out = Dropout(a, 0.5f, /*training=*/false, rng);
  for (int64_t i = 0; i < 1000; ++i) EXPECT_FLOAT_EQ(eval_out.At(i), 1.0f);
  Tensor train_out = Dropout(a, 0.5f, /*training=*/true, rng);
  int64_t zeros = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    if (train_out.At(i) == 0.0f) ++zeros;
  }
  EXPECT_GT(zeros, 300);
  EXPECT_LT(zeros, 700);
}

// ---------------------------------------------------------------------------
// Autograd.

TEST(Autograd, SimpleChain) {
  Tensor x = Tensor::Full({1}, 2.0f);
  x.SetRequiresGrad(true);
  Tensor y = Sum(Mul(x, x));  // y = x^2
  y.Backward();
  EXPECT_NEAR(x.Grad().At(0), 4.0f, 1e-5f);
}

TEST(Autograd, GradAccumulatesOverUses) {
  Tensor x = Tensor::Full({1}, 3.0f);
  x.SetRequiresGrad(true);
  Tensor y = Sum(Add(x, x));  // y = 2x
  y.Backward();
  EXPECT_NEAR(x.Grad().At(0), 2.0f, 1e-5f);
}

TEST(Autograd, NoGradGuardSuppressesTape) {
  Tensor x = Tensor::Ones({2});
  x.SetRequiresGrad(true);
  NoGradGuard guard;
  Tensor y = Mul(x, x);
  EXPECT_EQ(y.impl()->grad_fn, nullptr);
}

TEST(Autograd, BroadcastAddReducesGrad) {
  Tensor a = Tensor::Ones({2, 3});
  Tensor b = Tensor::Ones({3});
  a.SetRequiresGrad(true);
  b.SetRequiresGrad(true);
  Sum(Add(a, b)).Backward();
  EXPECT_EQ(b.Grad().shape(), (Shape{3}));
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(b.Grad().At(i), 2.0f, 1e-5f);
}

class GradCheckTest : public ::testing::Test {
 protected:
  Rng rng_{11};
};

TEST_F(GradCheckTest, MatMul) {
  Tensor a = Tensor::Randn({3, 4}, rng_).SetRequiresGrad(true);
  Tensor b = Tensor::Randn({4, 2}, rng_).SetRequiresGrad(true);
  auto loss = [&] { return Sum(Mul(MatMul(a, b), MatMul(a, b))); };
  auto result = CheckGradients(loss, {a, b}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, BatchedMatMulBroadcast) {
  Tensor p = Tensor::Randn({2, 3}, rng_).SetRequiresGrad(true);
  Tensor x = Tensor::Randn({4, 3, 2}, rng_).SetRequiresGrad(true);
  auto loss = [&] { return Sum(Abs(MatMul(p, x))); };
  auto result = CheckGradients(loss, {p, x}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, SoftmaxMul) {
  Tensor a = Tensor::Randn({3, 5}, rng_).SetRequiresGrad(true);
  Tensor w = Tensor::Randn({3, 5}, rng_).SetRequiresGrad(true);
  auto loss = [&] { return Sum(Mul(Softmax(a, -1), w)); };
  auto result = CheckGradients(loss, {a, w}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, DivAndLog) {
  Tensor a = Tensor::Rand({4}, rng_, 0.5f, 2.0f).SetRequiresGrad(true);
  Tensor b = Tensor::Rand({4}, rng_, 0.5f, 2.0f).SetRequiresGrad(true);
  auto loss = [&] { return Sum(Log(Div(a, b))); };
  auto result = CheckGradients(loss, {a, b}, rng_, 1e-3f);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, SigmoidTanhExp) {
  Tensor a = Tensor::Randn({6}, rng_).SetRequiresGrad(true);
  auto loss = [&] { return Sum(Exp(Mul(Sigmoid(a), Tanh(a)))); };
  auto result = CheckGradients(loss, {a}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, ConcatSlicePermute) {
  Tensor a = Tensor::Randn({2, 3}, rng_).SetRequiresGrad(true);
  Tensor b = Tensor::Randn({2, 2}, rng_).SetRequiresGrad(true);
  auto loss = [&] {
    Tensor c = Concat({a, b}, 1);               // [2, 5]
    Tensor p = Permute(c, {1, 0});              // [5, 2]
    return Sum(Mul(Slice(p, 0, 1, 4), Slice(p, 0, 1, 4)));
  };
  auto result = CheckGradients(loss, {a, b}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, SumDimMeanReduce) {
  Tensor a = Tensor::Randn({3, 4}, rng_).SetRequiresGrad(true);
  auto loss = [&] { return Sum(Mul(Mean(a, 1, true), Sum(a, 0, false))); };
  auto result = CheckGradients(loss, {a}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, EmbeddingScatter) {
  Tensor table = Tensor::Randn({5, 3}, rng_).SetRequiresGrad(true);
  auto loss = [&] {
    Tensor rows = EmbeddingLookup(table, {1, 1, 4}, {3});
    return Sum(Mul(rows, rows));
  };
  auto result = CheckGradients(loss, {table}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

TEST_F(GradCheckTest, BroadcastToReduce) {
  Tensor a = Tensor::Randn({1, 4}, rng_).SetRequiresGrad(true);
  auto loss = [&] { return Sum(Abs(BroadcastTo(a, {3, 4}))); };
  auto result = CheckGradients(loss, {a}, rng_);
  EXPECT_TRUE(result.ok) << result.max_relative_error;
}

}  // namespace
}  // namespace d2stgnn
