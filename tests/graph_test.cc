#include "graph/sensor_graph.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "graph/localized_transition.h"
#include "graph/transition.h"
#include "tensor/ops.h"

namespace d2stgnn {
namespace {

graph::SensorNetwork MakeNetwork(int64_t n = 16, bool directed = true) {
  graph::SensorNetworkOptions options;
  options.num_nodes = n;
  options.neighbors = 3;
  options.directed = directed;
  Rng rng(77);
  return graph::BuildRandomSensorNetwork(options, rng);
}

TEST(SensorGraph, BuildsRequestedSize) {
  const auto net = MakeNetwork(16);
  EXPECT_EQ(net.num_nodes, 16);
  EXPECT_EQ(net.adjacency.shape(), (Shape{16, 16}));
  EXPECT_EQ(net.road_distance.shape(), (Shape{16, 16}));
}

TEST(SensorGraph, SelfDistanceZeroAndSelfWeightOne) {
  const auto net = MakeNetwork(12);
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_FLOAT_EQ(net.road_distance.At({i, i}), 0.0f);
    EXPECT_FLOAT_EQ(net.adjacency.At({i, i}), 1.0f);
  }
}

TEST(SensorGraph, EveryNodeHasNeighbors) {
  const auto net = MakeNetwork(20);
  for (int64_t i = 0; i < 20; ++i) {
    int64_t out_degree = 0;
    for (int64_t j = 0; j < 20; ++j) {
      if (i != j && net.adjacency.At({i, j}) > 0.0f) ++out_degree;
    }
    EXPECT_GT(out_degree, 0) << "node " << i << " is isolated";
  }
}

TEST(SensorGraph, DirectedGraphIsAsymmetric) {
  const auto net = MakeNetwork(24, /*directed=*/true);
  bool asymmetric = false;
  for (int64_t i = 0; i < 24 && !asymmetric; ++i) {
    for (int64_t j = 0; j < 24; ++j) {
      if (std::fabs(net.adjacency.At({i, j}) - net.adjacency.At({j, i})) >
          1e-6f) {
        asymmetric = true;
        break;
      }
    }
  }
  EXPECT_TRUE(asymmetric);
}

TEST(SensorGraph, UndirectedGraphIsSymmetric) {
  const auto net = MakeNetwork(24, /*directed=*/false);
  for (int64_t i = 0; i < 24; ++i) {
    for (int64_t j = 0; j < 24; ++j) {
      EXPECT_NEAR(net.adjacency.At({i, j}), net.adjacency.At({j, i}), 1e-6f);
    }
  }
}

TEST(SensorGraph, GaussianKernelThresholdDropsWeakEdges) {
  // Two clusters far apart: cross-cluster weights must be zero.
  std::vector<float> dist = {0.0f, 0.1f, 100.0f, 0.1f,  0.0f, 100.0f,
                             100.0f, 100.0f, 0.0f};
  Tensor d({3, 3}, dist);
  Tensor adj = graph::ThresholdedGaussianAdjacency(d, 0.1f);
  EXPECT_GT(adj.At({0, 1}), 0.0f);
  EXPECT_FLOAT_EQ(adj.At({0, 2}), 0.0f);
}

TEST(SensorGraph, CountEdgesIgnoresDiagonal) {
  Tensor adj = Tensor::Eye(4);
  EXPECT_EQ(graph::CountEdges(adj), 0);
  adj.Data()[1] = 0.5f;  // (0, 1)
  EXPECT_EQ(graph::CountEdges(adj), 1);
}

TEST(Transition, ForwardRowsSumToOne) {
  const auto net = MakeNetwork(10);
  const Tensor p = graph::ForwardTransition(net.adjacency);
  for (int64_t i = 0; i < 10; ++i) {
    float row = 0.0f;
    for (int64_t j = 0; j < 10; ++j) row += p.At({i, j});
    EXPECT_NEAR(row, 1.0f, 1e-5f);
  }
}

TEST(Transition, BackwardIsTransposedNormalization) {
  const auto net = MakeNetwork(10);
  const Tensor pb = graph::BackwardTransition(net.adjacency);
  for (int64_t i = 0; i < 10; ++i) {
    float row = 0.0f;
    for (int64_t j = 0; j < 10; ++j) row += pb.At({i, j});
    EXPECT_NEAR(row, 1.0f, 1e-5f);
  }
}

TEST(Transition, ZeroRowStaysZero) {
  Tensor adj({2, 2}, {0.0f, 0.0f, 1.0f, 1.0f});
  const Tensor p = graph::ForwardTransition(adj);
  EXPECT_FLOAT_EQ(p.At({0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(p.At({0, 1}), 0.0f);
  EXPECT_FLOAT_EQ(p.At({1, 0}), 0.5f);
}

TEST(Transition, PowersMatchRepeatedMultiplication) {
  const auto net = MakeNetwork(8);
  const Tensor p = graph::ForwardTransition(net.adjacency);
  const auto powers = graph::TransitionPowers(p, 3);
  ASSERT_EQ(powers.size(), 3u);
  const Tensor p3 = MatMul(MatMul(p, p), p);
  for (int64_t i = 0; i < p3.numel(); ++i) {
    EXPECT_NEAR(powers[2].At(i), p3.At(i), 1e-5f);
  }
}

TEST(Transition, PowersKeepRowStochasticity) {
  const auto net = MakeNetwork(8, /*directed=*/false);
  const Tensor p = graph::ForwardTransition(net.adjacency);
  for (const Tensor& power : graph::TransitionPowers(p, 3)) {
    for (int64_t i = 0; i < 8; ++i) {
      float row = 0.0f;
      for (int64_t j = 0; j < 8; ++j) row += power.At({i, j});
      EXPECT_NEAR(row, 1.0f, 1e-4f);
    }
  }
}

TEST(LocalizedTransition, MasksDiagonalOfEveryBlock) {
  // Eq. 4: every one of the k_t blocks is M = P ⊙ (1 - I_N) — a node's own
  // history belongs to the inherent model. Only that one block is built,
  // whatever k_t: zero diagonal, P everywhere else.
  const auto net = MakeNetwork(6);
  const Tensor p = graph::ForwardTransition(net.adjacency);
  for (int64_t k_t = 1; k_t <= 3; ++k_t) {
    const Tensor local = graph::LocalizedTransition(p, k_t);
    ASSERT_EQ(local.shape(), (Shape{6, 6}));
    for (int64_t i = 0; i < 6; ++i) {
      for (int64_t j = 0; j < 6; ++j) {
        EXPECT_FLOAT_EQ(local.At({i, j}), i == j ? 0.0f : p.At({i, j}))
            << "k_t " << k_t << " entry (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(LocalizedTransition, BlocksAreIdenticalCopies) {
  // The identity the diffusion block folds on: since Eq. 4's k_t blocks are
  // copies of M, [M ‖ M ‖ M] [X_1; X_2; X_3] = M (X_1 + X_2 + X_3).
  Rng rng(9);
  const auto net = MakeNetwork(6);
  const Tensor m =
      graph::LocalizedTransition(graph::ForwardTransition(net.adjacency), 3);
  const std::vector<Tensor> frames = {Tensor::Randn({6, 4}, rng),
                                      Tensor::Randn({6, 4}, rng),
                                      Tensor::Randn({6, 4}, rng)};
  const Tensor unfolded =
      MatMul(Concat({m, m, m}, -1), Concat(frames, 0));  // [6, 4]
  const Tensor folded = MatMul(m, Add(Add(frames[0], frames[1]), frames[2]));
  ASSERT_EQ(folded.shape(), unfolded.shape());
  for (int64_t i = 0; i < folded.numel(); ++i) {
    EXPECT_NEAR(folded.At(i), unfolded.At(i), 1e-5f);
  }
}

TEST(LocalizedTransition, SupportsBatchedDynamicGraphs) {
  Rng rng(5);
  const Tensor p = Softmax(Tensor::Randn({4, 5, 5}, rng), -1);
  const Tensor local = graph::LocalizedTransition(p, 3);
  ASSERT_EQ(local.shape(), (Shape{4, 5, 5}));
  for (int64_t b = 0; b < 4; ++b) {
    for (int64_t i = 0; i < 5; ++i) {
      EXPECT_FLOAT_EQ(local.At({b, i, i}), 0.0f) << "sample " << b;
      EXPECT_FLOAT_EQ(local.At({b, i, (i + 1) % 5}), p.At({b, i, (i + 1) % 5}));
    }
  }
}

TEST(LocalizedTransition, GradientFlowsThroughMask) {
  Rng rng(5);
  Tensor p = Tensor::Rand({4, 4}, rng, 0.1f, 1.0f).SetRequiresGrad(true);
  Tensor local = graph::LocalizedTransition(p, 2);
  Sum(local).Backward();
  // Off-diagonal entries pass through the one block -> gradient 1; diagonal
  // entries are masked -> gradient 0.
  EXPECT_FLOAT_EQ(p.Grad().At({0, 1}), 1.0f);
  EXPECT_FLOAT_EQ(p.Grad().At({0, 0}), 0.0f);
}

}  // namespace
}  // namespace d2stgnn
