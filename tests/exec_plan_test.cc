// Tests of the capture/plan/replay subsystem (DESIGN.md §10): the static
// memory planner's interval allocation, eager-vs-replay bitwise parity over
// an op zoo covering every recorded kernel, plan hygiene (dead-step pruning,
// registered step names, level schedule invariants), staleness and binding
// semantics, zero allocator traffic during replay, and session-level plan
// serving on the paper's model — parity at 1 and 4 threads in both serial
// and level-parallel modes, shape-miss fallback, padded replays, and plan
// invalidation when parameter storage is reassigned.

#include "exec/graph_capture.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "metrics/metrics.h"
#include "core/d2stgnn.h"
#include "data/sliding_window.h"
#include "data/synthetic_traffic.h"
#include "exec/memory_planner.h"
#include "exec/plan_executor.h"
#include "exec/plan_verifier.h"
#include "infer/session.h"
#include "tensor/buffer_arena.h"
#include "tensor/kernels.h"
#include "tensor/op_registry.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

#ifndef D2STGNN_SOURCE_DIR
#error "tests/CMakeLists.txt must define D2STGNN_SOURCE_DIR"
#endif

// The latency-floor test only runs on un-sanitized optimized builds —
// sanitizers and -O0 distort the eager/replay cost ratio arbitrarily.
// Any -DD2STGNN_SANITIZE=... build defines D2STGNN_SANITIZED_BUILD via
// tests/CMakeLists.txt (UBSan has no portable feature macro, so compiler
// detection alone cannot cover it); the compiler checks below are a
// belt-and-braces fallback for builds that pass -fsanitize= directly.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define D2STGNN_SANITIZED_BUILD 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define D2STGNN_SANITIZED_BUILD 1
#endif

namespace d2stgnn {
namespace {

// ---------------------------------------------------------------------------
// Memory planner.

TEST(MemoryPlannerTest, DisjointLifetimesShareBytes) {
  const std::vector<exec::BufferRequest> requests = {
      {64, 1, 1},  // dead after level 1
      {64, 2, 2},  // born at level 2: may reuse the first buffer's bytes
  };
  const exec::BufferAssignment assignment = exec::PlanBuffers(requests);
  ASSERT_EQ(assignment.offsets.size(), 2u);
  EXPECT_EQ(assignment.offsets[0], assignment.offsets[1]);
  EXPECT_EQ(assignment.slab_floats, 64);
}

TEST(MemoryPlannerTest, OverlappingLifetimesGetDistinctBytes) {
  const std::vector<exec::BufferRequest> requests = {
      {64, 1, 2},
      {64, 2, 3},  // both live at level 2
  };
  const exec::BufferAssignment assignment = exec::PlanBuffers(requests);
  EXPECT_NE(assignment.offsets[0], assignment.offsets[1]);
  EXPECT_GE(assignment.slab_floats, 128);
}

// Same-level buffers may be written concurrently under the level-parallel
// schedule, so they must never alias even though neither is read later.
TEST(MemoryPlannerTest, SameLevelBuffersNeverAlias) {
  const std::vector<exec::BufferRequest> requests = {
      {32, 3, 3},
      {32, 3, 3},
      {32, 3, 3},
  };
  const exec::BufferAssignment assignment = exec::PlanBuffers(requests);
  std::set<int64_t> offsets(assignment.offsets.begin(),
                            assignment.offsets.end());
  EXPECT_EQ(offsets.size(), 3u);
}

TEST(MemoryPlannerTest, OffsetsRespectAlignment) {
  // Odd sizes: every assigned offset must still land on the alignment grid.
  const std::vector<exec::BufferRequest> requests = {
      {5, 1, 2}, {7, 1, 3}, {3, 2, 3}, {13, 3, 4}, {1, 4, 4},
  };
  const exec::BufferAssignment assignment = exec::PlanBuffers(requests, 16);
  for (const int64_t offset : assignment.offsets) {
    EXPECT_EQ(offset % 16, 0) << "offset " << offset;
  }
}

// A chain (each value dies as soon as the next is produced) needs only ~2
// live buffers at a time, so the slab must come out far below the sum.
TEST(MemoryPlannerTest, ChainReusesInsteadOfSummingSizes) {
  std::vector<exec::BufferRequest> requests;
  int64_t total = 0;
  for (int32_t i = 1; i <= 10; ++i) {
    requests.push_back({256, i, i + 1});
    total += 256;
  }
  const exec::BufferAssignment assignment = exec::PlanBuffers(requests);
  EXPECT_LT(assignment.slab_floats, total / 2);
  EXPECT_GE(assignment.slab_floats, 512);  // two live links minimum
}

TEST(MemoryPlannerTest, AssignmentIsDeterministic) {
  const std::vector<exec::BufferRequest> requests = {
      {100, 1, 3}, {40, 1, 2}, {60, 2, 4}, {100, 3, 5}, {8, 4, 5},
  };
  const exec::BufferAssignment a = exec::PlanBuffers(requests);
  const exec::BufferAssignment b = exec::PlanBuffers(requests);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.slab_floats, b.slab_floats);
}

// ---------------------------------------------------------------------------
// Capture + replay on an op zoo.

// Exercises every kernel the capture guard records: MatMul, broadcast and
// same-shape binary ops, unary ops, EmbeddingLookup, Softmax, dim and full
// reductions, Max, BroadcastTo, Concat, Slice, Permute, Reshape.
Tensor Zoo(const Tensor& x, const Tensor& w, const Tensor& bias,
           const Tensor& table, const std::vector<int64_t>& idx) {
  Tensor h = Relu(Add(MatMul(x, w), bias));        // [2,3,5]
  Tensor e = EmbeddingLookup(table, idx, {2, 3});  // [2,3,5]
  Tensor m = Mul(h, e);
  Tensor d = Div(Sub(h, e), AddScalar(Abs(e), 1.0f));
  Tensor s = Softmax(Add(m, d), -1);
  Tensor r = Sum(s, 1, /*keepdim=*/true);          // [2,1,5]
  Tensor b = BroadcastTo(r, {2, 3, 5});
  Tensor c = Concat({m, b}, 2);                    // [2,3,10]
  Tensor sl = Slice(c, 2, 2, 7);                   // [2,3,5]
  Tensor p = Permute(sl, {1, 0, 2});               // [3,2,5]
  Tensor mx = Max(p, 0, /*keepdim=*/false);        // [2,5]
  Tensor total = Sum(mx);                          // scalar
  Tensor scaled = MulScalar(mx, 1.25f);
  return Add(scaled, BroadcastTo(Reshape(total, {1, 1}), {2, 5}));
}

class ZooCaptureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    w_ = Tensor::Randn({4, 5}, rng);
    bias_ = Tensor::Randn({5}, rng);
    table_ = Tensor::Randn({7, 5}, rng);
    x_ = Tensor::Randn({2, 3, 4}, rng);
    idx_ = {0, 3, 6, 2, 5, 1};
  }

  // Captures the zoo with x and idx bound as per-request inputs.
  std::shared_ptr<const exec::ExecutionPlan> CapturePlan() {
    NoGradGuard no_grad;
    exec::GraphCapture capture;
    capture.BindInput("x", x_);
    capture.BindIndexInput("idx", idx_);
    Tensor out = Zoo(x_, w_, bias_, table_, idx_);
    auto plan = capture.Finish(out);
    EXPECT_NE(plan, nullptr) << capture.error();
    return plan;
  }

  std::vector<float> EagerZoo(const Tensor& x,
                              const std::vector<int64_t>& idx) const {
    NoGradGuard no_grad;
    return Zoo(x, w_, bias_, table_, idx).Data();
  }

  Tensor w_, bias_, table_, x_;
  std::vector<int64_t> idx_;
};

TEST_F(ZooCaptureTest, ReplayMatchesEagerBitwiseOnFreshInputs) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  exec::PlanExecutor executor(plan);

  Rng rng(23);
  for (int trial = 0; trial < 3; ++trial) {
    const Tensor x2 = Tensor::Randn({2, 3, 4}, rng);
    const std::vector<int64_t> idx2 = {6, 1, 4, 0, 2, 3};
    const std::vector<float> reference = EagerZoo(x2, idx2);

    for (const exec::ReplayMode mode :
         {exec::ReplayMode::kSerial, exec::ReplayMode::kLevelParallel}) {
      std::string error;
      const exec::ReplayStatus status = executor.Run(
          {{x2.Data().data(), x2.numel()}}, {&idx2}, mode, &error);
      ASSERT_EQ(status, exec::ReplayStatus::kOk) << error;
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(executor.output()[i], reference[i])
            << "trial " << trial << " element " << i;
      }
    }
  }
}

// Small levels replay inline; a level whose steps write at least
// kEwiseGrain floats is spread over the pool. Both schedules, at 1 and 4
// threads, must match eager bitwise.
TEST(LevelScheduleTest, LargeLevelsReplayInParallelBitwise) {
  const int original_threads = GetNumThreads();
  Rng rng(5);
  const Tensor x = Tensor::Randn({64, kernels::kEwiseGrain / 64}, rng);
  const auto branches = [](const Tensor& in) {
    // Three independent full-size steps share level 1.
    return Add(Add(Relu(in), Abs(in)), MulScalar(in, 2.0f));
  };
  std::shared_ptr<const exec::ExecutionPlan> plan;
  std::vector<float> reference;
  {
    NoGradGuard no_grad;
    exec::GraphCapture capture;
    capture.BindInput("x", x);
    Tensor out = branches(x);
    reference = out.Data();
    plan = capture.Finish(out);
    ASSERT_NE(plan, nullptr) << capture.error();
  }
  ASSERT_GE(plan->levels().front().second - plan->levels().front().first, 3);

  exec::PlanExecutor executor(plan);
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    for (const exec::ReplayMode mode :
         {exec::ReplayMode::kSerial, exec::ReplayMode::kLevelParallel}) {
      ASSERT_EQ(executor.Run({{x.Data().data(), x.numel()}}, {}, mode),
                exec::ReplayStatus::kOk);
      EXPECT_EQ(std::memcmp(executor.output(), reference.data(),
                            reference.size() * sizeof(float)),
                0)
          << "threads " << threads;
    }
  }
  SetNumThreads(original_threads);
}

// Without BindIndexInput the capture bakes a snapshot of the index vector;
// replay keeps using it even after the original vector mutates.
TEST_F(ZooCaptureTest, UnboundIndicesAreBakedAtCaptureTime) {
  std::vector<int64_t> idx = idx_;
  std::shared_ptr<const exec::ExecutionPlan> plan;
  {
    NoGradGuard no_grad;
    exec::GraphCapture capture;
    capture.BindInput("x", x_);
    Tensor out = Zoo(x_, w_, bias_, table_, idx);
    plan = capture.Finish(out);
    ASSERT_NE(plan, nullptr) << capture.error();
  }
  EXPECT_TRUE(plan->index_inputs().empty());
  const std::vector<float> reference = EagerZoo(x_, idx_);

  idx.assign(idx.size(), 0);  // must not affect the baked snapshot
  exec::PlanExecutor executor(plan);
  const exec::ReplayStatus status = executor.Run(
      {{x_.Data().data(), x_.numel()}}, {}, exec::ReplayMode::kSerial);
  ASSERT_EQ(status, exec::ReplayStatus::kOk);
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(executor.output()[i], reference[i]) << "element " << i;
  }
}

// Constants are read through the captured tensor handle, so in-place
// parameter updates (optimizer steps, checkpoint loads into existing
// buffers) are picked up by the very next replay.
TEST_F(ZooCaptureTest, InPlaceConstantMutationIsVisibleToReplay) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  exec::PlanExecutor executor(plan);

  w_.Data()[3] += 0.75f;
  bias_.Data()[0] -= 0.5f;
  ASSERT_TRUE(plan->ConstantsValid());

  const std::vector<float> reference = EagerZoo(x_, idx_);
  const exec::ReplayStatus status = executor.Run(
      {{x_.Data().data(), x_.numel()}}, {&idx_}, exec::ReplayMode::kSerial);
  ASSERT_EQ(status, exec::ReplayStatus::kOk);
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(executor.output()[i], reference[i]) << "element " << i;
  }
}

// Reassigned constant storage (vector reallocation) makes the plan stale:
// Run refuses with kStaleConstants instead of reading freed memory.
TEST_F(ZooCaptureTest, ReallocatedConstantStorageIsDetectedAsStale) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  exec::PlanExecutor executor(plan);

  w_.Data().reserve(w_.Data().capacity() * 4 + 64);  // forces reallocation
  EXPECT_FALSE(plan->ConstantsValid());

  std::string error;
  const exec::ReplayStatus status =
      executor.Run({{x_.Data().data(), x_.numel()}}, {&idx_},
                   exec::ReplayMode::kSerial, &error);
  EXPECT_EQ(status, exec::ReplayStatus::kStaleConstants);
  EXPECT_FALSE(error.empty());
}

TEST_F(ZooCaptureTest, MismatchedBindingsAreRejectedWithoutRunning) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  exec::PlanExecutor executor(plan);

  // Wrong input size.
  std::string error;
  EXPECT_EQ(executor.Run({{x_.Data().data(), x_.numel() - 1}}, {&idx_},
                         exec::ReplayMode::kSerial, &error),
            exec::ReplayStatus::kBindingMismatch);
  EXPECT_FALSE(error.empty());

  // Wrong index count.
  const std::vector<int64_t> short_idx = {1, 2};
  EXPECT_EQ(executor.Run({{x_.Data().data(), x_.numel()}}, {&short_idx},
                         exec::ReplayMode::kSerial),
            exec::ReplayStatus::kBindingMismatch);

  // Wrong binding count.
  EXPECT_EQ(executor.Run({}, {&idx_}, exec::ReplayMode::kSerial),
            exec::ReplayStatus::kBindingMismatch);

  // A correct call afterwards still succeeds — rejection is stateless.
  EXPECT_EQ(executor.Run({{x_.Data().data(), x_.numel()}}, {&idx_},
                         exec::ReplayMode::kSerial),
            exec::ReplayStatus::kOk);
}

// Replay must be allocation-free by construction: running under a fresh
// arena guard records zero acquires of any kind.
TEST_F(ZooCaptureTest, ReplayPerformsZeroArenaTraffic) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  exec::PlanExecutor executor(plan);

  auto arena = std::make_shared<BufferArena>();
  {
    ArenaGuard guard(arena);
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(executor.Run({{x_.Data().data(), x_.numel()}}, {&idx_},
                             exec::ReplayMode::kLevelParallel),
                exec::ReplayStatus::kOk);
    }
  }
  const BufferArenaStats stats = arena->stats();
  EXPECT_EQ(stats.fresh_allocations, 0);
  EXPECT_EQ(stats.pool_hits, 0);
  EXPECT_EQ(stats.external_adopts, 0);
}

TEST_F(ZooCaptureTest, SlabReusesBytesAcrossSlotLifetimes) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->slab_floats(), 0);
  EXPECT_LT(plan->slab_floats(), plan->total_slot_floats())
      << "a 15-step chain with short-lived intermediates must share bytes";
}

TEST_F(ZooCaptureTest, LevelScheduleIsSortedContiguousAndDependencySafe) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);

  // Steps are sorted by level and the level ranges tile [0, steps).
  int32_t next_begin = 0;
  int32_t prev_level = 0;
  for (const auto& [begin, end] : plan->levels()) {
    ASSERT_EQ(begin, next_begin);
    ASSERT_LT(begin, end);
    const int32_t level = plan->steps()[static_cast<size_t>(begin)].level;
    ASSERT_GT(level, prev_level);
    for (int32_t s = begin; s < end; ++s) {
      ASSERT_EQ(plan->steps()[static_cast<size_t>(s)].level, level);
    }
    prev_level = level;
    next_begin = end;
  }
  ASSERT_EQ(static_cast<size_t>(next_begin), plan->steps().size());

  // Every slot input was produced at a strictly earlier level.
  for (const exec::PlanStep& step : plan->steps()) {
    for (const exec::ValueRef& input : step.inputs) {
      if (input.kind != exec::ValueRef::Kind::kSlot) continue;
      const exec::SlotInfo& slot =
          plan->slots()[static_cast<size_t>(input.index)];
      EXPECT_LT(slot.def_level, step.level);
      EXPECT_GE(slot.last_use_level, step.level);
    }
  }
}

// Every step name a capture emits must be an op declared in ops.h (the
// registry completeness test parses the same header), keeping the plan
// vocabulary in sync with the dispatch surface. "SumDim" aliases the dim
// overload of Sum, which shares its declaration name.
TEST_F(ZooCaptureTest, StepNamesComeFromTheOpsHeader) {
  const std::string path =
      std::string(D2STGNN_SOURCE_DIR) + "/src/tensor/ops.h";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  const std::vector<std::string> declared =
      ParseOpsHeaderOpNames(text.str());
  ASSERT_GT(declared.size(), 30u) << "ops.h parse looks broken";
  std::set<std::string> known(declared.begin(), declared.end());
  known.insert("SumDim");

  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  ASSERT_GE(plan->steps().size(), 15u);
  for (const exec::PlanStep& step : plan->steps()) {
    EXPECT_TRUE(known.count(step.op))
        << "step name '" << step.op << "' is not declared in ops.h";
  }
}

// Every zoo-captured plan must prove race- and lifetime-sound under the
// static verifier (DESIGN.md §12) — the same analysis Warmup applies to
// session plans — with its Reshape surfacing as the copy-step advisory.
TEST_F(ZooCaptureTest, CapturedPlansPassStaticVerification) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  const exec::VerifierReport report = exec::VerifyPlan(*plan);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.HasCode(exec::DiagCode::kCopyStep)) << report.ToString();

  // The baked-indices variant verifies too (index_input = -1 everywhere).
  NoGradGuard no_grad;
  exec::GraphCapture capture;
  capture.BindInput("x", x_);
  Tensor out = Zoo(x_, w_, bias_, table_, idx_);
  auto baked = capture.Finish(out);
  ASSERT_NE(baked, nullptr) << capture.error();
  const exec::VerifierReport baked_report = exec::VerifyPlan(*baked);
  EXPECT_TRUE(baked_report.ok()) << baked_report.ToString();
}

TEST(GraphCaptureTest, StepsNotReachingTheOutputArePruned) {
  NoGradGuard no_grad;
  Rng rng(3);
  const Tensor x = Tensor::Randn({4, 4}, rng);

  exec::GraphCapture capture;
  capture.BindInput("x", x);
  Tensor kept = Relu(x);
  Tensor unused = Exp(Tanh(x));  // recorded, but dead
  (void)unused;
  auto plan = capture.Finish(kept);
  ASSERT_NE(plan, nullptr) << capture.error();

  ASSERT_EQ(plan->steps().size(), 1u);
  EXPECT_EQ(plan->steps()[0].op, "Relu");
}

TEST(GraphCaptureTest, UnsupportedOpPoisonsTheCapture) {
  NoGradGuard no_grad;
  Rng init(3);
  const Tensor x = Tensor::Randn({4, 4}, init);

  exec::GraphCapture capture;
  capture.BindInput("x", x);
  Rng dropout_rng(9);
  Tensor out = Relu(Dropout(x, 0.5f, /*training=*/true, dropout_rng));
  auto plan = capture.Finish(out);
  EXPECT_EQ(plan, nullptr);
  EXPECT_NE(capture.error().find("Dropout"), std::string::npos)
      << capture.error();
}

TEST(GraphCaptureTest, InferenceModeDropoutIsCapturable) {
  NoGradGuard no_grad;
  Rng init(3);
  const Tensor x = Tensor::Randn({4, 4}, init);

  exec::GraphCapture capture;
  capture.BindInput("x", x);
  Rng dropout_rng(9);
  // Identity in eval mode: the graph reduces to Relu(x).
  Tensor out = Relu(Dropout(x, 0.5f, /*training=*/false, dropout_rng));
  auto plan = capture.Finish(out);
  ASSERT_NE(plan, nullptr) << capture.error();
}

TEST(GraphCaptureTest, OutputNotProducedByARecordedOpFails) {
  NoGradGuard no_grad;
  Rng rng(3);
  const Tensor x = Tensor::Randn({4, 4}, rng);

  exec::GraphCapture capture;
  capture.BindInput("x", x);
  auto plan = capture.Finish(x);  // no op ever wrote x
  EXPECT_EQ(plan, nullptr);
  EXPECT_FALSE(capture.error().empty());
}

// ---------------------------------------------------------------------------
// Session-level plan serving on the paper's model.

constexpr int64_t kNodes = 6;
constexpr int64_t kInputLen = 12;

class ExecSessionTest : public ::testing::Test {
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

  // The paper's model with deterministic init: two calls with the same seed
  // build bitwise-identical parameter sets, so a plan-serving session can be
  // compared against an eager twin without a checkpoint round-trip.
  // `variant`, when given, rewrites the config (an ablation switch).
  std::unique_ptr<core::D2Stgnn> NewModel(
      uint64_t seed,
      core::D2StgnnConfig (*variant)(core::D2StgnnConfig) = nullptr) const {
    core::D2StgnnConfig config;
    config.num_nodes = kNodes;
    config.input_len = kInputLen;
    config.output_len = 3;
    config.hidden_dim = 8;
    config.embed_dim = 4;
    config.num_layers = 1;
    config.num_heads = 2;
    config.steps_per_day = traffic_.dataset.steps_per_day;
    if (variant != nullptr) config = variant(config);
    Rng rng(seed);
    return std::make_unique<core::D2Stgnn>(
        config, traffic_.dataset.network.adjacency, rng);
  }

  std::vector<infer::ForecastRequest> Requests(int64_t count) const {
    std::vector<infer::ForecastRequest> requests;
    for (int64_t i = 0; i < count; ++i) requests.push_back(MakeRequest(i * 3));
    return requests;
  }

  static void ExpectForecastsEqual(const std::vector<infer::Forecast>& a,
                                   const std::vector<infer::Forecast>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(a[i].ok) << a[i].error;
      ASSERT_TRUE(b[i].ok) << b[i].error;
      EXPECT_EQ(a[i].values, b[i].values) << "request " << i;
    }
  }

  data::SyntheticTraffic traffic_;
  data::StandardScaler scaler_;
  int original_threads_ = 0;
};

// A model configuration the parity test covers, chosen by what the folded
// diffusion convolution sees: per-sample [B, N, N] dynamic supports or
// broadcast [N, N] static ones, with or without the adaptive support, the
// auto-regressive or direct forecast branch, and a one-step window.
struct DiffusionVariant {
  const char* name;
  core::D2StgnnConfig (*apply)(core::D2StgnnConfig);
};

void PrintTo(const DiffusionVariant& variant, std::ostream* os) {
  *os << variant.name;
}

const DiffusionVariant kDiffusionVariants[] = {
    {"default", [](core::D2StgnnConfig c) { return c; }},
    {"static_graph", core::MakeStaticGraphConfig},
    {"no_adaptive",
     [](core::D2StgnnConfig c) {
       c.use_adaptive = false;
       return c;
     }},
    {"direct_forecast",
     [](core::D2StgnnConfig c) {
       c.autoregressive = false;
       return c;
     }},
    {"k_t_1",
     [](core::D2StgnnConfig c) {
       c.k_t = 1;
       return c;
     }},
};

class ExecSessionParityTest
    : public ExecSessionTest,
      public ::testing::WithParamInterface<std::tuple<DiffusionVariant, int>> {
};

// The tentpole contract on the full D2STGNN forward (diffusion block,
// inherent block, estimation gate, dynamic graph — every core block):
// plan-served forecasts are bitwise identical to eager ones, for every
// diffusion variant, at 1 and 4 threads. (Serial vs level-parallel replay
// is checked at the executor level above.)
TEST_P(ExecSessionParityTest, PlanReplayMatchesEagerBitwise) {
  const auto& [variant, threads] = GetParam();
  SetNumThreads(threads);

  infer::SessionOptions eager_options = Options();
  eager_options.use_plans = false;
  auto eager = infer::InferenceSession::Wrap(NewModel(7, variant.apply), scaler_,
                                             eager_options);
  ASSERT_NE(eager, nullptr);
  const std::vector<infer::ForecastRequest> requests = Requests(4);
  const std::vector<infer::Forecast> reference =
      eager->PredictRequests(requests);
  EXPECT_EQ(eager->session_stats().plans_built, 0);

  infer::SessionOptions plan_options = Options();
  // Every plan this test replays must first be accepted by the static
  // verifier: the bitwise-parity assertions below are then exercised only
  // on verifier-accepted plans, at 1 and 4 threads.
  plan_options.verify_plans = true;
  auto planned = infer::InferenceSession::Wrap(NewModel(7, variant.apply),
                                               scaler_, plan_options);
  ASSERT_NE(planned, nullptr);
  planned->Warmup(/*batch_size=*/4, /*runs=*/2);
  ASSERT_EQ(planned->planned_batch_sizes(), std::vector<int64_t>{4});

  const auto reports = planned->verifier_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports.at(4).ok()) << reports.at(4).ToString();

  const infer::SessionStats before = planned->session_stats();
  EXPECT_EQ(before.plans_built, 1);
  EXPECT_EQ(before.plans_verified, 1);
  EXPECT_EQ(before.plan_verifier_errors, 0);
  EXPECT_GT(before.plan_replays, 0) << "warmup runs must replay";

  const std::vector<infer::Forecast> served =
      planned->PredictRequests(requests);
  ExpectForecastsEqual(served, reference);

  const infer::SessionStats after = planned->session_stats();
  EXPECT_EQ(after.plan_replays, before.plan_replays + 1);
  EXPECT_EQ(after.eager_forwards, before.eager_forwards);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ExecSessionParityTest,
    ::testing::Combine(::testing::ValuesIn(kDiffusionVariants),
                       ::testing::Values(1, 4)));

// A batch size larger than every captured plan cannot be padded into one;
// it must fall back to the eager path and still serve correct forecasts.
TEST_F(ExecSessionTest, OversizedBatchFallsBackToEager) {
  infer::SessionOptions eager_options = Options();
  eager_options.use_plans = false;
  auto eager = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                             eager_options);
  auto planned = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                               Options());
  ASSERT_NE(eager, nullptr);
  ASSERT_NE(planned, nullptr);

  planned->Warmup(/*batch_size=*/2);
  const infer::SessionStats before = planned->session_stats();

  const std::vector<infer::ForecastRequest> requests = Requests(5);
  ExpectForecastsEqual(planned->PredictRequests(requests),
                       eager->PredictRequests(requests));

  const infer::SessionStats after = planned->session_stats();
  EXPECT_EQ(after.plan_replays, before.plan_replays);
  EXPECT_EQ(after.eager_forwards, before.eager_forwards + 1);
}

// A batch smaller than a captured plan is padded with blank requests up to
// the plan size and replayed; the padding rows never leak into results.
TEST_F(ExecSessionTest, UndersizedBatchIsPaddedIntoThePlan) {
  infer::SessionOptions eager_options = Options();
  eager_options.use_plans = false;
  auto eager = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                             eager_options);
  auto planned = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                               Options());
  ASSERT_NE(eager, nullptr);
  ASSERT_NE(planned, nullptr);

  planned->Warmup(/*batch_size=*/4);
  const infer::SessionStats before = planned->session_stats();

  const std::vector<infer::ForecastRequest> requests = Requests(3);
  ExpectForecastsEqual(planned->PredictRequests(requests),
                       eager->PredictRequests(requests));

  const infer::SessionStats after = planned->session_stats();
  EXPECT_EQ(after.plan_replays, before.plan_replays + 1);
  EXPECT_EQ(after.padded_replays, before.padded_replays + 1);
  EXPECT_EQ(after.eager_forwards, before.eager_forwards);
}

// In-place parameter mutation (what optimizers and checkpoint loads do)
// flows into replays; reassigned parameter storage invalidates the plan and
// the session transparently recovers on the eager path.
TEST_F(ExecSessionTest, ParameterMutationAndInvalidationSemantics) {
  auto model = NewModel(7);
  core::D2Stgnn* raw = model.get();
  infer::SessionOptions verify_options = Options();
  verify_options.verify_plans = true;  // so staleness must also drop reports
  auto planned = infer::InferenceSession::Wrap(std::move(model), scaler_,
                                               verify_options);
  ASSERT_NE(planned, nullptr);
  planned->Warmup(/*batch_size=*/1, /*runs=*/1);
  ASSERT_EQ(planned->verifier_reports().size(), 1u);

  infer::SessionOptions eager_options = Options();
  eager_options.use_plans = false;
  auto twin_model = NewModel(7);
  core::D2Stgnn* twin_raw = twin_model.get();
  auto eager = infer::InferenceSession::Wrap(std::move(twin_model), scaler_,
                                             eager_options);
  ASSERT_NE(eager, nullptr);

  // In-place mutation on both models: the next replay must already see it.
  raw->Parameters()[0].Data()[0] += 0.25f;
  twin_raw->Parameters()[0].Data()[0] += 0.25f;
  const infer::Forecast mutated = planned->PredictOne(MakeRequest(0));
  const infer::Forecast mutated_ref = eager->PredictOne(MakeRequest(0));
  ASSERT_TRUE(mutated.ok && mutated_ref.ok);
  EXPECT_EQ(mutated.values, mutated_ref.values);
  EXPECT_GT(planned->session_stats().plan_replays, 0);
  EXPECT_EQ(planned->session_stats().plan_invalidations, 0);

  // Storage reassignment: the stale plan is dropped, the request is served
  // eagerly, and the forecast is unchanged (reserve keeps the values).
  Tensor param = raw->Parameters()[0];
  param.Data().reserve(param.Data().capacity() * 4 + 64);
  const infer::Forecast after_realloc = planned->PredictOne(MakeRequest(0));
  ASSERT_TRUE(after_realloc.ok) << after_realloc.error;
  EXPECT_EQ(after_realloc.values, mutated_ref.values);
  EXPECT_GE(planned->session_stats().plan_invalidations, 1);
  EXPECT_TRUE(planned->planned_batch_sizes().empty());
  EXPECT_TRUE(planned->verifier_reports().empty())
      << "the staleness path must drop the verifier reports with the plans";

  // Warmup rebuilds the plan against the new storage and serving resumes.
  planned->Warmup(/*batch_size=*/1);
  const int64_t replays = planned->session_stats().plan_replays;
  const infer::Forecast rebuilt = planned->PredictOne(MakeRequest(0));
  ASSERT_TRUE(rebuilt.ok);
  EXPECT_EQ(rebuilt.values, mutated_ref.values);
  EXPECT_GT(planned->session_stats().plan_replays, replays);
}

// Warmup verification semantics: every fresh capture is verified exactly
// once, a warm cache hit does not re-verify (the report is cached with the
// plan), and a session with verification off keeps no reports.
TEST_F(ExecSessionTest, WarmupVerifiesFreshAndCacheHitPlansOnce) {
  infer::SessionOptions verify_options = Options();
  verify_options.verify_plans = true;
  auto planned = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                               verify_options);
  ASSERT_NE(planned, nullptr);

  planned->Warmup(/*batch_size=*/1);
  planned->Warmup(/*batch_size=*/2);
  infer::SessionStats stats = planned->session_stats();
  EXPECT_EQ(stats.plans_verified, 2);
  EXPECT_EQ(stats.plan_verifier_errors, 0);
  const auto reports = planned->verifier_reports();
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& [batch_size, report] : reports) {
    EXPECT_TRUE(report.ok()) << "batch " << batch_size << ":\n"
                             << report.ToString();
  }

  // Cache hit: the plan and its report already exist, nothing re-runs.
  planned->Warmup(/*batch_size=*/1);
  EXPECT_EQ(planned->session_stats().plans_verified, 2);

  infer::SessionOptions off_options = Options();
  off_options.verify_plans = false;
  auto unverified = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                                  off_options);
  ASSERT_NE(unverified, nullptr);
  unverified->Warmup(/*batch_size=*/1);
  EXPECT_EQ(unverified->session_stats().plans_verified, 0);
  EXPECT_TRUE(unverified->verifier_reports().empty());
}

// The perf acceptance floor: plan-replayed single requests are at least
// 1.3x faster than eager ones on 4 threads (BENCH_plan.json reports the
// same ratio from the standalone bench; full runs gate on it too). Medians
// over enough iterations keep this stable on loaded machines — the
// observed ratio is ~3-4x, so 1.3x leaves a wide margin.
TEST_F(ExecSessionTest, PlanReplayBeatsEagerByThirtyPercent) {
#if defined(D2STGNN_SANITIZED_BUILD) || !defined(NDEBUG)
  GTEST_SKIP() << "latency floor asserted only on un-sanitized Release";
#else
  SetNumThreads(4);
  infer::SessionOptions eager_options = Options();
  eager_options.use_plans = false;
  auto eager = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                             eager_options);
  auto planned = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                               Options());
  ASSERT_NE(eager, nullptr);
  ASSERT_NE(planned, nullptr);
  planned->Warmup(/*batch_size=*/1, /*runs=*/3);

  const auto median_ms = [&](infer::InferenceSession& session) {
    using clock = std::chrono::steady_clock;
    const infer::ForecastRequest request = MakeRequest(0);
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(session.PredictOne(request).ok);
    std::vector<double> latencies;
    for (int i = 0; i < 80; ++i) {
      const auto start = clock::now();
      const infer::Forecast f = session.PredictOne(request);
      EXPECT_TRUE(f.ok) << f.error;
      latencies.push_back(
          std::chrono::duration<double, std::milli>(clock::now() - start)
              .count());
    }
    return metrics::SummarizeLatencies(latencies).p50;
  };

  const double eager_p50 = median_ms(*eager);
  const double plan_p50 = median_ms(*planned);
  ASSERT_GT(planned->session_stats().plan_replays, 0);
  EXPECT_GE(eager_p50 / plan_p50, 1.3)
      << "plan p50 " << plan_p50 << " ms vs eager p50 " << eager_p50
      << " ms";
#endif
}

TEST_F(ExecSessionTest, InvalidatePlansDropsEveryPlan) {
  infer::SessionOptions verify_options = Options();
  verify_options.verify_plans = true;
  auto planned = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                               verify_options);
  ASSERT_NE(planned, nullptr);
  planned->Warmup(1);
  planned->Warmup(4);
  ASSERT_EQ(planned->planned_batch_sizes().size(), 2u);
  ASSERT_EQ(planned->verifier_reports().size(), 2u);

  planned->InvalidatePlans();
  EXPECT_TRUE(planned->planned_batch_sizes().empty());
  EXPECT_TRUE(planned->verifier_reports().empty());
  EXPECT_GE(planned->session_stats().plan_invalidations, 2);

  const int64_t eager_before = planned->session_stats().eager_forwards;
  EXPECT_TRUE(planned->PredictOne(MakeRequest(0)).ok);
  EXPECT_EQ(planned->session_stats().eager_forwards, eager_before + 1);
}

}  // namespace
}  // namespace d2stgnn
