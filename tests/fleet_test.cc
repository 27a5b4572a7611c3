// Tests of the multi-model fleet: the FleetArbiter's quota and
// weighted-fair dispatch policy (pure, clockless), the ModelFleet registry,
// and the FleetServer end to end — per-model bitwise routing, typed quota
// rejections under contention, SLO-class shedding at the worst tier, two
// models hot-reloading concurrently under traffic, and stats consistency
// under racing submitters (the TSan targets of scripts/ci.sh).

#include "infer/fleet/fleet.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "data/sliding_window.h"
#include "data/synthetic_traffic.h"
#include "infer/fleet/fleet_server.h"
#include "infer/hot_reload.h"
#include "infer/retry.h"
#include "nn/linear.h"
#include "train/checkpoint.h"
#include "train/forecasting_model.h"

namespace d2stgnn {
namespace {

using ::testing::AnyOf;

// ---------------------------------------------------------------------------
// FleetArbiter: the pure arbitration policy.

TEST(FleetArbiterTest, QuotaIsWeightedShareAndArmsAtWatermark) {
  infer::FleetArbiter arbiter(/*shared_capacity=*/64,
                              /*arbitration_watermark=*/0.5);
  arbiter.AddLane("gold", /*priority=*/0, /*weight=*/4.0);
  arbiter.AddLane("silver", /*priority=*/1, /*weight=*/2.0);
  arbiter.AddLane("bronze", /*priority=*/2, /*weight=*/1.0);

  EXPECT_FALSE(arbiter.QuotaArmed(31));
  EXPECT_TRUE(arbiter.QuotaArmed(32));  // watermark * capacity
  EXPECT_TRUE(arbiter.QuotaArmed(64));

  EXPECT_EQ(arbiter.Quota("gold"), 64 * 4 / 7);
  EXPECT_EQ(arbiter.Quota("silver"), 64 * 2 / 7);
  EXPECT_EQ(arbiter.Quota("bronze"), 64 * 1 / 7);
  EXPECT_EQ(arbiter.Quota("unknown"), 0);
}

TEST(FleetArbiterTest, ExplicitQueueShareOverridesWeight) {
  infer::FleetArbiter arbiter(64, 0.5);
  arbiter.AddLane("a", 0, /*weight=*/1.0, /*queue_share=*/0.25);
  arbiter.AddLane("b", 0, /*weight=*/1.0);
  EXPECT_EQ(arbiter.Quota("a"), 16);  // 0.25 * 64, not the weight share
  EXPECT_EQ(arbiter.Quota("b"), 32);  // weight 1 of 2
}

TEST(FleetArbiterTest, UnboundedCapacityDisablesQuotas) {
  infer::FleetArbiter arbiter(/*shared_capacity=*/0, 0.5);
  arbiter.AddLane("a", 0, 1.0);
  EXPECT_FALSE(arbiter.QuotaArmed(1 << 20));
  EXPECT_GT(arbiter.Quota("a"), int64_t{1} << 60);
  // A tiny share still admits at least one request.
  infer::FleetArbiter small(/*shared_capacity=*/4, 0.5);
  small.AddLane("sliver", 0, 1.0, /*queue_share=*/0.01);
  EXPECT_EQ(small.Quota("sliver"), 1);
}

TEST(FleetArbiterTest, PickPrefersStrictPriorityThenWeightedFairness) {
  infer::FleetArbiter arbiter(64, 0.5);
  arbiter.AddLane("gold", 0, 4.0);
  arbiter.AddLane("x", 1, 2.0);
  arbiter.AddLane("y", 1, 1.0);

  // Strict priority: gold wins whenever it is ready.
  EXPECT_EQ(arbiter.Pick({"y", "x", "gold"}), "gold");
  EXPECT_EQ(arbiter.Pick({}), "");

  // Among equal priorities, dispatches split by weight: x (weight 2) gets
  // twice the batches of y (weight 1). Deterministic — count 30 rounds.
  std::map<std::string, int> dispatched;
  for (int i = 0; i < 30; ++i) {
    const std::string pick = arbiter.Pick({"x", "y"});
    ASSERT_THAT(pick, AnyOf("x", "y"));
    arbiter.Account(pick, /*batch_size=*/4);
    ++dispatched[pick];
  }
  EXPECT_EQ(dispatched["x"], 20);
  EXPECT_EQ(dispatched["y"], 10);
}

TEST(FleetArbiterTest, IdleLaneReentersAtFloorWithoutMonopolizing) {
  infer::FleetArbiter arbiter(64, 0.5);
  arbiter.AddLane("p", 0, 1.0);
  arbiter.AddLane("q", 0, 1.0);

  // q dispatches alone for a while; p is idle and accrues no credit.
  for (int i = 0; i < 5; ++i) arbiter.Account("q", 8);

  // When p wakes it is served next (it re-enters at the floor, below q's
  // virtual time) but it cannot cash in the idle time as banked credit:
  // from then on the two lanes near-alternate (p stays one ahead only via
  // the deterministic smaller-id tie-break, 6:4 over ten rounds).
  EXPECT_EQ(arbiter.Pick({"p", "q"}), "p");
  std::map<std::string, int> dispatched;
  for (int i = 0; i < 10; ++i) {
    const std::string pick = arbiter.Pick({"p", "q"});
    arbiter.Account(pick, 8);
    ++dispatched[pick];
  }
  EXPECT_EQ(dispatched["p"], 6);
  EXPECT_EQ(dispatched["q"], 4);
}

TEST(FleetSloClassTest, BuiltinsResolveByName) {
  EXPECT_EQ(infer::BuiltinSloClasses().size(), 3u);
  infer::SloClass slo;
  ASSERT_TRUE(infer::ResolveSloClass("gold", &slo));
  EXPECT_EQ(slo.priority, 0);
  EXPECT_EQ(slo.target_p99_ms, 50);
  EXPECT_EQ(slo.weight, 4.0);
  ASSERT_TRUE(infer::ResolveSloClass("bronze", &slo));
  EXPECT_EQ(slo.priority, 2);
  EXPECT_FALSE(infer::ResolveSloClass("platinum", &slo));
}

// ---------------------------------------------------------------------------
// FleetServer end to end, over the tiny batch-independent model of
// infer_server_test.cc (linear readout of the last frame, so bitwise
// comparisons across servers hold).

class TinyModel : public train::ForecastingModel {
 public:
  TinyModel(int64_t num_nodes, int64_t horizon, Rng& rng)
      : ForecastingModel("tiny"),
        num_nodes_(num_nodes),
        horizon_(horizon),
        proj_(data::kInputFeatures, horizon, rng) {
    RegisterChild(&proj_);
  }

  Tensor Forward(const data::Batch& batch) override {
    const int64_t b = batch.batch_size;
    const Tensor last = Reshape(
        Slice(batch.x, 1, batch.input_len - 1, batch.input_len),
        {b, num_nodes_, data::kInputFeatures});
    Tensor out = proj_.Forward(last);
    out = Permute(out, {0, 2, 1});
    return Reshape(out, {b, horizon_, num_nodes_, 1});
  }

  int64_t horizon() const override { return horizon_; }

 private:
  int64_t num_nodes_;
  int64_t horizon_;
  nn::Linear proj_;
};

constexpr int64_t kNodes = 6;
constexpr int64_t kInputLen = 12;
constexpr int64_t kHorizon = 12;

class FleetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticTrafficOptions options;
    options.network.num_nodes = kNodes;
    options.num_steps = 600;
    options.seed = 31;
    traffic_ = data::GenerateSyntheticTraffic(options);
    scaler_.Fit(traffic_.dataset.values, 400, true);

    watch_dir_ = ::testing::TempDir() + "/fleet_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name();
    std::filesystem::remove_all(watch_dir_);
    std::filesystem::create_directories(watch_dir_);
  }

  void TearDown() override {
    fault::DisarmAllFaultPoints();
    std::filesystem::remove_all(watch_dir_);
  }

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

  std::unique_ptr<TinyModel> NewTinyModel(uint64_t seed) const {
    Rng rng(seed);
    return std::make_unique<TinyModel>(kNodes, kHorizon, rng);
  }

  std::shared_ptr<infer::InferenceSession> NewSession(uint64_t seed) const {
    std::shared_ptr<infer::InferenceSession> session(
        infer::InferenceSession::Wrap(NewTinyModel(seed), scaler_, Options())
            .release());
    EXPECT_NE(session, nullptr);
    return session;
  }

  /// What a seed-`seed` model answers for MakeRequest(start), standalone.
  std::vector<float> Reference(uint64_t seed, int64_t start) const {
    auto session =
        infer::InferenceSession::Wrap(NewTinyModel(seed), scaler_, Options());
    EXPECT_NE(session, nullptr);
    const infer::Forecast f = session->PredictOne(MakeRequest(start));
    EXPECT_TRUE(f.ok) << f.error;
    return f.values;
  }

  /// Registers `id` with the given seed and a custom SLO (no target p99,
  /// so flush timers are exactly max_wait_us).
  void AddModel(infer::ModelFleet* fleet, const std::string& id,
                uint64_t seed, int64_t priority, double weight,
                int64_t max_wait_us = 500, int64_t max_batch_size = 4) {
    infer::FleetModelOptions options;
    options.model_id = id;
    options.slo.name = "custom-" + id;
    options.slo.priority = priority;
    options.slo.weight = weight;
    options.max_batch_size = max_batch_size;
    options.max_wait_us = max_wait_us;
    std::string error;
    ASSERT_TRUE(fleet->AddModel(NewSession(seed), options, &error)) << error;
  }

  data::SyntheticTraffic traffic_;
  data::StandardScaler scaler_;
  std::string watch_dir_;
};

TEST_F(FleetServerTest, RegistryValidatesModels) {
  infer::ModelFleet fleet;
  std::string error;
  EXPECT_FALSE(fleet.AddModel(nullptr, infer::FleetModelOptions{}, &error));
  EXPECT_NE(error.find("null session"), std::string::npos);

  infer::FleetModelOptions options;
  options.model_id = "";
  EXPECT_FALSE(fleet.AddModel(NewSession(5), options, &error));
  EXPECT_NE(error.find("empty model_id"), std::string::npos);

  options.model_id = "a";
  options.max_batch_size = 0;
  EXPECT_FALSE(fleet.AddModel(NewSession(5), options, &error));
  EXPECT_NE(error.find("max_batch_size"), std::string::npos);

  options.max_batch_size = 4;
  options.queue_share = 1.5;
  EXPECT_FALSE(fleet.AddModel(NewSession(5), options, &error));
  EXPECT_NE(error.find("queue_share"), std::string::npos);

  options.queue_share = 0.0;
  ASSERT_TRUE(fleet.AddModel(NewSession(5), options, &error)) << error;
  EXPECT_FALSE(fleet.AddModel(NewSession(7), options, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);

  EXPECT_EQ(fleet.size(), 1u);
  EXPECT_EQ(fleet.model_ids(), std::vector<std::string>{"a"});
  EXPECT_NE(fleet.session("a"), nullptr);
  EXPECT_EQ(fleet.session("nope"), nullptr);
  ASSERT_NE(fleet.model_options("a"), nullptr);
  EXPECT_EQ(fleet.model_options("a")->max_batch_size, 4);
}

TEST_F(FleetServerTest, RoutesEachModelToItsOwnWeightsBitwise) {
  infer::ModelFleet fleet;
  AddModel(&fleet, "city-a", /*seed=*/5, /*priority=*/0, /*weight=*/4.0);
  AddModel(&fleet, "city-b", /*seed=*/11, /*priority=*/2, /*weight=*/1.0);
  infer::FleetServer server(&fleet, infer::FleetOptions{});

  const std::vector<float> ref_a = Reference(5, 3);
  const std::vector<float> ref_b = Reference(11, 3);
  ASSERT_NE(ref_a, ref_b);

  infer::Forecast a = server.Submit("city-a", MakeRequest(3)).get();
  infer::Forecast b = server.Submit("city-b", MakeRequest(3)).get();
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.values, ref_a);  // bitwise: arbitration never changes math
  EXPECT_EQ(b.values, ref_b);

  // Unknown ids are typed rejections, counted fleet-wide.
  infer::Forecast unknown = server.Submit("city-z", MakeRequest(3)).get();
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.reason, infer::RejectReason::kBadRequest);
  const infer::FleetStats stats = server.stats();
  EXPECT_EQ(stats.rejected_unknown_model, 1);
  EXPECT_EQ(stats.models.at("city-a").completed, 1);
  EXPECT_EQ(stats.models.at("city-b").completed, 1);

  server.Shutdown();
  infer::Forecast late = server.Submit("city-a", MakeRequest(3)).get();
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.reason, infer::RejectReason::kShuttingDown);
}

TEST_F(FleetServerTest, QuotaRejectsOverSubscribedTenantTyped) {
  infer::ModelFleet fleet;
  // Long coalescing windows and roomy batches keep every submission queued
  // (no full-batch flush) while we probe the quota path.
  AddModel(&fleet, "gold", 5, 0, 4.0, /*max_wait_us=*/200000,
           /*max_batch_size=*/8);
  AddModel(&fleet, "bronze", 11, 2, 1.0, /*max_wait_us=*/200000,
           /*max_batch_size=*/8);
  infer::FleetOptions options;
  options.max_queue_depth = 8;  // quotas arm at 4; bronze's share is 1
  infer::FleetServer server(&fleet, options);

  // Fill the shared queue past the arbitration watermark with gold traffic
  // (gold's quota is 8*4/5 = 6, so these are all admitted).
  std::vector<std::future<infer::Forecast>> pending;
  for (int i = 0; i < 4; ++i) {
    pending.push_back(server.Submit("gold", MakeRequest(i)));
  }

  // Bronze may use its own share (one slot)...
  pending.push_back(server.Submit("bronze", MakeRequest(0)));
  // ...but the next bronze request is over quota: a typed, retryable
  // rejection with a backoff hint, not a starved gold tenant.
  infer::Forecast over = server.Submit("bronze", MakeRequest(1)).get();
  EXPECT_FALSE(over.ok);
  EXPECT_EQ(over.reason, infer::RejectReason::kQuotaExceeded);
  EXPECT_TRUE(infer::IsRetryableReject(over.reason));
  EXPECT_GT(over.retry_after_us, 0);

  server.Shutdown(/*drain=*/true);  // everything queued still completes
  for (std::future<infer::Forecast>& f : pending) {
    const infer::Forecast forecast = f.get();
    EXPECT_TRUE(forecast.ok) << forecast.error;
  }
  const infer::FleetStats stats = server.stats();
  EXPECT_EQ(stats.models.at("bronze").rejected_quota, 1);
  EXPECT_EQ(stats.models.at("gold").rejected_quota, 0);
  EXPECT_EQ(stats.completed, 5);
}

// The invariant the one-lane BatchingServer facade rests on: a lone lane's
// quota is the whole shared queue, so once quotas arm (past the
// arbitration watermark) a full queue still rejects as kQueueFull and the
// quota path never fires.
TEST_F(FleetServerTest, OneLaneQueueFullNeverBecomesQuotaExceeded) {
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  script.repeat = true;
  fault::ArmFaultPoint("infer.slow_consumer", script);  // 20ms per batch

  infer::ModelFleet fleet;
  AddModel(&fleet, "solo", 5, 0, 1.0, /*max_wait_us=*/0,
           /*max_batch_size=*/1);
  infer::FleetOptions options;
  options.max_queue_depth = 2;  // quotas arm at depth 1
  infer::FleetServer server(&fleet, options);

  std::vector<std::future<infer::Forecast>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(server.Submit("solo", MakeRequest(i)));
  }
  int64_t served = 0;
  int64_t rejected = 0;
  for (std::future<infer::Forecast>& f : futures) {
    const infer::Forecast forecast = f.get();
    if (forecast.ok) {
      ++served;
      continue;
    }
    EXPECT_EQ(forecast.reason, infer::RejectReason::kQueueFull)
        << forecast.error;
    EXPECT_THAT(forecast.error, ::testing::HasSubstr("depth 2/2"));
    // One lane: the message carries no model id.
    EXPECT_THAT(forecast.error, ::testing::Not(::testing::HasSubstr("solo")));
    ++rejected;
  }
  EXPECT_GE(rejected, 1) << "a 20ms/request consumer never filled the queue";
  server.Shutdown();

  const infer::FleetStats stats = server.stats();
  const infer::FleetModelStats& solo = stats.models.at("solo");
  EXPECT_EQ(solo.rejected_quota, 0);
  EXPECT_EQ(solo.rejected_queue_full, rejected);
  EXPECT_EQ(solo.rejected, rejected);
  EXPECT_EQ(solo.completed, served);
  EXPECT_EQ(solo.max_queue_depth_seen, 2);
}

TEST_F(FleetServerTest, SheddingTierRefusesOnlyWorstSloClass) {
  infer::ModelFleet fleet;
  AddModel(&fleet, "gold", 5, 0, 4.0);
  AddModel(&fleet, "bronze", 11, 2, 1.0);
  infer::FleetOptions options;
  options.max_queue_depth = 64;
  options.degrade.recover_ticks = 1000;  // pin the forced tier for the test
  infer::FleetServer server(&fleet, options);

  // Force the harshest tier through the scripted chaos seam.
  fault::FaultScript script;
  script.kind = fault::FaultKind::kErrno;
  fault::ArmFaultPoint("server.degrade", script);

  // The first submission consumes the fault (tier -> kShedding) but is
  // gold, the best class: admitted. Bronze — the single worst class — is
  // refused while gold keeps serving.
  infer::Forecast gold = server.Submit("gold", MakeRequest(0)).get();
  ASSERT_TRUE(gold.ok) << gold.error;
  infer::Forecast bronze = server.Submit("bronze", MakeRequest(0)).get();
  EXPECT_FALSE(bronze.ok);
  EXPECT_EQ(bronze.reason, infer::RejectReason::kShedLowPriority);
  infer::Forecast gold2 = server.Submit("gold", MakeRequest(1)).get();
  EXPECT_TRUE(gold2.ok) << gold2.error;

  const infer::FleetStats stats = server.stats();
  EXPECT_EQ(stats.tier, infer::OverloadTier::kShedding);
  EXPECT_EQ(stats.models.at("bronze").rejected_low_priority, 1);
  EXPECT_EQ(stats.models.at("gold").rejected, 0);
}

TEST_F(FleetServerTest, TwoModelsHotReloadConcurrentlyUnderTraffic) {
  infer::ModelFleet fleet;
  AddModel(&fleet, "a", 5, 0, 4.0);
  AddModel(&fleet, "b", 7, 1, 2.0);
  AddModel(&fleet, "c", 9, 2, 1.0);  // no reloader: must never swap
  infer::FleetServer server(&fleet, infer::FleetOptions{});

  const std::string dir_a = watch_dir_ + "/a";
  const std::string dir_b = watch_dir_ + "/b";
  std::filesystem::create_directories(dir_a);
  std::filesystem::create_directories(dir_b);
  infer::HotReloadOptions reload_a;
  reload_a.directory = dir_a;
  reload_a.poll_interval_ms = 10;
  infer::HotReloadOptions reload_b = reload_a;
  reload_b.directory = dir_b;
  const auto factory = [this] { return NewTinyModel(99); };
  infer::CheckpointReloader reloader_a(server.host("a"), factory, scaler_,
                                       Options(), reload_a);
  infer::CheckpointReloader reloader_b(server.host("b"), factory, scaler_,
                                       Options(), reload_b);
  reloader_a.Start();
  reloader_b.Start();

  // Traffic hammers all three lanes while both checkpoints stage and swap.
  std::atomic<bool> stop{false};
  std::vector<std::thread> traffic;
  for (const std::string id : {"a", "b", "c"}) {
    traffic.emplace_back([&, id] {
      int64_t start = 0;
      while (!stop.load()) {
        infer::Forecast f =
            server.Submit(id, MakeRequest(start++ % 16)).get();
        ASSERT_TRUE(f.ok) << id << ": " << f.error;
      }
    });
  }

  ASSERT_TRUE(train::SaveCheckpoint(
      *NewTinyModel(21), train::CheckpointPathForStep(dir_a, 1)));
  ASSERT_TRUE(train::SaveCheckpoint(
      *NewTinyModel(22), train::CheckpointPathForStep(dir_b, 1)));

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
  while ((reloader_a.stats().swaps == 0 || reloader_b.stats().swaps == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& t : traffic) t.join();
  reloader_a.Stop();
  reloader_b.Stop();
  ASSERT_EQ(reloader_a.stats().swaps, 1);
  ASSERT_EQ(reloader_b.stats().swaps, 1);

  // Post-swap, each lane serves its own staged weights bitwise; the lane
  // without a reloader still serves its boot weights.
  infer::Forecast a = server.Submit("a", MakeRequest(3)).get();
  infer::Forecast b = server.Submit("b", MakeRequest(3)).get();
  infer::Forecast c = server.Submit("c", MakeRequest(3)).get();
  ASSERT_TRUE(a.ok && b.ok && c.ok);
  EXPECT_EQ(a.values, Reference(21, 3));
  EXPECT_EQ(b.values, Reference(22, 3));
  EXPECT_EQ(c.values, Reference(9, 3));

  const infer::FleetStats stats = server.stats();
  EXPECT_EQ(stats.models.at("a").session_swaps, 1);
  EXPECT_EQ(stats.models.at("b").session_swaps, 1);
  EXPECT_EQ(stats.models.at("c").session_swaps, 0);
  EXPECT_EQ(stats.session_swaps, 2);
}

TEST_F(FleetServerTest, StatsStayConsistentUnderRacingSubmitters) {
  infer::ModelFleet fleet;
  AddModel(&fleet, "a", 5, 0, 4.0);
  AddModel(&fleet, "b", 11, 2, 1.0);
  infer::FleetServer server(&fleet, infer::FleetOptions{});

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> submitters;
  std::atomic<int64_t> completed{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string id = (t + i) % 2 == 0 ? "a" : "b";
        infer::Forecast f = server.Submit(id, MakeRequest(i % 16)).get();
        ASSERT_TRUE(f.ok) << f.error;
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  server.Shutdown(/*drain=*/true);

  const infer::FleetStats stats = server.stats();
  EXPECT_EQ(completed.load(), kThreads * kPerThread);
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.completed, kThreads * kPerThread);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.cancelled, 0);
  int64_t batches = 0;
  for (const auto& [id, model] : stats.models) {
    // Every accepted request is accounted exactly once.
    EXPECT_EQ(model.submitted, model.completed + model.rejected +
                                   model.cancelled + model.expired_deadlines)
        << id;
    // Every batch flush has exactly one recorded cause.
    EXPECT_EQ(model.batches, model.full_flushes + model.timeout_flushes +
                                 model.shutdown_flushes)
        << id;
    EXPECT_EQ(model.queue_depth, 0) << id;
    batches += model.batches;
  }
  EXPECT_EQ(stats.batches, batches);
  EXPECT_EQ(stats.models.at("a").submitted + stats.models.at("b").submitted,
            kThreads * kPerThread);
}

TEST_F(FleetServerTest, SubmitWithRetryRidesOutQuotaRejection) {
  infer::ModelFleet fleet;
  AddModel(&fleet, "gold", 5, 0, 4.0, /*max_wait_us=*/20000,
           /*max_batch_size=*/8);
  AddModel(&fleet, "bronze", 11, 2, 1.0, /*max_wait_us=*/20000,
           /*max_batch_size=*/8);
  infer::FleetOptions options;
  options.max_queue_depth = 8;
  infer::FleetServer server(&fleet, options);

  // Hold the queue over the watermark, over-subscribe bronze, then let the
  // retry loop win once the window flushes and the queue drains.
  std::vector<std::future<infer::Forecast>> pending;
  for (int i = 0; i < 4; ++i) {
    pending.push_back(server.Submit("gold", MakeRequest(i)));
  }
  pending.push_back(server.Submit("bronze", MakeRequest(0)));

  infer::RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff_us = 2000;
  policy.jitter_seed = 7;
  const infer::RetryResult result =
      infer::SubmitWithRetry(&server, "bronze", MakeRequest(1), policy);
  EXPECT_TRUE(result.forecast.ok) << result.forecast.error;
  EXPECT_EQ(result.forecast.values, Reference(11, 1));
  for (std::future<infer::Forecast>& f : pending) {
    EXPECT_TRUE(f.get().ok);
  }
  server.Shutdown();
}

}  // namespace
}  // namespace d2stgnn
