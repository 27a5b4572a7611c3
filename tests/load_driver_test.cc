// Tests of the open-loop load driver (src/experiment/load_driver.h) with
// fake submit callbacks that resolve at once — no server, no model — so
// they check the driver's bookkeeping, not serving: one sample per
// submission, window indices in range, typed rejections preserved, each
// stream's callback and sequence numbers kept to that stream, and an early
// stop from the tick callback.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <vector>

#include "experiment/load_driver.h"

namespace d2stgnn::experiment {
namespace {

std::future<infer::Forecast> Resolved(infer::RejectReason reason) {
  infer::Forecast forecast;
  forecast.ok = reason == infer::RejectReason::kNone;
  forecast.reason = reason;
  std::promise<infer::Forecast> promise;
  promise.set_value(forecast);
  return promise.get_future();
}

TEST(LoadDriverTest, EverySubmissionYieldsExactlyOneSampleInRange) {
  constexpr int64_t kWindows = 4;
  std::vector<std::atomic<int64_t>> calls(3);
  std::vector<std::vector<int64_t>> seqs(3);  // each written by one producer
  std::vector<LoadStream> streams(3);
  for (size_t i = 0; i < streams.size(); ++i) {
    streams[i].rate_rps = 400.0;
    streams[i].submit = [&, i](int64_t seq) {
      calls[i].fetch_add(1);
      seqs[i].push_back(seq);
      return Resolved(infer::RejectReason::kNone);
    };
  }
  OpenLoopOptions options;
  options.windows = kWindows;
  options.window_s = 0.05;
  const auto samples = RunOpenLoop(streams, options);

  ASSERT_EQ(samples.size(), streams.size());
  int64_t total = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(static_cast<int64_t>(samples[i].size()), calls[i].load());
    total += calls[i].load();
    for (size_t k = 0; k < seqs[i].size(); ++k) {
      EXPECT_EQ(seqs[i][k], static_cast<int64_t>(k));
    }
    int64_t last_window = 0;
    for (const LoadSample& sample : samples[i]) {
      EXPECT_GE(sample.window, 0);
      EXPECT_LT(sample.window, kWindows);
      EXPECT_GE(sample.window, last_window);  // submission order
      last_window = sample.window;
      EXPECT_TRUE(sample.ok);
      EXPECT_GE(sample.latency_ms, 0.0);
    }
  }
  EXPECT_GT(total, 0);
  int64_t tallied = 0;
  for (const auto& stream : samples) {
    for (const WindowTally& tally : TallyWindows(stream, kWindows)) {
      tallied += tally.offered;
      EXPECT_EQ(tally.completed, tally.offered);
    }
  }
  EXPECT_EQ(tallied, total);
}

TEST(LoadDriverTest, RejectionsKeepTheirReason) {
  const infer::RejectReason cycle[] = {
      infer::RejectReason::kNone, infer::RejectReason::kQueueFull,
      infer::RejectReason::kDeadlineExceeded,
      infer::RejectReason::kShedLowPriority,
      infer::RejectReason::kQuotaExceeded};
  const auto reason_of = [&](int64_t seq) { return cycle[seq % 5]; };
  std::vector<LoadStream> streams(1);
  streams[0].rate_rps = 500.0;
  streams[0].submit = [&](int64_t seq) { return Resolved(reason_of(seq)); };
  OpenLoopOptions options;
  options.window_s = 0.1;
  const auto samples = RunOpenLoop(streams, options);

  ASSERT_EQ(samples.size(), 1u);
  ASSERT_GE(samples[0].size(), 5u);
  int64_t ok = 0, expired = 0, shed = 0;
  for (size_t k = 0; k < samples[0].size(); ++k) {
    const LoadSample& sample = samples[0][k];
    const infer::RejectReason want = reason_of(static_cast<int64_t>(k));
    EXPECT_EQ(sample.reason, want) << "submission " << k;
    EXPECT_EQ(sample.ok, want == infer::RejectReason::kNone);
    if (want == infer::RejectReason::kNone) {
      ++ok;
    } else if (want == infer::RejectReason::kDeadlineExceeded) {
      ++expired;
    } else {
      ++shed;
    }
  }
  const WindowTally tally = TallyWindows(samples[0], 1)[0];
  EXPECT_EQ(tally.completed, ok);
  EXPECT_EQ(tally.expired, expired);
  EXPECT_EQ(tally.shed, shed);
  EXPECT_EQ(static_cast<int64_t>(tally.latencies_ms.size()), ok);
}

TEST(LoadDriverTest, StreamsKeepTheirOwnCallbacksAndRates) {
  // Every stream calls only its own callback, at its own rate.
  std::atomic<int64_t> fast{0}, slow{0};
  std::vector<LoadStream> streams(2);
  streams[0].rate_rps = 400.0;
  streams[0].submit = [&](int64_t) {
    fast.fetch_add(1);
    return Resolved(infer::RejectReason::kNone);
  };
  streams[1].rate_rps = 40.0;
  streams[1].submit = [&](int64_t) {
    slow.fetch_add(1);
    return Resolved(infer::RejectReason::kQueueFull);
  };
  OpenLoopOptions options;
  options.window_s = 0.2;
  const auto samples = RunOpenLoop(streams, options);

  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(static_cast<int64_t>(samples[0].size()), fast.load());
  EXPECT_EQ(static_cast<int64_t>(samples[1].size()), slow.load());
  EXPECT_GT(fast.load(), slow.load());
  EXPECT_GE(slow.load(), 1);
  for (const LoadSample& sample : samples[0]) EXPECT_TRUE(sample.ok);
  for (const LoadSample& sample : samples[1]) {
    EXPECT_EQ(sample.reason, infer::RejectReason::kQueueFull);
  }
  EXPECT_TRUE(RunOpenLoop({}, options).empty());
}

TEST(LoadDriverTest, TickRunsToTheEndAndCanStopTheRunEarly) {
  std::vector<LoadStream> streams(1);
  streams[0].rate_rps = 100.0;
  streams[0].submit = [](int64_t) {
    return Resolved(infer::RejectReason::kNone);
  };
  OpenLoopOptions options;
  options.window_s = 0.05;
  std::vector<double> ticks;
  options.on_tick = [&](double elapsed_s) {
    ticks.push_back(elapsed_s);
    return true;
  };
  RunOpenLoop(streams, options);
  ASSERT_GE(ticks.size(), 2u);
  EXPECT_GE(ticks.back(), options.window_s);  // the final, post-run tick

  // A tick returning false ends a 60 s run at once.
  options.window_s = 60.0;
  options.on_tick = [](double) { return false; };
  const auto start = std::chrono::steady_clock::now();
  RunOpenLoop(streams, options);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            10.0);
}

}  // namespace
}  // namespace d2stgnn::experiment
