#include "experiment/load_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>

#include "common/check.h"
#include "train/checkpoint.h"

namespace d2stgnn::experiment {

std::vector<std::vector<LoadSample>> RunOpenLoop(
    const std::vector<LoadStream>& streams, const OpenLoopOptions& options) {
  using clock = std::chrono::steady_clock;
  struct InFlight {
    std::future<infer::Forecast> future;
    clock::time_point submitted;
    int64_t window = 0;
  };
  // Each producer hands its in-flight futures to a paired harvester that
  // resolves them in submission order, so latency is stamped when a
  // forecast arrives, not when a post-run sweep gets around to it.
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<InFlight> pending;
    bool done = false;
  };

  D2_CHECK(options.windows >= 1 && options.window_s > 0.0);
  for (const LoadStream& stream : streams) D2_CHECK(stream.rate_rps > 0.0);
  const size_t n = streams.size();
  std::vector<Lane> lanes(n);
  std::vector<std::vector<LoadSample>> samples(n);
  std::atomic<bool> stop{false};
  const std::chrono::duration<double> window(options.window_s);
  const auto start = clock::now();
  const auto end = start + std::chrono::duration_cast<clock::duration>(
                               window * static_cast<double>(options.windows));
  const auto elapsed_s = [start] {
    return std::chrono::duration<double>(clock::now() - start).count();
  };

  std::vector<std::thread> workers;
  for (size_t i = 0; i < n; ++i) {
    const auto period = std::chrono::duration_cast<clock::duration>(
        std::chrono::duration<double>(1.0 / streams[i].rate_rps));
    workers.emplace_back([&, i, period] {
      Lane& lane = lanes[i];
      auto next = start + period * static_cast<int64_t>(i) /
                              static_cast<int64_t>(n);
      for (int64_t seq = 0; next < end && !stop.load(); ++seq) {
        std::this_thread::sleep_until(next);
        const auto now = clock::now();
        if (now >= end) break;
        InFlight entry;
        entry.submitted = now;
        entry.window = std::min<int64_t>(
            options.windows - 1,
            static_cast<int64_t>((now - start) / window));
        entry.future = streams[i].submit(seq);
        {
          std::lock_guard<std::mutex> hold(lane.mu);
          lane.pending.push_back(std::move(entry));
        }
        lane.cv.notify_one();
        next += period;  // open loop: the schedule never waits on results
      }
      {
        std::lock_guard<std::mutex> hold(lane.mu);
        lane.done = true;
      }
      lane.cv.notify_one();
    });
    workers.emplace_back([&, i] {
      Lane& lane = lanes[i];
      for (;;) {
        InFlight entry;
        {
          std::unique_lock<std::mutex> hold(lane.mu);
          lane.cv.wait(hold,
                       [&lane] { return lane.done || !lane.pending.empty(); });
          if (lane.pending.empty()) return;  // done and drained
          entry = std::move(lane.pending.front());
          lane.pending.pop_front();
        }
        const infer::Forecast forecast = entry.future.get();
        samples[i].push_back(
            {entry.window, forecast.ok, forecast.reason,
             std::chrono::duration<double, std::milli>(clock::now() -
                                                       entry.submitted)
                 .count()});
      }
    });
  }

  while (clock::now() < end && !stop.load()) {
    if (options.on_tick && !options.on_tick(elapsed_s())) {
      stop.store(true);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  for (std::thread& t : workers) t.join();
  if (options.on_tick) options.on_tick(elapsed_s());
  return samples;
}

std::vector<WindowTally> TallyWindows(const std::vector<LoadSample>& samples,
                                      int64_t windows) {
  std::vector<WindowTally> tallies(static_cast<size_t>(windows));
  for (const LoadSample& sample : samples) {
    WindowTally& tally = tallies[static_cast<size_t>(sample.window)];
    ++tally.offered;
    if (sample.ok) {
      ++tally.completed;
      tally.latencies_ms.push_back(sample.latency_ms);
    } else if (sample.reason == infer::RejectReason::kDeadlineExceeded) {
      ++tally.expired;
    } else {
      ++tally.shed;
    }
  }
  return tallies;
}

WindowTally& WindowTally::operator+=(const WindowTally& other) {
  offered += other.offered;
  completed += other.completed;
  shed += other.shed;
  expired += other.expired;
  latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                      other.latencies_ms.end());
  return *this;
}

int64_t Saturation::DeadlineUs(int64_t deadline_ms) const {
  return deadline_ms > 0
             ? deadline_ms * 1000
             : std::max<int64_t>(5000, static_cast<int64_t>(5 * batch_us));
}

bool TimeBatches(infer::InferenceSession* session,
                 const std::vector<infer::ForecastRequest>& ring,
                 int64_t batch_size, int64_t iters,
                 std::vector<double>* batch_ms, double* elapsed_s,
                 std::string* error) {
  using clock = std::chrono::steady_clock;
  session->Warmup(batch_size, /*runs=*/2);
  std::vector<infer::ForecastRequest> batch;
  for (int64_t i = 0; i < batch_size; ++i) {
    batch.push_back(ring[static_cast<size_t>(i) % ring.size()]);
  }
  const auto loop_start = clock::now();
  for (int64_t i = 0; i < iters; ++i) {
    const auto start = clock::now();
    for (const infer::Forecast& f : session->PredictRequests(batch)) {
      if (!f.ok) {
        *error = "serving forward failed: " + f.error;
        return false;
      }
    }
    batch_ms->push_back(
        std::chrono::duration<double, std::milli>(clock::now() - start)
            .count());
  }
  *elapsed_s =
      std::chrono::duration<double>(clock::now() - loop_start).count();
  return true;
}

bool CalibrateSaturation(infer::InferenceSession* session,
                         const std::vector<infer::ForecastRequest>& ring,
                         int64_t batch_size, Saturation* out,
                         std::string* error) {
  constexpr int64_t kIters = 5;
  std::vector<double> batch_ms;
  double seconds = 0.0;
  if (!TimeBatches(session, ring, batch_size, kIters, &batch_ms, &seconds,
                   error)) {
    return false;
  }
  out->rps = static_cast<double>(kIters * batch_size) /
             std::max(seconds, 1e-9);
  out->batch_us = seconds * 1e6 / kIters;
  return true;
}

CheckpointStage::~CheckpointStage() {
  if (fresh_) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

bool CheckpointStage::Open(const std::string& dir, bool fresh,
                           std::unique_ptr<train::ForecastingModel> twin,
                           std::string* error) {
  dir_ = dir;
  fresh_ = fresh;
  std::error_code ec;
  if (fresh) std::filesystem::remove_all(dir, ec);
  if (!ec) std::filesystem::create_directories(dir, ec);
  if (ec) {
    *error = "cannot prepare the hot-reload watch directory " + dir + ": " +
             ec.message();
    return false;
  }
  twin_ = std::move(twin);
  return true;
}

bool CheckpointStage::DropAt(double elapsed_s, double at_s,
                             std::string* error) {
  if (twin_ == nullptr || elapsed_s < at_s) return true;
  const std::unique_ptr<train::ForecastingModel> twin = std::move(twin_);
  const std::string path = train::CheckpointPathForStep(dir_, 1);
  std::string save_error;
  saved_ = train::SaveCheckpoint(*twin, path, &save_error);
  if (!saved_) {
    *error = "cannot stage the hot-reload checkpoint " + path + ": " +
             save_error;
  }
  return saved_;
}

bool CheckpointStage::WaitForSwap(const infer::CheckpointReloader& reloader,
                                  std::string* error) const {
  if (!saved_) {
    *error = "no hot-reload checkpoint was staged in " + dir_;
    return false;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (reloader.stats().swaps == 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      *error = "the reloader never swapped in the checkpoint staged in " +
               dir_ + " (60 s)";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

}  // namespace d2stgnn::experiment
