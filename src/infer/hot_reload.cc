#include "infer/hot_reload.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "train/checkpoint.h"

namespace d2stgnn::infer {

CheckpointReloader::CheckpointReloader(SessionHost* host, ModelFactory factory,
                                       const data::StandardScaler& scaler,
                                       const SessionOptions& session_options,
                                       const HotReloadOptions& options)
    : host_(host),
      factory_(std::move(factory)),
      scaler_(scaler),
      session_options_(session_options),
      options_(options) {
  D2_CHECK(host_ != nullptr);
  D2_CHECK(factory_ != nullptr);
  D2_CHECK_GT(options_.poll_interval_ms, 0);
}

CheckpointReloader::~CheckpointReloader() { Stop(); }

ReloadStatus CheckpointReloader::PollOnce() {
  ReloadStatus status;
  const std::string latest = train::LatestCheckpoint(options_.directory);
  std::string active;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active = active_;
  }
  if (latest.empty() || latest == active) return status;

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.attempts;
  }
  Clock* clock = ClockOrReal(options_.clock);
  const SteadyTime staging_start = clock->Now();
  status = StageAndSwap(latest);
  const int64_t staging_us =
      std::chrono::duration_cast<std::chrono::microseconds>(clock->Now() -
                                                            staging_start)
          .count();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.last_staging_us = staging_us;
    if (status.outcome == ReloadOutcome::kSwapped) {
      ++stats_.swaps;
      stats_.active_checkpoint = latest;
      active_ = latest;
      // A later, *older-named* file cannot roll us back: LatestCheckpoint
      // sorts by name, and active_ only ever advances.
    } else {
      ++stats_.rejects;
      stats_.last_error = status.error;
      // active_ is left alone: the same checkpoint is retried next poll,
      // so a transient failure (torn copy-in-progress, injected fault)
      // heals without intervention.
    }
  }
  return status;
}

ReloadStatus CheckpointReloader::StageAndSwap(const std::string& checkpoint) {
  ReloadStatus status;
  status.checkpoint = checkpoint;
  status.outcome = ReloadOutcome::kRejected;

  // Chaos seam "infer.hot_reload": a scripted staging failure (what a
  // corrupt or half-copied checkpoint produces). The old session must keep
  // serving, and the next poll must retry.
  if (fault::ConsumeFault("infer.hot_reload")) {
    status.error = "injected hot-reload fault";
    D2_LOG(WARNING) << "infer: hot-reload of " << checkpoint
                    << " rejected: " << status.error;
    return status;
  }

  std::unique_ptr<train::ForecastingModel> model = factory_();
  if (model == nullptr) {
    status.error = "model factory returned null";
    D2_LOG(ERROR) << "infer: hot-reload of " << checkpoint
                  << " rejected: " << status.error;
    return status;
  }

  SessionOptions shadow_options = session_options_;
  shadow_options.verify_plans = true;  // shadows never serve unverified plans
  std::unique_ptr<InferenceSession> staged = InferenceSession::Load(
      std::move(model), checkpoint, scaler_, shadow_options);
  if (staged == nullptr) {
    status.error = "checkpoint load failed (corrupt, truncated, or mismatched)";
    D2_LOG(WARNING) << "infer: hot-reload of " << checkpoint
                    << " rejected: " << status.error;
    return status;
  }

  // Warm the shadow while the old session serves: plans are captured and
  // statically verified before any traffic sees it.
  const int64_t max_batch_size = host_->max_batch_size();
  staged->WarmForServing(max_batch_size);
  if (shadow_options.use_plans) {
    const SessionStats session_stats = staged->session_stats();
    if (session_stats.plan_verifier_errors > 0) {
      status.error = "staged plans failed static verification";
      D2_LOG(ERROR) << "infer: hot-reload of " << checkpoint
                    << " rejected: " << status.error << " ("
                    << session_stats.plan_verifier_errors << " errors)";
      return status;
    }
    if (staged->planned_batch_sizes() !=
        InferenceSession::ServingBatchSizes(max_batch_size)) {
      status.error = "staged session is missing captured plans";
      D2_LOG(ERROR) << "infer: hot-reload of " << checkpoint
                    << " rejected: " << status.error;
      return status;
    }
  }

  host_->SwapSession(std::shared_ptr<InferenceSession>(std::move(staged)));
  status.outcome = ReloadOutcome::kSwapped;
  D2_LOG(INFO) << "infer: hot-swapped session to " << checkpoint;
  return status;
}

void CheckpointReloader::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return;
    running_ = true;
  }
  watcher_ = std::thread([this] {
    for (;;) {
      PollOnce();
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_interval_ms),
                   [this] { return !running_; });
      if (!running_) return;
    }
  });
}

void CheckpointReloader::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
  cv_.notify_all();
  // Join outside mu_: the watcher needs the mutex to observe !running_.
  if (watcher_.joinable()) watcher_.join();
}

ReloadStats CheckpointReloader::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace d2stgnn::infer
