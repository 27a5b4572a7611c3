#include "infer/fleet/fleet_server.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"

namespace d2stgnn::infer {

namespace {

std::future<Forecast> Resolved(Forecast forecast) {
  std::promise<Forecast> promise;
  promise.set_value(std::move(forecast));
  return promise.get_future();
}

Forecast Rejection(RejectReason reason, std::string error,
                   int64_t retry_after_us) {
  Forecast forecast;
  forecast.error = std::move(error);
  forecast.reason = reason;
  forecast.retry_after_us = retry_after_us;
  return forecast;
}

/// What an AdmissionController rejection adds to the shared message.
std::string AdmissionDetail(RejectReason reason, const AdmissionOptions& gate,
                            double ewma_request_us) {
  std::ostringstream os;
  if (reason == RejectReason::kRateLimited) {
    os << "limit " << gate.rate_rps << " rps";
  } else if (reason == RejectReason::kOverloaded) {
    os << "ewma request latency " << static_cast<int64_t>(ewma_request_us)
       << " us > shed budget " << gate.shed_latency_us << " us";
  }
  return os.str();
}

Forecast DeadlineMiss() {
  Forecast miss;
  miss.error = "deadline exceeded in queue";
  miss.reason = RejectReason::kDeadlineExceeded;
  return miss;
}

}  // namespace

FleetServer::FleetServer(const ModelFleet* fleet, const FleetOptions& options)
    : options_(options),
      clock_(ClockOrReal(options.clock)),
      arbiter_(options.max_queue_depth, options.arbitration_watermark),
      shared_admission_(options.admission, options.clock),
      governor_(options.degrade) {
  D2_CHECK(fleet != nullptr);
  D2_CHECK_GT(fleet->size(), 0u);
  D2_CHECK_GT(options_.degraded_wait_divisor, 0);

  ids_ = fleet->model_ids();
  int64_t min_priority = std::numeric_limits<int64_t>::max();
  int64_t max_priority = std::numeric_limits<int64_t>::min();
  for (const std::string& id : ids_) {
    const FleetModelOptions* model_options = fleet->model_options(id);
    D2_CHECK(model_options != nullptr);
    auto lane = std::make_unique<Lane>();
    lane->options = *model_options;
    lane->base_wait_us = model_options->max_wait_us;
    if (model_options->slo.target_p99_ms > 0) {
      // The SLO objective bounds the coalescing delay: a request must not
      // spend more than ~1/8 of its p99 budget waiting for batch-mates.
      lane->base_wait_us = std::min(lane->base_wait_us,
                                    model_options->slo.target_p99_ms * 125);
    }
    lane->session = fleet->session(id);
    D2_CHECK(lane->session != nullptr);
    lane->admission = std::make_unique<AdmissionController>(
        model_options->admission, options_.clock);
    lane->host.server = this;
    lane->host.lane = &lane->options;
    if (model_options->warmup) {
      lane->plan_cap =
          lane->session->WarmForServing(model_options->max_batch_size);
    }
    arbiter_.AddLane(id, model_options->slo.priority,
                     model_options->slo.weight, model_options->queue_share);
    min_priority = std::min(min_priority, model_options->slo.priority);
    max_priority = std::max(max_priority, model_options->slo.priority);
    lanes_.emplace(id, std::move(lane));
  }
  worst_slo_priority_ = max_priority;
  slo_shed_enabled_ = min_priority != max_priority;

  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

FleetServer::~FleetServer() { Shutdown(/*drain=*/true); }

int64_t FleetServer::TotalDepthLocked() const {
  int64_t total = 0;
  for (const auto& [id, lane] : lanes_) {
    total += static_cast<int64_t>(lane->queue.size());
  }
  return total;
}

int64_t FleetServer::EffectiveWaitUs(const Lane& lane,
                                     OverloadTier tier) const {
  int64_t wait_us = lane.base_wait_us;
  if (tier >= OverloadTier::kDegraded) {
    wait_us /= options_.degraded_wait_divisor;
  }
  if (tier >= OverloadTier::kCapped) wait_us /= 2;
  return wait_us;
}

int64_t FleetServer::EffectiveBatchCap(const Lane& lane,
                                       OverloadTier tier) const {
  int64_t cap = lane.options.max_batch_size;
  if (tier >= OverloadTier::kCapped && lane.plan_cap > 0) {
    cap = std::min(cap, lane.plan_cap);
  }
  return cap;
}

void FleetServer::CountRejectLocked(Lane* lane, RejectReason reason) {
  ++lane->stats.rejected;
  switch (reason) {
    case RejectReason::kBadRequest: ++lane->stats.rejected_bad_request; break;
    case RejectReason::kQueueFull: ++lane->stats.rejected_queue_full; break;
    case RejectReason::kRateLimited:
      ++lane->stats.rejected_rate_limited;
      break;
    case RejectReason::kOverloaded: ++lane->stats.rejected_overloaded; break;
    case RejectReason::kShedLowPriority:
      ++lane->stats.rejected_low_priority;
      break;
    case RejectReason::kQuotaExceeded: ++lane->stats.rejected_quota; break;
    case RejectReason::kShuttingDown: ++lane->stats.rejected_shutdown; break;
    default: break;
  }
}

std::string FleetServer::RejectErrorLocked(const Lane& lane,
                                           RejectReason reason,
                                           const std::string& detail) const {
  std::string what = RejectReasonName(reason);
  std::replace(what.begin(), what.end(), '_', ' ');
  std::ostringstream os;
  os << what << " (depth " << TotalDepthLocked() << "/"
     << options_.max_queue_depth << ", active batch "
     << EffectiveBatchCap(lane, governor_.tier());
  if (!detail.empty()) os << ", " << detail;
  if (ids_.size() > 1) os << ", model '" << lane.options.model_id << "'";
  os << ")";
  return os.str();
}

Forecast FleetServer::AdmitLocked(Lane* lane, RequestPriority priority) {
  const int64_t total_depth = TotalDepthLocked();
  const int64_t capacity = options_.max_queue_depth;
  const int64_t lane_depth = static_cast<int64_t>(lane->queue.size());
  const auto reject = [&](RejectReason reason, int64_t retry_after_us,
                          const std::string& detail) {
    return Rejection(reason, RejectErrorLocked(*lane, reason, detail),
                     retry_after_us);
  };

  // Degradation tier from *total* queue pressure (and the forced-degrade
  // fault), observed on every Submit.
  const OverloadTier tier = governor_.Observe(total_depth, capacity);
  tier_ = tier;
  degrade_transitions_ = governor_.transitions();

  // Chaos seam "server.admit": scripted admission-path failures surface as
  // typed, retryable rejections, never a crash or a hung future.
  if (fault::ConsumeFault("server.admit")) {
    return reject(RejectReason::kOverloaded, 1000, "admission fault injected");
  }

  // At kShedding, requests marked low-priority are refused — and so is
  // every request for the fleet's lowest SLO class, when the fleet has
  // more than one class: the capacity that remains under sustained
  // overload serves the higher tiers.
  if (tier == OverloadTier::kShedding &&
      (priority == RequestPriority::kLow ||
       (slo_shed_enabled_ &&
        lane->options.slo.priority == worst_slo_priority_))) {
    std::string detail = std::string("tier ") + OverloadTierName(tier);
    if (slo_shed_enabled_) detail += ", slo " + lane->options.slo.name;
    return reject(RejectReason::kShedLowPriority,
                  static_cast<int64_t>(
                      std::max(shared_admission_.ewma_request_us(), 1000.0) *
                      static_cast<double>(std::max<int64_t>(total_depth, 1))),
                  detail);
  }

  // Shared admission: the hard bound on the total queue plus any
  // fleet-wide rate limit / EWMA shed.
  AdmissionDecision decision = shared_admission_.Admit(total_depth, capacity);
  if (!decision.admitted) {
    return reject(decision.reason, decision.retry_after_us,
                  AdmissionDetail(decision.reason, options_.admission,
                                  shared_admission_.ewma_request_us()));
  }

  // Cross-model arbitration: once the shared queue is contended, a model
  // over its weighted share is refused so it cannot squeeze out healthy
  // tenants. The hint estimates this lane's own drain time.
  if (arbiter_.QuotaArmed(total_depth)) {
    const int64_t quota = arbiter_.Quota(lane->options.model_id);
    if (lane_depth >= quota) {
      const double per_request_us =
          std::max({lane->admission->ewma_request_us(),
                    shared_admission_.ewma_request_us(), 1000.0});
      return reject(RejectReason::kQuotaExceeded,
                    static_cast<int64_t>(
                        per_request_us *
                        static_cast<double>(std::max<int64_t>(lane_depth, 1))),
                    "lane " + std::to_string(lane_depth) + "/" +
                        std::to_string(quota));
    }
  }

  // Per-model gate: this tenant's token bucket / EWMA shed (the hard
  // queue bound is fleet-wide, so capacity 0 here).
  decision = lane->admission->Admit(lane_depth, 0);
  if (!decision.admitted) {
    return reject(decision.reason, decision.retry_after_us,
                  AdmissionDetail(decision.reason, lane->options.admission,
                                  lane->admission->ewma_request_us()));
  }
  return Forecast();
}

std::future<Forecast> FleetServer::Submit(const std::string& model_id,
                                          ForecastRequest request) {
  const auto lane_it = lanes_.find(model_id);
  if (lane_it == lanes_.end()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++rejected_unknown_model_;
    return Resolved(Rejection(RejectReason::kBadRequest,
                              "unknown model '" + model_id + "'", 0));
  }
  Lane& lane = *lane_it->second;

  // Validation against the lane's live session (shapes do not change
  // across swaps, so a stale read here is still correct).
  std::shared_ptr<InferenceSession> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    session = lane.session;
  }
  const std::string validation = session->ValidateRequest(request);

  Pending pending;
  pending.request = std::move(request);
  pending.enqueued = clock_->Now();
  std::future<Forecast> future = pending.promise.get_future();
  Forecast rejection;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A stopped server says so whatever the payload: shutdown is checked
    // before validation.
    if (shutdown_) {
      rejection = Rejection(RejectReason::kShuttingDown, "shutting down", 0);
    } else if (!validation.empty()) {
      rejection = Rejection(RejectReason::kBadRequest, validation, 0);
    } else {
      rejection = AdmitLocked(&lane, pending.request.priority);
    }
    if (rejection.reason != RejectReason::kNone) {
      CountRejectLocked(&lane, rejection.reason);
      return Resolved(std::move(rejection));
    }
    if (pending.request.deadline_us > 0) {
      pending.deadline = pending.enqueued +
                         std::chrono::microseconds(pending.request.deadline_us);
      // Chaos seam "server.deadline": the budget is treated as spent.
      if (fault::ConsumeFault("server.deadline")) {
        pending.deadline = pending.enqueued;
      }
      pending.has_deadline = true;
    }
    lane.queue.push_back(std::move(pending));
    ++lane.stats.submitted;
    lane.stats.max_queue_depth_seen =
        std::max(lane.stats.max_queue_depth_seen,
                 static_cast<int64_t>(lane.queue.size()));
    max_total_depth_seen_ =
        std::max(max_total_depth_seen_, TotalDepthLocked());
  }
  cv_.notify_all();
  return future;
}

std::deque<FleetServer::Pending> FleetServer::TakeExpiredLocked(
    SteadyTime now) {
  std::deque<Pending> expired;
  for (const std::string& id : ids_) {
    Lane& lane = *lanes_.at(id);
    for (auto it = lane.queue.begin(); it != lane.queue.end();) {
      if (it->has_deadline && it->deadline <= now) {
        expired.push_back(std::move(*it));
        it = lane.queue.erase(it);
        ++lane.stats.expired_deadlines;
      } else {
        ++it;
      }
    }
  }
  return expired;
}

void FleetServer::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return shutdown_ || TotalDepthLocked() > 0; });
    if (shutdown_ && !drain_) break;  // leave queues for cancellation

    // Expired requests never pad a batch.
    {
      std::deque<Pending> expired = TakeExpiredLocked(clock_->Now());
      if (!expired.empty()) {
        lock.unlock();
        for (Pending& p : expired) p.promise.set_value(DeadlineMiss());
        lock.lock();
        continue;  // queues changed; re-evaluate
      }
    }
    if (TotalDepthLocked() == 0) {
      if (shutdown_) break;
      continue;
    }

    // Find the lanes with a flushable batch: full, aged past the
    // (SLO-tightened, tier-shrunk) flush timer, or a shutdown drain.
    const OverloadTier tier = governor_.tier();
    const SteadyTime now = clock_->Now();
    SteadyTime wake_at = now + std::chrono::milliseconds(50);
    std::vector<std::string> ready;
    for (const std::string& id : ids_) {
      Lane& lane = *lanes_.at(id);
      if (lane.queue.empty()) continue;
      const int64_t cap = EffectiveBatchCap(lane, tier);
      if (shutdown_ || static_cast<int64_t>(lane.queue.size()) >= cap) {
        ready.push_back(id);
        continue;
      }
      const SteadyTime flush_at =
          lane.queue.front().enqueued +
          std::chrono::microseconds(EffectiveWaitUs(lane, tier));
      if (flush_at <= now) {
        ready.push_back(id);
        continue;
      }
      if (flush_at < wake_at) wake_at = flush_at;
      for (const Pending& p : lane.queue) {
        if (p.has_deadline && p.deadline < wake_at) wake_at = p.deadline;
      }
    }
    if (ready.empty()) {
      // Sleep to the earliest flush timer or request deadline; a Submit
      // that fills a batch wakes us sooner.
      cv_.wait_until(lock, wake_at);
      continue;
    }

    // Arbitration: strict SLO priority, then weighted-fair virtual time.
    const std::string pick = arbiter_.Pick(ready);
    D2_CHECK(!pick.empty());
    Lane& lane = *lanes_.at(pick);
    const int64_t cap = EffectiveBatchCap(lane, tier);
    const int64_t take =
        std::min<int64_t>(static_cast<int64_t>(lane.queue.size()), cap);
    std::vector<Pending> batch;
    batch.reserve(static_cast<size_t>(take));
    for (int64_t i = 0; i < take; ++i) {
      batch.push_back(std::move(lane.queue.front()));
      lane.queue.pop_front();
    }
    ++lane.stats.batches;
    if (take >= cap) {
      ++lane.stats.full_flushes;
    } else if (shutdown_) {
      ++lane.stats.shutdown_flushes;
    } else {
      ++lane.stats.timeout_flushes;
    }
    arbiter_.Account(pick, take);
    // Draining the backlog is a calm observation for tier recovery.
    governor_.Observe(TotalDepthLocked(), options_.max_queue_depth);
    tier_ = governor_.tier();
    degrade_transitions_ = governor_.transitions();
    // The batch pins its session: a concurrent swap of this model retires
    // the old weights only after this forward finishes.
    std::shared_ptr<InferenceSession> session = lane.session;
    lock.unlock();

    // Test seam: a slow consumer stalls here, *after* dequeuing — newly
    // arriving requests must still be served by the next flush.
    if (fault::ConsumeFault("infer.slow_consumer")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    std::vector<ForecastRequest> requests;
    requests.reserve(batch.size());
    for (Pending& p : batch) requests.push_back(std::move(p.request));
    const SteadyTime batch_start = clock_->Now();
    std::vector<Forecast> results = session->PredictRequests(requests);
    const int64_t batch_us =
        std::chrono::duration_cast<std::chrono::microseconds>(clock_->Now() -
                                                              batch_start)
            .count();
    D2_CHECK_EQ(results.size(), batch.size());

    // Count before resolving, so a woken client sees itself completed.
    lock.lock();
    lane.stats.completed += static_cast<int64_t>(batch.size());
    lane.admission->RecordBatch(batch_us, take);
    lane.stats.ewma_request_us = lane.admission->ewma_request_us();
    shared_admission_.RecordBatch(batch_us, take);
    lock.unlock();
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].promise.set_value(std::move(results[i]));
    }

    lock.lock();
  }

  // Cancel whatever remains (non-drain shutdown only).
  std::deque<Pending> leftover;
  for (const std::string& id : ids_) {
    Lane& lane = *lanes_.at(id);
    lane.stats.cancelled += static_cast<int64_t>(lane.queue.size());
    while (!lane.queue.empty()) {
      leftover.push_back(std::move(lane.queue.front()));
      lane.queue.pop_front();
    }
  }
  lock.unlock();
  for (Pending& p : leftover) {
    Forecast cancelled;
    cancelled.error = "cancelled";
    cancelled.reason = RejectReason::kCancelled;
    p.promise.set_value(std::move(cancelled));
  }
}

void FleetServer::SwapSession(const std::string& model_id,
                              std::shared_ptr<InferenceSession> next) {
  D2_CHECK(next != nullptr);
  const auto lane_it = lanes_.find(model_id);
  D2_CHECK(lane_it != lanes_.end());
  Lane& lane = *lane_it->second;
  // Warm before the swap (a pre-warmed staged session skips straight
  // through — its sizes already have plans).
  int64_t cap = 0;
  if (lane.options.warmup) {
    cap = next->WarmForServing(lane.options.max_batch_size);
  }
  // The retired session is released after mu_ (unless a batch in flight
  // still pins it), so tearing it down never stalls the dispatcher.
  std::shared_ptr<InferenceSession> retired;
  std::lock_guard<std::mutex> lock(mu_);
  retired = std::exchange(lane.session, std::move(next));
  lane.plan_cap = cap;
  ++lane.stats.session_swaps;
}

std::shared_ptr<InferenceSession> FleetServer::session(
    const std::string& model_id) const {
  const auto it = lanes_.find(model_id);
  if (it == lanes_.end()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  return it->second->session;
}

SessionHost* FleetServer::host(const std::string& model_id) {
  const auto it = lanes_.find(model_id);
  return it == lanes_.end() ? nullptr : &it->second->host;
}

void FleetServer::Shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutdown_) {
      shutdown_ = true;
      drain_ = drain;
    }
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

int64_t FleetServer::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TotalDepthLocked();
}

std::vector<std::string> FleetServer::model_ids() const { return ids_; }

FleetStats FleetServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetStats stats;
  stats.rejected_unknown_model = rejected_unknown_model_;
  stats.max_total_queue_depth_seen = max_total_depth_seen_;
  stats.tier = tier_;
  stats.degrade_transitions = degrade_transitions_;
  stats.ewma_request_us = shared_admission_.ewma_request_us();
  for (const std::string& id : ids_) {
    const Lane& lane = *lanes_.at(id);
    FleetModelStats model = lane.stats;
    model.queue_depth = static_cast<int64_t>(lane.queue.size());
    stats.models.emplace(id, model);
    stats.submitted += model.submitted;
    stats.rejected += model.rejected;
    stats.completed += model.completed;
    stats.cancelled += model.cancelled;
    stats.batches += model.batches;
    stats.expired_deadlines += model.expired_deadlines;
    stats.session_swaps += model.session_swaps;
  }
  return stats;
}

}  // namespace d2stgnn::infer
