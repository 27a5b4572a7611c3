#include "infer/session.h"

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "exec/graph_capture.h"
#include "exec/plan_verifier.h"
#include "tensor/kernels/registry.h"
#include "train/checkpoint.h"

namespace d2stgnn::infer {

bool DefaultVerifyPlans() {
#ifndef NDEBUG
  return true;  // debug builds always verify
#else
  const char* env = std::getenv("D2STGNN_VERIFY_PLANS");
  return env != nullptr && std::strcmp(env, "1") == 0;
#endif
}

InferenceSession::InferenceSession(
    std::unique_ptr<train::ForecastingModel> model,
    const data::StandardScaler& scaler, const SessionOptions& options)
    : model_(std::move(model)), scaler_(scaler), options_(options) {
  model_->SetTraining(false);  // frozen: no dropout, no tape
}

std::unique_ptr<InferenceSession> InferenceSession::Wrap(
    std::unique_ptr<train::ForecastingModel> model,
    const data::StandardScaler& scaler, const SessionOptions& options) {
  if (model == nullptr) {
    D2_LOG(ERROR) << "infer: cannot create a session around a null model";
    return nullptr;
  }
  if (options.num_nodes <= 0 || options.input_len <= 0 ||
      options.steps_per_day <= 0) {
    D2_LOG(ERROR) << "infer: invalid session options (num_nodes="
                  << options.num_nodes << ", input_len=" << options.input_len
                  << ", steps_per_day=" << options.steps_per_day << ")";
    return nullptr;
  }
  return std::unique_ptr<InferenceSession>(
      new InferenceSession(std::move(model), scaler, options));
}

std::unique_ptr<InferenceSession> InferenceSession::Load(
    std::unique_ptr<train::ForecastingModel> model,
    const std::string& checkpoint_path, const data::StandardScaler& scaler,
    const SessionOptions& options) {
  if (model == nullptr) {
    D2_LOG(ERROR) << "infer: cannot load " << checkpoint_path
                  << " into a null model";
    return nullptr;
  }
  if (fault::ConsumeFault("infer.checkpoint_load")) {
    D2_LOG(ERROR) << "infer: injected fault while loading "
                  << checkpoint_path;
    return nullptr;
  }
  // LoadCheckpoint is transactional: on corrupt / truncated / mismatched
  // files the model is untouched and we fail before any session exists.
  if (!train::LoadCheckpoint(model.get(), checkpoint_path)) {
    D2_LOG(ERROR) << "infer: checkpoint " << checkpoint_path
                  << " rejected; no session created";
    return nullptr;
  }
  return Wrap(std::move(model), scaler, options);
}

std::string InferenceSession::ValidateRequest(
    const ForecastRequest& request) const {
  const int64_t expected = options_.input_len * options_.num_nodes;
  if (static_cast<int64_t>(request.window.size()) != expected) {
    std::ostringstream os;
    os << "bad request: window has " << request.window.size()
       << " readings, expected input_len * num_nodes = " << expected;
    return os.str();
  }
  if (request.time_of_day < 0 || request.time_of_day >= options_.steps_per_day) {
    return "bad request: time_of_day out of [0, steps_per_day)";
  }
  if (request.day_of_week < 0 || request.day_of_week >= 7) {
    return "bad request: day_of_week out of [0, 7)";
  }
  if (request.deadline_us < 0) {
    return "bad request: deadline_us must be >= 0";
  }
  return "";
}

data::Batch InferenceSession::AssembleBatch(
    const std::vector<ForecastRequest>& requests) const {
  const int64_t b = static_cast<int64_t>(requests.size());
  const int64_t th = options_.input_len;
  const int64_t n = options_.num_nodes;
  D2_CHECK_GT(b, 0);

  data::Batch batch;
  batch.batch_size = b;
  batch.input_len = th;
  batch.time_of_day.resize(static_cast<size_t>(b * th));
  batch.day_of_week.resize(static_cast<size_t>(b * th));

  // Same feature construction as WindowDataLoader::GetBatch: channel 0 the
  // z-scored reading, channel 1 the time-of-day fraction, channel 2 the
  // day-of-week fraction; slot indices advance from the request's first
  // step, wrapping across midnight.
  Tensor x({b, th, n, data::kInputFeatures});
  float* xd = x.Data().data();
  const float mean = scaler_.mean();
  const float inv_std = 1.0f / scaler_.std_dev();
  const float inv_day = 1.0f / static_cast<float>(options_.steps_per_day);
  for (int64_t i = 0; i < b; ++i) {
    const ForecastRequest& req = requests[static_cast<size_t>(i)];
    D2_CHECK_EQ(static_cast<int64_t>(req.window.size()), th * n)
        << "unvalidated request reached AssembleBatch";
    for (int64_t t = 0; t < th; ++t) {
      const int64_t slot = req.time_of_day + t;
      const int64_t tod = slot % options_.steps_per_day;
      const int64_t dow =
          (req.day_of_week + slot / options_.steps_per_day) % 7;
      const float* src = req.window.data() + t * n;
      float* dst = xd + (i * th + t) * n * data::kInputFeatures;
      for (int64_t node = 0; node < n; ++node) {
        dst[node * 3] = (src[node] - mean) * inv_std;
        dst[node * 3 + 1] = static_cast<float>(tod) * inv_day;
        dst[node * 3 + 2] = static_cast<float>(dow) / 7.0f;
      }
      batch.time_of_day[static_cast<size_t>(i * th + t)] = tod;
      batch.day_of_week[static_cast<size_t>(i * th + t)] = dow;
    }
  }
  batch.x = std::move(x);
  return batch;
}

const float* InferenceSession::TryReplayLocked(const data::Batch& batch) {
  exec::PlanExecutor& executor = *plans_.at(batch.batch_size);
  std::vector<exec::InputBinding> inputs;
  inputs.push_back(exec::InputBinding{batch.x.Data().data(), batch.x.numel()});
  const std::vector<const std::vector<int64_t>*> index_inputs = {
      &batch.time_of_day, &batch.day_of_week};
  std::string error;
  switch (executor.Run(inputs, index_inputs, exec::ReplayMode::kLevelParallel,
                       &error)) {
    case exec::ReplayStatus::kOk:
      ++stats_.plan_replays;
      return executor.output();
    case exec::ReplayStatus::kStaleConstants:
    case exec::ReplayStatus::kBackendMismatch:
      // Reassigned parameter storage or a switched kernel backend: every
      // cached plan shares the parameters and the backend, so none can
      // replay. Drop them all and fall back to eager (Warmup recaptures).
      DropPlansLocked(error);
      return nullptr;
    case exec::ReplayStatus::kBindingMismatch:
      // A batch with this batch size but different geometry (input_len /
      // nodes) than the plan captured; the eager path handles it.
      D2_LOG(WARNING) << "infer: plan binding mismatch, running eager: "
                      << error;
      return nullptr;
  }
  return nullptr;
}

void InferenceSession::DropPlansLocked(const std::string& why) {
  if (plans_.empty()) return;
  D2_LOG(WARNING) << "infer: dropping " << plans_.size()
                  << " execution plan(s): " << why;
  stats_.plan_invalidations += static_cast<int64_t>(plans_.size());
  plans_.clear();
  verify_reports_.clear();
}

bool InferenceSession::HasPlanLocked(int64_t batch_size) {
  // Plans are only captured after this check, so the cache never mixes
  // backends and its first plan speaks for all of them.
  if (!plans_.empty()) {
    const std::string& captured = plans_.begin()->second->plan().backend_name();
    const std::string& active = kernels::ActiveBackend().name;
    if (captured != active) {
      DropPlansLocked("captured under kernel backend '" + captured +
                      "', active is '" + active + "'");
    }
  }
  return plans_.count(batch_size) > 0;
}

ForecastRequest InferenceSession::BlankRequest() const {
  ForecastRequest blank;
  blank.window.assign(
      static_cast<size_t>(options_.input_len * options_.num_nodes), 0.0f);
  return blank;
}

std::shared_ptr<const exec::ExecutionPlan> InferenceSession::CapturePlan(
    int64_t batch_size, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  return CaptureLocked(batch_size, error);
}

std::shared_ptr<const exec::ExecutionPlan> InferenceSession::CaptureLocked(
    int64_t batch_size, std::string* error) {
  D2_CHECK_GT(batch_size, 0);
  const std::vector<ForecastRequest> requests(static_cast<size_t>(batch_size),
                                              BlankRequest());
  NoGradGuard no_grad;
  ArenaGuard arena_scope(arena_);
  const data::Batch batch = AssembleBatch(requests);
  exec::GraphCapture capture;
  capture.BindInput("x", batch.x);
  capture.BindIndexInput("tod", batch.time_of_day);
  capture.BindIndexInput("dow", batch.day_of_week);
  const Tensor out = scaler_.InverseTransform(model_->Forward(batch));
  std::shared_ptr<const exec::ExecutionPlan> plan = capture.Finish(out);
  if (plan == nullptr && error != nullptr) *error = capture.error();
  return plan;
}

bool InferenceSession::CapturePlanLocked(int64_t batch_size) {
  std::string error;
  std::shared_ptr<const exec::ExecutionPlan> plan =
      CaptureLocked(batch_size, &error);
  if (plan == nullptr) {
    D2_LOG(WARNING) << "infer: plan capture failed for batch size "
                    << batch_size << " (" << error << "); serving eagerly";
    return false;
  }
  D2_LOG(INFO) << "infer: captured batch-" << batch_size << " "
               << plan->Summary();
  if (options_.verify_plans) {
    exec::VerifierReport report = exec::VerifyPlan(*plan);
    ++stats_.plans_verified;
    // Test seam: a scripted "infer.plan_verify" fault stands in for a
    // verifier rejection, so the verify-reject -> eager-fallback -> repair
    // accounting is testable with plans that are in fact clean.
    if (report.ok() && fault::ConsumeFault("infer.plan_verify")) {
      report.errors = 1;
    }
    if (!report.ok()) {
      stats_.plan_verifier_errors += report.errors;
      D2_LOG(ERROR) << "infer: batch-" << batch_size
                    << " plan rejected by the static verifier; serving "
                    << "eagerly\n"
                    << report.ToString();
      return false;
    }
    verify_reports_[batch_size] = std::move(report);
  }
  plans_[batch_size] = std::make_unique<exec::PlanExecutor>(std::move(plan));
  ++stats_.plans_built;
  return true;
}

std::vector<Forecast> InferenceSession::PredictRequests(
    const std::vector<ForecastRequest>& requests) {
  std::vector<Forecast> results(requests.size());
  std::vector<size_t> valid;
  valid.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    std::string error = ValidateRequest(requests[i]);
    if (error.empty()) {
      valid.push_back(i);
    } else {
      results[i].error = std::move(error);
      results[i].reason = RejectReason::kBadRequest;
    }
  }
  if (valid.empty()) return results;

  std::vector<ForecastRequest> batch_requests;
  batch_requests.reserve(valid.size());
  for (size_t i : valid) batch_requests.push_back(requests[i]);

  const int64_t tf = horizon();
  const int64_t n = options_.num_nodes;
  const int64_t num_valid = static_cast<int64_t>(valid.size());
  std::lock_guard<std::mutex> lock(mu_);
  NoGradGuard no_grad;
  ArenaGuard arena_scope(arena_);

  // Serve from a captured plan when one matches. A batch smaller than every
  // plan is padded with blank requests up to the nearest plan size — model
  // forwards are batch-independent (asserted by the parity tests), so the
  // padding rows only cost compute and are dropped below.
  int64_t plan_size = 0;
  const auto it = plans_.lower_bound(num_valid);
  if (it != plans_.end()) plan_size = it->first;
  if (plan_size > num_valid) {
    batch_requests.resize(static_cast<size_t>(plan_size), BlankRequest());
  }
  const data::Batch batch = AssembleBatch(batch_requests);
  const float* pd = plan_size > 0 ? TryReplayLocked(batch) : nullptr;
  Tensor prediction;  // keeps the eager result alive for the copy below
  if (pd != nullptr) {
    if (plan_size > num_valid) ++stats_.padded_replays;
  } else {
    prediction =
        scaler_.InverseTransform(model_->Forward(batch));  // [B, Tf, N, 1]
    ++stats_.eager_forwards;
    D2_CHECK_EQ(prediction.numel(), batch.batch_size * tf * n);
    pd = prediction.Data().data();
  }
  for (size_t k = 0; k < valid.size(); ++k) {
    Forecast& out = results[valid[k]];
    out.ok = true;
    out.horizon = tf;
    out.num_nodes = n;
    const float* src = pd + static_cast<int64_t>(k) * tf * n;
    out.values.assign(src, src + tf * n);
  }
  return results;
}

Forecast InferenceSession::PredictOne(const ForecastRequest& request) {
  std::vector<Forecast> results = PredictRequests({request});
  return std::move(results.front());
}

void InferenceSession::Warmup(int64_t batch_size, int64_t runs) {
  D2_CHECK_GT(batch_size, 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.use_plans && !HasPlanLocked(batch_size)) {
      CapturePlanLocked(batch_size);  // eager forward also warms the pool
    }
  }
  const std::vector<ForecastRequest> requests(
      static_cast<size_t>(batch_size), BlankRequest());
  for (int64_t r = 0; r < runs; ++r) PredictRequests(requests);
}

std::vector<int64_t> InferenceSession::ServingBatchSizes(
    int64_t max_batch_size) {
  D2_CHECK_GT(max_batch_size, 0);
  if (max_batch_size == 1) return {1};
  return {1, max_batch_size};
}

int64_t InferenceSession::WarmForServing(int64_t max_batch_size) {
  for (const int64_t size : ServingBatchSizes(max_batch_size)) {
    bool planned = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      planned = HasPlanLocked(size);
    }
    if (!planned) Warmup(size);
  }
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.empty() ? 0 : plans_.rbegin()->first;
}

BufferArenaStats InferenceSession::arena_stats() const {
  return arena_->stats();
}

SessionStats InferenceSession::session_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<int64_t> InferenceSession::planned_batch_sizes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> sizes;
  sizes.reserve(plans_.size());
  for (const auto& [size, executor] : plans_) sizes.push_back(size);
  return sizes;
}

std::map<int64_t, exec::VerifierReport> InferenceSession::verifier_reports()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return verify_reports_;
}

void InferenceSession::InvalidatePlans() {
  std::lock_guard<std::mutex> lock(mu_);
  DropPlansLocked("invalidated by the caller");
}

}  // namespace d2stgnn::infer
