#ifndef D2STGNN_INFER_SESSION_H_
#define D2STGNN_INFER_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/scaler.h"
#include "data/sliding_window.h"
#include "exec/plan_executor.h"
#include "exec/plan_verifier.h"
#include "infer/overload.h"
#include "tensor/buffer_arena.h"
#include "train/forecasting_model.h"

// Forward-only inference engine (DESIGN.md §9, §10).
//
// An InferenceSession is the serving counterpart of the Trainer: it loads
// trained weights from a checkpoint into a frozen ForecastingModel and runs
// batched no-grad forwards with pooled tensor storage, so steady-state
// inference builds no autograd tape and allocates no new tensor buffers.
// The session owns the whole plan lifecycle. Warmup captures the forward
// into an ExecutionPlan per batch size (CapturePlan is the one capture
// routine), verifies it when verify_plans is on, and caches it in one map
// keyed by batch size; matching requests replay the plan (kernels only — no
// shape checks, no dispatch, no Tensor churn) with bitwise-identical results,
// and smaller batches are padded up to the nearest plan. A plan that can no
// longer replay (reassigned parameters, a switched kernel backend) is dropped
// and recaptured by the next Warmup. WarmForServing is the one warm-up rule
// servers and the hot reloader apply. Sessions are the unit every serving
// layer composes over: the FleetServer dispatcher runs one session per lane,
// and a BatchingServer is its one-lane facade.

namespace d2stgnn::infer {

/// Default for SessionOptions::verify_plans: always on in debug builds,
/// and opt-in via D2STGNN_VERIFY_PLANS=1 in release builds.
bool DefaultVerifyPlans();

/// One serving request: the raw (original-unit) readings of every sensor
/// over the input window, plus the wall-clock position of the window's
/// first step so the time-of-day / day-of-week features the models embed
/// can be derived.
struct ForecastRequest {
  /// Raw readings, row-major [t][node], size input_len * num_nodes.
  std::vector<float> window;
  /// Time-of-day slot (0 .. steps_per_day-1) of the first input step.
  int64_t time_of_day = 0;
  /// Day of week (0 .. 6) of the first input step.
  int64_t day_of_week = 0;
  /// Latency budget from Submit(), microseconds (0: no deadline). A request
  /// still queued when its budget runs out is dropped *before* dispatch —
  /// it never pads a batch — and resolves as kDeadlineExceeded.
  int64_t deadline_us = 0;
  /// Shed class under sustained overload (see OverloadTier::kShedding).
  RequestPriority priority = RequestPriority::kHigh;
};

/// The answer to one request.
struct Forecast {
  bool ok = false;
  /// Why `ok` is false ("cancelled", "queue full (...)", "bad request: ...").
  std::string error;
  /// Typed rejection (kNone when ok), so clients branch without parsing
  /// `error`.
  RejectReason reason = RejectReason::kNone;
  /// Backoff hint for retryable rejections, microseconds (0 otherwise).
  int64_t retry_after_us = 0;
  /// Predicted readings in original units, row-major [t][node], size
  /// horizon * num_nodes. Empty when !ok.
  std::vector<float> values;
  int64_t horizon = 0;
  int64_t num_nodes = 0;
};

/// Static description of the stream a session serves. The model itself only
/// exposes its horizon, so the serving-side window geometry comes from here
/// (it must match what the model was trained on).
struct SessionOptions {
  int64_t num_nodes = 0;       ///< required
  int64_t input_len = 12;      ///< T_h
  int64_t steps_per_day = 288; ///< time-of-day slots (Table 2 presets: 288)
  /// Capture an ExecutionPlan per warmed-up batch size and replay it
  /// (level-parallel) for requests. A batch smaller than a plan is padded
  /// with blank requests up to the nearest plan size (valid because model
  /// forwards are batch-independent — see the parity tests); the padding
  /// rows are discarded. Off = always eager (useful for A/B parity runs).
  bool use_plans = true;
  /// Statically verify every captured plan (exec/plan_verifier.h) before it
  /// may serve: a plan with verification errors is rejected and its batch
  /// size keeps running eagerly. Defaults on in debug builds and when
  /// D2STGNN_VERIFY_PLANS=1.
  bool verify_plans = DefaultVerifyPlans();
};

/// Plan-cache traffic counters (see SessionOptions::use_plans).
struct SessionStats {
  int64_t plans_built = 0;       ///< successful Warmup captures
  int64_t plan_replays = 0;      ///< forwards served from a plan
  int64_t padded_replays = 0;    ///< of which padded up to the plan size
  int64_t eager_forwards = 0;    ///< forwards that ran the eager path
  int64_t plan_invalidations = 0;  ///< plans dropped (stale constants)
  int64_t plans_verified = 0;    ///< static verifier runs over captured plans
  int64_t plan_verifier_errors = 0;  ///< error diagnostics across those runs
};

/// A frozen model + scaler + reusable buffer arena, serving predictions.
///
/// Thread safety: every Predict* call is serialized on an internal mutex
/// (models are not reentrant; their kernels parallelize internally over the
/// shared thread pool). Concurrent callers should go through a
/// BatchingServer (or a FleetServer lane), which amortizes the model cost
/// over coalesced batches instead of queuing on the mutex.
class InferenceSession {
 public:
  /// Loads `checkpoint_path` (v1 or v2; only the params section is used)
  /// into `model` and wraps the result. Returns null after logging on any
  /// failure — missing file, corrupt or truncated checkpoint, architecture
  /// mismatch — with no partially-initialized session escaping (the fault
  /// point "infer.checkpoint_load" injects such failures in tests).
  static std::unique_ptr<InferenceSession> Load(
      std::unique_ptr<train::ForecastingModel> model,
      const std::string& checkpoint_path, const data::StandardScaler& scaler,
      const SessionOptions& options);

  /// Wraps an already-initialized model (tests, benches, freshly trained
  /// models served without a checkpoint round-trip). Returns null after
  /// logging when `model` is null or `options` is inconsistent.
  static std::unique_ptr<InferenceSession> Wrap(
      std::unique_ptr<train::ForecastingModel> model,
      const data::StandardScaler& scaler, const SessionOptions& options);

  /// Serves a coalesced batch of requests in one model forward. Requests
  /// that fail validation get an error Forecast; the valid remainder runs
  /// as one batch. Order of results matches the request order.
  std::vector<Forecast> PredictRequests(
      const std::vector<ForecastRequest>& requests);

  /// Single-request convenience (a batch of one).
  Forecast PredictOne(const ForecastRequest& request);

  /// Builds the model input batch for `requests` — z-scored readings plus
  /// time-of-day / day-of-week channels and index vectors, mirroring
  /// WindowDataLoader::GetBatch. Requests must be pre-validated.
  data::Batch AssembleBatch(const std::vector<ForecastRequest>& requests) const;

  /// "" when `request` is well-formed, else the reason it is not.
  std::string ValidateRequest(const ForecastRequest& request) const;

  /// Primes the session for batches of `batch_size`: captures an execution
  /// plan at that size (when use_plans is on) and runs `runs` synthetic
  /// forwards so the first real request replays a warm plan / hits the
  /// buffer pool. Distinct batch sizes are planned and pooled independently.
  void Warmup(int64_t batch_size, int64_t runs = 1);

  /// The batch sizes a server dispatching up to `max_batch_size` requests
  /// per forward keeps planned: {1, max_batch_size}, or {1} when that is 1.
  static std::vector<int64_t> ServingBatchSizes(int64_t max_batch_size);

  /// The one warm-up rule: runs Warmup at each ServingBatchSizes size that
  /// has no plan yet (every size, when use_plans is off) and returns the
  /// largest planned batch size (0 when none).
  int64_t WarmForServing(int64_t max_batch_size);

  /// Captures the forward a blank batch of `batch_size` runs into a plan —
  /// the routine Warmup uses — and returns it unverified and uncached
  /// (null, with `error` set, when capture fails). For tools that verify or
  /// mutate plans themselves.
  std::shared_ptr<const exec::ExecutionPlan> CapturePlan(int64_t batch_size,
                                                         std::string* error);

  /// Allocation counters of the session arena. After warm-up at a given
  /// batch size, further forwards at that size must not move
  /// fresh_allocations or external_adopts.
  BufferArenaStats arena_stats() const;

  /// Plan-cache counters (a consistent snapshot).
  SessionStats session_stats() const;

  /// Batch sizes with a cached plan, ascending. Plans captured under a
  /// kernel backend that is no longer active stay listed until the next
  /// request or warm-up drops them.
  std::vector<int64_t> planned_batch_sizes() const;

  /// Verifier reports for the cached plans, keyed by batch size. Empty
  /// when verify_plans is off; entries disappear with their plans
  /// (invalidation, staleness, backend switch). Reports of *rejected*
  /// plans are not kept — their error counts surface in
  /// SessionStats::plan_verifier_errors.
  std::map<int64_t, exec::VerifierReport> verifier_reports() const;

  /// Drops every captured plan (counted as invalidations). Call after
  /// swapping parameter tensors; in-place mutation of existing parameter
  /// buffers is picked up by replays automatically, and a reassigned
  /// parameter buffer is detected and invalidates the plan on its own.
  void InvalidatePlans();

  int64_t horizon() const { return model_->horizon(); }
  int64_t num_nodes() const { return options_.num_nodes; }
  int64_t input_len() const { return options_.input_len; }
  const SessionOptions& options() const { return options_; }

 private:
  InferenceSession(std::unique_ptr<train::ForecastingModel> model,
                   const data::StandardScaler& scaler,
                   const SessionOptions& options);

  /// CapturePlan with mu_ held.
  std::shared_ptr<const exec::ExecutionPlan> CaptureLocked(
      int64_t batch_size, std::string* error);

  /// Captures a plan, statically verifies it (when verify_plans is on), and
  /// caches plans that pass. Requires mu_ held. False (after logging) when
  /// capture or verification fails; the size keeps serving eagerly.
  bool CapturePlanLocked(int64_t batch_size);

  /// Whether `batch_size` has a cached plan that can replay. Requires mu_
  /// held. Plans bind the kernel backend they were captured under
  /// (exec/plan.h backend_name); after a switch they are dropped here.
  bool HasPlanLocked(int64_t batch_size);

  /// Drops every cached plan and its report, counting each as an
  /// invalidation. Requires mu_ held.
  void DropPlansLocked(const std::string& why);

  /// Replays the cached plan for `batch`'s batch size. Requires mu_ held.
  /// Returns the output pointer (plan output shape), or null after dropping
  /// plans that cannot replay (stale constants, foreign backend) or on a
  /// binding mismatch.
  const float* TryReplayLocked(const data::Batch& batch);

  /// A blank (all-zero window) request sized for this session.
  ForecastRequest BlankRequest() const;

  mutable std::mutex mu_;
  std::unique_ptr<train::ForecastingModel> model_;
  data::StandardScaler scaler_;
  SessionOptions options_;
  std::shared_ptr<BufferArena> arena_ = std::make_shared<BufferArena>();
  /// Captured plans keyed by batch size (ordered: padding picks the nearest
  /// size >= the request count).
  std::map<int64_t, std::unique_ptr<exec::PlanExecutor>> plans_;
  /// Verifier reports for `plans_`, same keys; dropped with their plans so a
  /// stale report never describes a live plan.
  std::map<int64_t, exec::VerifierReport> verify_reports_;
  SessionStats stats_;
};

}  // namespace d2stgnn::infer

#endif  // D2STGNN_INFER_SESSION_H_
