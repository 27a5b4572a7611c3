#ifndef D2STGNN_INFER_FLEET_FLEET_SERVER_H_
#define D2STGNN_INFER_FLEET_FLEET_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "infer/fleet/fleet.h"
#include "infer/overload.h"
#include "infer/session.h"
#include "infer/session_host.h"

// Fleet serving: one dispatcher, many models (DESIGN.md §14).
//
// The FleetServer routes ForecastRequests by model id into per-model
// micro-batch queues and dispatches them from a single thread, so dispatch
// order is a real scheduling decision instead of an accident of N
// independent servers racing for CPU. A batch never mixes models — plans
// are shape- and weight-specialized — so each dispatch picks one model and
// coalesces only that model's queue.
//
// The admission path, every rejection typed with a retry hint:
//
//   shutdown → validation (kBadRequest) → shared OverloadGovernor tier →
//   "server.admit" fault (kOverloaded) → shedding (kShedding refuses
//   low-priority requests and the lowest-priority SLO class) → shared
//   AdmissionController (hard bound on the *total* queue,
//   fleet-wide rate limit / EWMA shed) → FleetArbiter quota (kQuotaExceeded
//   once the shared queue is contended and this model is over its weighted
//   share) → per-model AdmissionController (tenant token bucket / EWMA
//   shed) → deadline stamp → enqueue.
//
// Dispatch: expired deadlines are swept across all lanes first; a lane is
// "ready" when its batch is full or its oldest request has aged past the
// (SLO-tightened, tier-shrunk) flush timer; the FleetArbiter picks among
// ready lanes by strict SLO priority, then weighted-fair virtual time.
//
// Hot reload: host(model_id) exposes a per-model SessionHost, so one
// CheckpointReloader per model (owned by the caller) stages and swaps into
// its own lane. A swap touches only that lane; in-flight batches pin the
// session they started with.
//
// This is the serving stack's only request dispatcher: a BatchingServer
// (infer/batching_server.h) is a facade over a one-lane FleetServer. With
// one lane the arbiter's quota is the whole queue, so kQuotaExceeded never
// fires before kQueueFull and the lane behaves as a plain bounded server.
//
// Every rejection at the shared queue reads "<reason> (depth D/C, active
// batch B[, detail])", with ", model '<id>'" appended when the fleet has
// more than one lane. The chaos fault points "server.admit",
// "server.deadline" and "infer.slow_consumer" fire on this path.

namespace d2stgnn::infer {

/// Fleet-wide serving knobs (per-model knobs live in FleetModelOptions).
struct FleetOptions {
  /// Hard bound on the *sum* of all per-model queues (<= 0: unbounded,
  /// which also disables degrade tiers and quotas).
  int64_t max_queue_depth = 4096;
  /// Shared admission gate across all models (the hard bound above plus an
  /// optional fleet-wide rate limit / EWMA shed).
  AdmissionOptions admission;
  /// Degradation-tier watermarks on total queue pressure.
  DegradeOptions degrade;
  /// max_wait_us divisor at tier kDegraded (and a further 2x at kCapped+).
  int64_t degraded_wait_divisor = 4;
  /// Fraction of max_queue_depth at which per-model quotas arm.
  double arbitration_watermark = 0.5;
  /// Injected time source (null: RealClock()).
  Clock* clock = nullptr;
};

/// Per-lane traffic counters (a consistent snapshot). BatchingServerStats
/// is this struct plus the fleet-level tier fields.
struct FleetModelStats {
  int64_t submitted = 0;
  int64_t rejected = 0;  ///< sum of the rejected_* reasons below
  int64_t completed = 0;
  int64_t cancelled = 0;
  int64_t batches = 0;
  int64_t full_flushes = 0;
  int64_t timeout_flushes = 0;
  int64_t shutdown_flushes = 0;
  int64_t max_queue_depth_seen = 0;

  int64_t rejected_bad_request = 0;
  int64_t rejected_queue_full = 0;
  int64_t rejected_rate_limited = 0;
  int64_t rejected_overloaded = 0;
  int64_t rejected_low_priority = 0;
  int64_t rejected_quota = 0;  ///< kQuotaExceeded (fleet arbitration)
  int64_t rejected_shutdown = 0;
  int64_t expired_deadlines = 0;  ///< accepted, then dropped in-queue

  int64_t session_swaps = 0;
  int64_t queue_depth = 0;       ///< at snapshot time
  double ewma_request_us = 0.0;  ///< per-model admission EWMA
};

/// Fleet-wide snapshot. The totals are sums over `models` (computed at
/// snapshot time, so they cannot drift from the per-model counters);
/// tier / transitions / unknown-model rejects are fleet-level.
struct FleetStats {
  int64_t submitted = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  int64_t cancelled = 0;
  int64_t batches = 0;
  int64_t expired_deadlines = 0;
  int64_t session_swaps = 0;

  int64_t rejected_unknown_model = 0;  ///< routed to no lane
  int64_t max_total_queue_depth_seen = 0;
  OverloadTier tier = OverloadTier::kNormal;
  int64_t degrade_transitions = 0;
  double ewma_request_us = 0.0;  ///< shared admission EWMA

  std::map<std::string, FleetModelStats> models;
};

/// One dispatcher thread serving every model registered in a ModelFleet.
class FleetServer {
 public:
  /// Copies `fleet`'s registrations (register every model first) and
  /// starts the dispatcher. The server keeps no reference to the fleet;
  /// session() is the live view across swaps.
  FleetServer(const ModelFleet* fleet, const FleetOptions& options);

  /// Graceful drain-and-join (Shutdown(true)).
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Enqueues one request for `model_id`. The future always becomes
  /// ready: with a prediction, or with ok=false and a typed RejectReason.
  std::future<Forecast> Submit(const std::string& model_id,
                               ForecastRequest request);

  /// Atomically replaces `model_id`'s session (hot reload). Only this
  /// model's lane is touched; when its options request warmup, `next` is
  /// warmed before the swap (already-planned sizes are not re-warmed).
  void SwapSession(const std::string& model_id,
                   std::shared_ptr<InferenceSession> next);

  /// The model's live session (nullptr for unknown ids).
  std::shared_ptr<InferenceSession> session(const std::string& model_id) const;

  /// The per-model SessionHost a CheckpointReloader targets. Stable for
  /// the server's lifetime; nullptr for unknown ids.
  SessionHost* host(const std::string& model_id);

  /// Stops accepting requests and joins the dispatcher. drain=true serves
  /// every queued request (all lanes); drain=false cancels them.
  /// Idempotent; the first call's drain mode wins.
  void Shutdown(bool drain = true);

  /// Total requests queued across all models.
  int64_t QueueDepth() const;

  FleetStats stats() const;
  const FleetOptions& options() const { return options_; }
  std::vector<std::string> model_ids() const;

 private:
  struct Pending {
    ForecastRequest request;
    std::promise<Forecast> promise;
    SteadyTime enqueued;
    SteadyTime deadline;
    bool has_deadline = false;
  };

  /// Adapts one lane to the SessionHost interface for CheckpointReloader.
  struct LaneHost : SessionHost {
    FleetServer* server = nullptr;
    const FleetModelOptions* lane = nullptr;
    void SwapSession(std::shared_ptr<InferenceSession> next) override {
      server->SwapSession(lane->model_id, std::move(next));
    }
    int64_t max_batch_size() const override { return lane->max_batch_size; }
  };

  struct Lane {
    FleetModelOptions options;
    int64_t base_wait_us = 0;  ///< max_wait_us after the SLO p99 cap
    std::shared_ptr<InferenceSession> session;
    int64_t plan_cap = 0;
    std::deque<Pending> queue;
    std::unique_ptr<AdmissionController> admission;
    FleetModelStats stats;
    LaneHost host;
  };

  void DispatcherLoop();
  int64_t TotalDepthLocked() const;
  int64_t EffectiveWaitUs(const Lane& lane, OverloadTier tier) const;
  int64_t EffectiveBatchCap(const Lane& lane, OverloadTier tier) const;
  /// Collects expired entries across all lanes (attributing per-lane
  /// stats). Requires mu_; the caller resolves the result unlocked.
  std::deque<Pending> TakeExpiredLocked(SteadyTime now);
  /// Runs the admission chain (degrade tier, admit fault, shedding, shared
  /// gate, quota, per-lane gate) for one request. Returns the rejection,
  /// or a Forecast with reason kNone when the request may be queued.
  Forecast AdmitLocked(Lane* lane, RequestPriority priority);
  /// The one rejection-message builder for the shared queue.
  std::string RejectErrorLocked(const Lane& lane, RejectReason reason,
                                const std::string& detail) const;
  void CountRejectLocked(Lane* lane, RejectReason reason);

  FleetOptions options_;
  Clock* clock_;
  /// The lowest-ranked SLO priority in the fleet: at tier kShedding these
  /// models' requests are refused alongside low-priority requests — but
  /// only when the fleet actually has more than one priority class
  /// (shedding *every* model would be worse than the overload).
  int64_t worst_slo_priority_ = 0;
  bool slo_shed_enabled_ = false;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, std::unique_ptr<Lane>> lanes_;  ///< guarded by mu_
  std::vector<std::string> ids_;  ///< registration order (immutable)
  FleetArbiter arbiter_;          ///< guarded by mu_
  bool shutdown_ = false;
  bool drain_ = true;
  int64_t max_total_depth_seen_ = 0;
  int64_t rejected_unknown_model_ = 0;
  AdmissionController shared_admission_;  ///< guarded by mu_
  OverloadGovernor governor_;             ///< guarded by mu_
  OverloadTier tier_ = OverloadTier::kNormal;
  int64_t degrade_transitions_ = 0;

  std::thread dispatcher_;
};

}  // namespace d2stgnn::infer

#endif  // D2STGNN_INFER_FLEET_FLEET_SERVER_H_
