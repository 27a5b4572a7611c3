#ifndef D2STGNN_INFER_BATCHING_SERVER_H_
#define D2STGNN_INFER_BATCHING_SERVER_H_

#include <cstdint>
#include <future>
#include <memory>

#include "infer/fleet/fleet.h"
#include "infer/fleet/fleet_server.h"
#include "infer/overload.h"
#include "infer/session.h"
#include "infer/session_host.h"

// Micro-batching request server (DESIGN.md §9, §13).
//
// Concurrent producers Submit() single-window requests and get futures; the
// server coalesces queued requests into batches and runs them through one
// InferenceSession forward, amortizing the per-op dispatch cost of the
// model across the batch. The coalescing policy is the classic two-knob
// one: flush as soon as max_batch_size requests are waiting (full flush),
// or flush whatever is queued once the oldest request has waited
// max_wait_us (timeout flush), so sparse traffic is never stalled.
//
// A BatchingServer is a facade over the serving stack's one dispatcher: it
// owns a FleetServer built from a one-model ModelFleet and forwards every
// call to that single lane. Admission (bounded queue, rate limit, latency
// shed), deadlines, degrade tiers, hot reload and graceful shutdown
// therefore behave exactly as in a fleet (infer/fleet/fleet_server.h);
// with one lane the fleet's quota equals the whole queue, so kQueueFull
// always fires first and no request is ever refused as kQuotaExceeded.
//
// Shutdown is graceful: every accepted request's future is resolved — with
// its prediction when draining (the default), with ok=false / kCancelled
// otherwise. Submit after shutdown resolves immediately as kShuttingDown,
// whatever the payload.

namespace d2stgnn::infer {

/// Coalescing, backpressure, and overload knobs. They split onto the
/// fleet's: the queue bound, admission gate and degrade settings are
/// FleetOptions, the batch and warm-up settings are the lane's
/// FleetModelOptions.
struct BatchingOptions {
  /// Largest batch one forward serves (also the warm-up size).
  int64_t max_batch_size = 8;
  /// Longest a queued request may wait for its batch to fill before a
  /// partial batch is flushed (shrunk under degradation, see `degrade`).
  int64_t max_wait_us = 2000;
  /// Submit rejects once this many requests are queued (<= 0: unbounded;
  /// this also disables the queue-pressure degrade tiers).
  int64_t max_queue_depth = 4096;
  /// Run session warm-up forwards at batch sizes 1 and max_batch_size on
  /// construction (and on every SwapSession), so the first real requests
  /// already hit captured plans and the buffer pool.
  bool warmup = true;
  /// Admission gate in front of the queue (rate limit, latency shed).
  AdmissionOptions admission;
  /// Degradation-tier watermarks and hysteresis.
  DegradeOptions degrade;
  /// max_wait_us divisor at tier kDegraded (and a further 2x at kCapped+).
  int64_t degraded_wait_divisor = 4;
};

/// Counters describing server traffic (a consistent snapshot): the lane's
/// counters plus the fleet-level degrade tier. `ewma_request_us` is the
/// shared admission gate's estimate, the one its latency shed acts on.
struct BatchingServerStats : FleetModelStats {
  OverloadTier tier = OverloadTier::kNormal;  ///< current degrade tier
  int64_t degrade_transitions = 0;            ///< tier changes so far
};

/// One (swappable) InferenceSession behind the fleet dispatcher. Implements
/// SessionHost so a CheckpointReloader can target it directly.
class BatchingServer : public SessionHost {
 public:
  /// Borrows `session` (must outlive the server) and starts the dispatcher.
  BatchingServer(InferenceSession* session, const BatchingOptions& options);

  /// Shares ownership of `session` — required when SwapSession will retire
  /// it mid-flight.
  BatchingServer(std::shared_ptr<InferenceSession> session,
                 const BatchingOptions& options);

  /// Graceful drain-and-join (Shutdown(true)).
  ~BatchingServer() override = default;

  BatchingServer(const BatchingServer&) = delete;
  BatchingServer& operator=(const BatchingServer&) = delete;

  /// Enqueues one request. The future always becomes ready: with a
  /// prediction, or with ok=false and a typed RejectReason (shutdown,
  /// malformed request, admission rejection, expired deadline).
  std::future<Forecast> Submit(ForecastRequest request);

  /// Atomically replaces the served session (checkpoint hot-reload). The
  /// in-flight batch finishes on the old session and every later batch runs
  /// on `next`. When options().warmup is set, `next` is warmed before the
  /// swap; sizes it already has plans for are not warmed twice.
  void SwapSession(std::shared_ptr<InferenceSession> next) override;

  /// The currently served session (callers may briefly outlive a swap).
  std::shared_ptr<InferenceSession> session() const;

  /// Stops accepting requests and joins the dispatcher. drain=true serves
  /// everything already queued (in max_batch_size chunks, without waiting
  /// on the flush timer; expired requests still miss their deadline);
  /// drain=false resolves queued requests as kCancelled. Idempotent; the
  /// first call's drain mode wins.
  void Shutdown(bool drain = true);

  /// Requests currently queued (waiting for a batch).
  int64_t QueueDepth() const;

  BatchingServerStats stats() const;
  const BatchingOptions& options() const { return options_; }
  int64_t max_batch_size() const override { return options_.max_batch_size; }

 private:
  BatchingOptions options_;
  FleetServer server_;
};

}  // namespace d2stgnn::infer

#endif  // D2STGNN_INFER_BATCHING_SERVER_H_
