#ifndef D2STGNN_INFER_FLEET_FLEET_H_
#define D2STGNN_INFER_FLEET_FLEET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "infer/overload.h"
#include "infer/session.h"

// Multi-model fleet registry and arbitration policy (DESIGN.md §14).
//
// One serving process hosts many city models — the paper's four dataset
// presets plus synthetic cities — behind a single shared queue bound. Each
// model keeps its own InferenceSession (and therefore its own plan cache:
// plans are shape- and weight-specialized, so a batch never mixes models).
// What the models *share* is capacity, and sharing capacity fairly under
// overload is the point of this header:
//
//   * SloClass — a named serving tier (gold/silver/bronze): a strict
//     dispatch priority, a target p99 that tightens the flush timer, and a
//     weight that sizes the model's fair share of the shared queue.
//   * FleetArbiter — the pure arbitration policy: weight-proportional
//     admission quotas that arm once the shared queue passes a watermark,
//     and a (priority, weighted-fair virtual time) pick among dispatch-
//     ready models. No clocks, no threads — unit-testable in isolation.
//   * ModelFleet — the validated registration list: each model's options
//     and the session it was registered with.
//
// The FleetServer (fleet_server.h) reads the registry once and wires it to
// real queues and threads; from then on FleetServer::session() is the live
// view, and hot reload attaches to FleetServer::host() (a
// CheckpointReloader per reloaded model, owned by the caller).

namespace d2stgnn::infer {

/// A named serving tier. Lower `priority` is served first (strictly);
/// `weight` sets the model's share of contended capacity among equal
/// priorities and its admission quota; `target_p99_ms` is the latency
/// objective that tightens the model's batch flush timer (a model with a
/// 50ms objective must not sit out a 2ms coalescing window that was sized
/// for a 400ms one — the timer is capped at target_p99/8).
struct SloClass {
  std::string name = "standard";
  int64_t priority = 1;
  int64_t target_p99_ms = 0;  ///< 0: no objective, flush timer unchanged
  double weight = 1.0;
};

/// The built-in tiers: gold (priority 0, weight 4, 50ms), silver
/// (priority 1, weight 2, 150ms), bronze (priority 2, weight 1, 400ms).
const std::vector<SloClass>& BuiltinSloClasses();

/// Looks up a built-in tier by name; false (and `slo` untouched) when
/// unknown.
bool ResolveSloClass(const std::string& name, SloClass* slo);

/// Per-model serving configuration inside a fleet.
struct FleetModelOptions {
  std::string model_id;  ///< routing key (must be unique in the fleet)
  SloClass slo;
  /// Largest batch one forward serves for this model (plans are captured
  /// at this size and 1).
  int64_t max_batch_size = 8;
  /// Base coalescing window; capped at slo.target_p99_ms / 8 when the SLO
  /// sets an objective, and shrunk further under degrade tiers.
  int64_t max_wait_us = 2000;
  /// Per-model admission gate (token bucket, EWMA shed). The *hard* queue
  /// bound is fleet-wide; this gate shapes one tenant's arrival rate.
  AdmissionOptions admission;
  /// Explicit share of the shared queue for this model's quota, in (0, 1].
  /// 0: derived from slo.weight relative to the whole fleet.
  double queue_share = 0.0;
  /// Warm the session (capture plans) when the FleetServer starts.
  bool warmup = true;
};

/// Cross-model capacity arbitration. Externally synchronized (the
/// FleetServer calls it under its queue mutex). Two decisions live here:
///
///   1. Admission quotas — once the *shared* queue passes
///      `arbitration_watermark`, each model is capped at its weighted
///      share of the queue. Below the watermark any model may burst into
///      the free headroom (work-conserving); past it, an overloaded tenant
///      is typed-rejected (kQuotaExceeded) instead of squeezing out the
///      others.
///   2. Dispatch order — among models with a flushable batch, strict SLO
///      priority first; within a priority, start-time-fair queuing: each
///      model carries a virtual time advanced by batch_size / weight on
///      every dispatch, and the smallest virtual time wins. A model that
///      was idle re-enters at the current virtual floor, so it cannot
///      hoard credit and then monopolize the dispatcher.
class FleetArbiter {
 public:
  /// `shared_capacity` <= 0 disables quotas (an unbounded queue has no
  /// shares to protect).
  FleetArbiter(int64_t shared_capacity, double arbitration_watermark);

  /// Registers one model. `queue_share` as in FleetModelOptions.
  void AddLane(const std::string& model_id, int64_t priority, double weight,
               double queue_share = 0.0);

  /// True once the shared queue is contended enough for quotas to apply.
  bool QuotaArmed(int64_t total_depth) const;

  /// This model's admission cap on the shared queue (>= 1). Only enforced
  /// by callers when QuotaArmed(); INT64_MAX when quotas are disabled.
  int64_t Quota(const std::string& model_id) const;

  /// Picks the next model to dispatch among `ready` (each with a full or
  /// aged batch). Empty string when `ready` is empty.
  std::string Pick(const std::vector<std::string>& ready) const;

  /// Accounts one dispatched batch against `model_id`, advancing its
  /// weighted virtual time and the fleet-wide virtual floor.
  void Account(const std::string& model_id, int64_t batch_size);

 private:
  struct Lane {
    int64_t priority = 1;
    double weight = 1.0;
    double queue_share = 0.0;
    double virtual_time = 0.0;
  };

  int64_t shared_capacity_;
  double watermark_;
  double total_weight_ = 0.0;
  double virtual_floor_ = 0.0;
  std::map<std::string, Lane> lanes_;
};

/// The registration list: per-model options and sessions, validated on
/// AddModel. Register every model before constructing the FleetServer,
/// which copies the list once; the fleet is not synchronized, so it must
/// not be modified while another thread reads it.
class ModelFleet {
 public:
  ModelFleet() = default;
  ModelFleet(const ModelFleet&) = delete;
  ModelFleet& operator=(const ModelFleet&) = delete;

  /// Registers a model. False (with `*error` set, when given) on a null
  /// session, a duplicate or empty model_id, or invalid options.
  bool AddModel(std::shared_ptr<InferenceSession> session,
                const FleetModelOptions& options, std::string* error = nullptr);

  /// Registered model ids, in registration order.
  std::vector<std::string> model_ids() const { return ids_; }
  size_t size() const { return ids_.size(); }

  /// The session `model_id` was registered with, as registered: hot swaps
  /// do not update it (FleetServer::session is the live view). nullptr for
  /// unknown ids.
  std::shared_ptr<InferenceSession> session(const std::string& model_id) const;

  /// Registered options; nullptr for unknown ids. The pointer stays valid
  /// for the fleet's lifetime (entries are never removed).
  const FleetModelOptions* model_options(const std::string& model_id) const;

 private:
  struct Entry {
    FleetModelOptions options;
    std::shared_ptr<InferenceSession> session;
  };

  std::vector<std::string> ids_;
  std::map<std::string, Entry> entries_;
};

}  // namespace d2stgnn::infer

#endif  // D2STGNN_INFER_FLEET_FLEET_H_
