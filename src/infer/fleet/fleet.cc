#include "infer/fleet/fleet.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace d2stgnn::infer {

const std::vector<SloClass>& BuiltinSloClasses() {
  static const std::vector<SloClass>* const classes =
      new std::vector<SloClass>{
          {"gold", /*priority=*/0, /*target_p99_ms=*/50, /*weight=*/4.0},
          {"silver", /*priority=*/1, /*target_p99_ms=*/150, /*weight=*/2.0},
          {"bronze", /*priority=*/2, /*target_p99_ms=*/400, /*weight=*/1.0},
      };
  return *classes;
}

bool ResolveSloClass(const std::string& name, SloClass* slo) {
  for (const SloClass& builtin : BuiltinSloClasses()) {
    if (builtin.name == name) {
      if (slo != nullptr) *slo = builtin;
      return true;
    }
  }
  return false;
}

FleetArbiter::FleetArbiter(int64_t shared_capacity,
                           double arbitration_watermark)
    : shared_capacity_(shared_capacity), watermark_(arbitration_watermark) {
  D2_CHECK_GE(watermark_, 0.0);
  D2_CHECK_LE(watermark_, 1.0);
}

void FleetArbiter::AddLane(const std::string& model_id, int64_t priority,
                           double weight, double queue_share) {
  D2_CHECK_GT(weight, 0.0);
  D2_CHECK(lanes_.find(model_id) == lanes_.end());
  Lane lane;
  lane.priority = priority;
  lane.weight = weight;
  lane.queue_share = queue_share;
  // A newcomer starts at the virtual floor: no retroactive credit for the
  // time before it existed.
  lane.virtual_time = virtual_floor_;
  lanes_.emplace(model_id, lane);
  total_weight_ += weight;
}

bool FleetArbiter::QuotaArmed(int64_t total_depth) const {
  if (shared_capacity_ <= 0) return false;
  return static_cast<double>(total_depth) >=
         watermark_ * static_cast<double>(shared_capacity_);
}

int64_t FleetArbiter::Quota(const std::string& model_id) const {
  if (shared_capacity_ <= 0) return std::numeric_limits<int64_t>::max();
  const auto it = lanes_.find(model_id);
  if (it == lanes_.end()) return 0;
  const Lane& lane = it->second;
  const double share = lane.queue_share > 0.0
                           ? lane.queue_share
                           : (total_weight_ > 0.0
                                  ? lane.weight / total_weight_
                                  : 0.0);
  const int64_t quota = static_cast<int64_t>(
      share * static_cast<double>(shared_capacity_));
  return std::max<int64_t>(quota, 1);
}

std::string FleetArbiter::Pick(const std::vector<std::string>& ready) const {
  std::string best;
  int64_t best_priority = 0;
  double best_vt = 0.0;
  for (const std::string& id : ready) {
    const auto it = lanes_.find(id);
    if (it == lanes_.end()) continue;
    const Lane& lane = it->second;
    // An idle lane's stale virtual time is floored: it competes from "now",
    // not from credit accumulated while it had nothing to send.
    const double vt = std::max(lane.virtual_time, virtual_floor_);
    if (best.empty() || lane.priority < best_priority ||
        (lane.priority == best_priority &&
         (vt < best_vt || (vt == best_vt && id < best)))) {
      best = id;
      best_priority = lane.priority;
      best_vt = vt;
    }
  }
  return best;
}

void FleetArbiter::Account(const std::string& model_id, int64_t batch_size) {
  const auto it = lanes_.find(model_id);
  if (it == lanes_.end() || batch_size <= 0) return;
  Lane& lane = it->second;
  const double start = std::max(lane.virtual_time, virtual_floor_);
  lane.virtual_time = start + static_cast<double>(batch_size) / lane.weight;
  // Start-time fairness: the floor tracks the start tag of the batch in
  // service, so lanes that go idle cannot fall behind it.
  virtual_floor_ = start;
}

bool ModelFleet::AddModel(std::shared_ptr<InferenceSession> session,
                          const FleetModelOptions& options,
                          std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (session == nullptr) return fail("fleet: null session");
  if (options.model_id.empty()) return fail("fleet: empty model_id");
  if (options.max_batch_size <= 0) {
    return fail("fleet: max_batch_size must be positive for model '" +
                options.model_id + "'");
  }
  if (options.max_wait_us < 0) {
    return fail("fleet: max_wait_us must be >= 0 for model '" +
                options.model_id + "'");
  }
  if (options.slo.weight <= 0.0) {
    return fail("fleet: slo weight must be positive for model '" +
                options.model_id + "'");
  }
  if (options.queue_share < 0.0 || options.queue_share > 1.0) {
    return fail("fleet: queue_share must be in [0, 1] for model '" +
                options.model_id + "'");
  }
  if (entries_.find(options.model_id) != entries_.end()) {
    return fail("fleet: duplicate model_id '" + options.model_id + "'");
  }
  entries_.emplace(options.model_id, Entry{options, std::move(session)});
  ids_.push_back(options.model_id);
  return true;
}

std::shared_ptr<InferenceSession> ModelFleet::session(
    const std::string& model_id) const {
  const auto it = entries_.find(model_id);
  return it == entries_.end() ? nullptr : it->second.session;
}

const FleetModelOptions* ModelFleet::model_options(
    const std::string& model_id) const {
  const auto it = entries_.find(model_id);
  return it == entries_.end() ? nullptr : &it->second.options;
}

}  // namespace d2stgnn::infer
