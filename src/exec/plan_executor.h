#ifndef D2STGNN_EXEC_PLAN_EXECUTOR_H_
#define D2STGNN_EXEC_PLAN_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/plan.h"

// Replays an ExecutionPlan (DESIGN.md §10). The executor owns the plan's
// slab and precomputed per-step pointer tables, so a replay is: validate
// bindings, patch the per-request input pointers, then walk the level
// schedule calling each step's kernel closure. No Tensor handles, no shape
// checks, no tape, no allocations.

namespace d2stgnn::exec {

/// How the executor walks the level schedule.
enum class ReplayMode {
  /// Steps run one after another in plan order.
  kSerial,
  /// Steps of one level run concurrently on the shared thread pool.
  /// Bitwise-identical to kSerial: same-level steps write disjoint slots
  /// and every kernel is thread-count-deterministic.
  kLevelParallel,
};

/// Outcome of PlanExecutor::Run.
enum class ReplayStatus {
  kOk,
  /// The caller's bindings do not match the plan (count or size mismatch).
  /// The plan itself is still valid for correctly-shaped requests.
  kBindingMismatch,
  /// A captured constant's storage was reassigned since capture (e.g. a
  /// checkpoint reload replaced parameter buffers). The plan is stale and
  /// must be rebuilt.
  kStaleConstants,
  /// The active kernel backend differs from the one the plan was captured
  /// under. The plan is valid, but only on its own backend — the caller
  /// must capture a fresh plan (the session keys its plan cache by backend
  /// name, so this is a programming-error guard, not a routine path).
  kBackendMismatch,
};

/// A per-request float binding: the buffer replacing one PlanInput, in
/// plan->inputs() order.
struct InputBinding {
  const float* data = nullptr;
  int64_t numel = 0;
};

class PlanExecutor {
 public:
  /// Allocates the slab and resolves every static pointer (slots and
  /// constants). The plan is shared and immutable; one executor instance
  /// owns mutable replay state and is NOT thread-safe — callers serialize
  /// Run() (InferenceSession holds its session mutex).
  explicit PlanExecutor(std::shared_ptr<const ExecutionPlan> plan);

  /// Replays the plan. `inputs` matches plan->inputs() by position,
  /// `index_inputs` matches plan->index_inputs() by position. On kOk the
  /// result is readable via output() until the next Run. On failure
  /// `error` (if non-null) describes the mismatch.
  ReplayStatus Run(const std::vector<InputBinding>& inputs,
                   const std::vector<const std::vector<int64_t>*>& index_inputs,
                   ReplayMode mode, std::string* error = nullptr);

  /// The output slot of the last successful Run (plan->output_shape()
  /// floats). Points into the slab.
  const float* output() const { return output_; }

  const ExecutionPlan& plan() const { return *plan_; }

 private:
  void RunStep(size_t step_index) const;

  std::shared_ptr<const ExecutionPlan> plan_;
  std::vector<float> slab_;
  /// Flattened per-step input pointer arrays. Slot and constant entries are
  /// filled at construction; kInput entries are patched each Run.
  std::vector<const float*> pointer_pool_;
  struct StepState {
    const float* const* inputs = nullptr;  // into pointer_pool_
    float* output = nullptr;               // into slab_
    int64_t output_numel = 0;
    const std::vector<int64_t>* indices = nullptr;
  };
  std::vector<StepState> states_;
  /// Per plan level: whether kLevelParallel spreads its steps over the
  /// thread pool. Levels of one step, or whose steps together write fewer
  /// than kEwiseGrain floats, run inline — a pool dispatch costs more than
  /// such a level's work, and waking workers per level dominated replay of
  /// small plans on multi-core hosts.
  std::vector<bool> parallel_levels_;
  /// Positions in pointer_pool_ to patch from the caller's input bindings.
  struct InputPatch {
    size_t pool_pos = 0;
    int32_t input_id = 0;
  };
  std::vector<InputPatch> input_patches_;
  /// Steps whose StepState::indices comes from the caller's index bindings.
  struct IndexPatch {
    size_t step = 0;
    int32_t index_id = 0;
  };
  std::vector<IndexPatch> index_patches_;
  const float* output_ = nullptr;
};

}  // namespace d2stgnn::exec

#endif  // D2STGNN_EXEC_PLAN_EXECUTOR_H_
