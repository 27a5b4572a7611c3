#include "exec/plan_executor.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/kernels/registry.h"

namespace d2stgnn::exec {

PlanExecutor::PlanExecutor(std::shared_ptr<const ExecutionPlan> plan)
    : plan_(std::move(plan)) {
  D2_CHECK(plan_ != nullptr);
  slab_.assign(static_cast<size_t>(plan_->slab_floats()), 0.0f);

  size_t pool_size = 0;
  for (const PlanStep& step : plan_->steps()) pool_size += step.inputs.size();
  pointer_pool_.assign(pool_size, nullptr);
  states_.resize(plan_->steps().size());

  size_t pool_pos = 0;
  for (size_t s = 0; s < plan_->steps().size(); ++s) {
    const PlanStep& step = plan_->steps()[s];
    StepState& state = states_[s];
    state.inputs = pointer_pool_.data() + pool_pos;
    const SlotInfo& out_slot =
        plan_->slots()[static_cast<size_t>(step.output_slot)];
    state.output = slab_.data() + out_slot.offset;
    state.output_numel = out_slot.numel;
    for (const ValueRef& in : step.inputs) {
      switch (in.kind) {
        case ValueRef::Kind::kSlot:
          pointer_pool_[pool_pos] =
              slab_.data() +
              plan_->slots()[static_cast<size_t>(in.index)].offset;
          break;
        case ValueRef::Kind::kConstant:
          // ConstantsValid() (checked every Run) guarantees the constant
          // still lives at its captured address, so resolving once here is
          // safe; in-place mutation of the same buffer is picked up for
          // free because this is a pointer, not a snapshot.
          pointer_pool_[pool_pos] =
              plan_->constants()[static_cast<size_t>(in.index)].captured_data;
          break;
        case ValueRef::Kind::kInput:
          input_patches_.push_back(InputPatch{pool_pos, in.index});
          break;
      }
      ++pool_pos;
    }
    if (step.index_input >= 0) {
      index_patches_.push_back(IndexPatch{s, step.index_input});
    } else if (!step.baked_indices.empty()) {
      state.indices = &step.baked_indices;
    }
  }

  for (const auto& [begin, end] : plan_->levels()) {
    int64_t level_floats = 0;
    for (int32_t s = begin; s < end; ++s) {
      level_floats += states_[static_cast<size_t>(s)].output_numel;
    }
    parallel_levels_.push_back(end - begin > 1 &&
                               level_floats >= kernels::kEwiseGrain);
  }
}

ReplayStatus PlanExecutor::Run(
    const std::vector<InputBinding>& inputs,
    const std::vector<const std::vector<int64_t>*>& index_inputs,
    ReplayMode mode, std::string* error) {
  auto fail = [&](ReplayStatus status, const std::string& why) {
    if (error != nullptr) *error = why;
    return status;
  };
  if (inputs.size() != plan_->inputs().size()) {
    std::ostringstream os;
    os << "bound " << inputs.size() << " inputs, plan has "
       << plan_->inputs().size();
    return fail(ReplayStatus::kBindingMismatch, os.str());
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].data == nullptr ||
        inputs[i].numel != plan_->inputs()[i].numel) {
      std::ostringstream os;
      os << "input '" << plan_->inputs()[i].name << "' bound with "
         << inputs[i].numel << " floats, plan captured "
         << plan_->inputs()[i].numel;
      return fail(ReplayStatus::kBindingMismatch, os.str());
    }
  }
  if (index_inputs.size() != plan_->index_inputs().size()) {
    std::ostringstream os;
    os << "bound " << index_inputs.size() << " index inputs, plan has "
       << plan_->index_inputs().size();
    return fail(ReplayStatus::kBindingMismatch, os.str());
  }
  for (size_t i = 0; i < index_inputs.size(); ++i) {
    if (index_inputs[i] == nullptr ||
        static_cast<int64_t>(index_inputs[i]->size()) !=
            plan_->index_inputs()[i].count) {
      std::ostringstream os;
      os << "index input '" << plan_->index_inputs()[i].name
         << "' bound with "
         << (index_inputs[i] == nullptr
                 ? int64_t{-1}
                 : static_cast<int64_t>(index_inputs[i]->size()))
         << " indices, plan captured " << plan_->index_inputs()[i].count;
      return fail(ReplayStatus::kBindingMismatch, os.str());
    }
  }
  if (!plan_->ConstantsValid()) {
    return fail(ReplayStatus::kStaleConstants,
                "a captured constant's storage was reassigned");
  }
  if (plan_->backend_name() != kernels::ActiveBackend().name) {
    std::ostringstream os;
    os << "plan captured under kernel backend '" << plan_->backend_name()
       << "', active backend is '" << kernels::ActiveBackend().name << "'";
    return fail(ReplayStatus::kBackendMismatch, os.str());
  }

  for (const InputPatch& patch : input_patches_) {
    pointer_pool_[patch.pool_pos] =
        inputs[static_cast<size_t>(patch.input_id)].data;
  }
  for (const IndexPatch& patch : index_patches_) {
    states_[patch.step].indices =
        index_inputs[static_cast<size_t>(patch.index_id)];
  }

  for (size_t l = 0; l < plan_->levels().size(); ++l) {
    const auto& [begin, end] = plan_->levels()[l];
    if (mode == ReplayMode::kLevelParallel && parallel_levels_[l]) {
      // Steps of one level write disjoint slots, so any interleaving is
      // race-free. Their inner kernels run serially (nested ParallelFor),
      // but chunk boundaries — hence results — are unchanged.
      ParallelFor(begin, end, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t s = lo; s < hi; ++s) RunStep(static_cast<size_t>(s));
      });
    } else {
      // Inline levels bypass ParallelFor so each step's own kernel can
      // still parallelize (ParallelFor marks even its serial path as a
      // parallel region, which would force nested calls serial).
      for (int32_t s = begin; s < end; ++s) RunStep(static_cast<size_t>(s));
    }
  }

  output_ = slab_.data() +
            plan_->slots()[static_cast<size_t>(plan_->output_slot())].offset;
  return ReplayStatus::kOk;
}

void PlanExecutor::RunStep(size_t step_index) const {
  const PlanStep& step = plan_->steps()[step_index];
  const StepState& state = states_[step_index];
  if (step.zero_output) {
    std::fill(state.output, state.output + state.output_numel, 0.0f);
  }
  StepIo io;
  io.inputs = state.inputs;
  io.output = state.output;
  io.indices = state.indices;
  step.run(io);
}

}  // namespace d2stgnn::exec
