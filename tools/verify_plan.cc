// verify_plan: static plan-IR verification across the model registry.
//
// For every model the experiment registry knows (statistical entries have
// no captured-plan surface and are skipped with a notice), the tool builds
// the model on a small synthetic network, captures an ExecutionPlan per
// requested batch size through InferenceSession::CapturePlan — the capture
// routine Warmup uses for the plans it serves — and runs
// exec/plan_verifier.h over it. Every error diagnostic is printed with
// step/op/level provenance.
//
// Exit codes: 0 = every captured plan verified clean, 2 = verification
// errors (what CI gates on), 1 = usage or model/capture failure.
//
// --inject flips the contract for CI's negative test: it captures one valid
// plan, applies each plan_mutator.h corruption class, and exits 2 only when
// the verifier caught *all* of them — a missed corruption exits 0 so the
// CI assertion of exit 2 fails loudly.

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "data/scaler.h"
#include "data/synthetic_traffic.h"
#include "exec/plan_mutator.h"
#include "exec/plan_verifier.h"
#include "experiment/registry.h"
#include "infer/session.h"
#include "tensor/kernels/registry.h"
#include "train/checkpoint.h"

namespace d2stgnn {
namespace {

struct ToolConfig {
  std::vector<int64_t> batch_sizes;
  std::string only_model;   // empty = every registry model
  std::string checkpoint;   // optional; requires --model
  int64_t num_nodes = 8;
  bool inject = false;
  bool verbose = false;
};

std::vector<int64_t> ParseBatchSizes(const std::string& csv,
                                     std::string* error) {
  std::vector<int64_t> sizes;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    try {
      const int64_t size = std::stoll(token);
      if (size <= 0) throw std::invalid_argument(token);
      sizes.push_back(size);
    } catch (const std::exception&) {
      *error = "bad --batch-sizes entry: '" + token + "'";
      return {};
    }
  }
  if (sizes.empty()) *error = "--batch-sizes is empty";
  return sizes;
}

/// Builds a session for one registry entry over a shared synthetic network.
std::unique_ptr<infer::InferenceSession> BuildSession(
    const experiment::ModelEntry& entry, const data::SyntheticTraffic& traffic,
    const data::StandardScaler& scaler, const ToolConfig& config,
    std::string* error) {
  baselines::ModelConfig model_config;
  model_config.num_nodes = config.num_nodes;
  model_config.steps_per_day = traffic.dataset.steps_per_day;
  Rng rng(7);
  auto model = experiment::BuildModel(
      entry, model_config, traffic.dataset.network.adjacency, rng, error);
  if (model == nullptr) return nullptr;
  if (!config.checkpoint.empty() &&
      !train::LoadCheckpoint(model.get(), config.checkpoint)) {
    *error = "checkpoint " + config.checkpoint + " rejected";
    return nullptr;
  }

  infer::SessionOptions session_options;
  session_options.num_nodes = config.num_nodes;
  session_options.input_len = model_config.input_len;
  session_options.steps_per_day = traffic.dataset.steps_per_day;
  session_options.use_plans = false;     // plans are captured, never served
  session_options.verify_plans = false;  // this tool runs the verifier itself
  auto session =
      infer::InferenceSession::Wrap(std::move(model), scaler, session_options);
  if (session == nullptr) *error = "session construction failed";
  return session;
}

int RunInject(infer::InferenceSession& session, int64_t batch_size) {
  std::string error;
  const auto plan = session.CapturePlan(batch_size, &error);
  if (plan == nullptr) {
    std::fprintf(stderr, "verify_plan: --inject capture failed: %s\n",
                 error.c_str());
    return 1;
  }
  const exec::VerifierReport baseline = exec::VerifyPlan(*plan);
  if (!baseline.ok()) {
    std::fprintf(stderr,
                 "verify_plan: --inject baseline plan is not clean:\n%s\n",
                 baseline.ToString().c_str());
    return 1;
  }

  struct Case {
    exec::PlanMutation mutation;
    const char* name;
  };
  const Case cases[] = {
      {exec::PlanMutation::kOverlapSameLevelWrites, "overlap-same-level-writes"},
      {exec::PlanMutation::kReadReusedSlabRegion, "read-reused-slab-region"},
      {exec::PlanMutation::kDanglingValueRef, "dangling-value-ref"},
      {exec::PlanMutation::kWrongZeroOutput, "wrong-zero-output"},
      {exec::PlanMutation::kStaleConstantPointer, "stale-constant-pointer"},
      {exec::PlanMutation::kCorruptBackend, "corrupt-backend"},
  };
  bool all_detected = true;
  for (const Case& c : cases) {
    const auto mutant = exec::MutatePlan(*plan, c.mutation);
    if (mutant == nullptr) {
      std::printf("inject %-28s NOT APPLICABLE (plan shape)\n", c.name);
      all_detected = false;
      continue;
    }
    const exec::VerifierReport report = exec::VerifyPlan(*mutant);
    std::printf("inject %-28s %s (%d error(s))\n", c.name,
                report.ok() ? "MISSED" : "detected", report.errors);
    if (report.ok()) all_detected = false;
  }
  // Detection is the expected outcome, so CI asserts exit 2; a missed
  // corruption exits 0 and fails that assertion loudly.
  return all_detected ? 2 : 0;
}

int Run(const ToolConfig& config) {
  data::SyntheticTrafficOptions traffic_options;
  traffic_options.network.num_nodes = config.num_nodes;
  traffic_options.network.neighbors = 2;
  traffic_options.num_steps = 128;
  traffic_options.seed = 31;
  const data::SyntheticTraffic traffic =
      data::GenerateSyntheticTraffic(traffic_options);
  data::StandardScaler scaler;
  scaler.Fit(traffic.dataset.values, traffic_options.num_steps * 2 / 3, true);

  if (config.inject) {
    experiment::ModelEntry entry;
    std::string error;
    const std::string name =
        config.only_model.empty() ? "D2STGNN" : config.only_model;
    if (!experiment::ResolveModel(name, &entry, &error)) {
      std::fprintf(stderr, "verify_plan: %s\n", error.c_str());
      return 1;
    }
    auto session = BuildSession(entry, traffic, scaler, config, &error);
    if (session == nullptr) {
      std::fprintf(stderr, "verify_plan: %s: %s\n", name.c_str(),
                   error.c_str());
      return 1;
    }
    return RunInject(*session, config.batch_sizes.front());
  }

  int verified = 0;
  int skipped = 0;
  int total_errors = 0;
  for (const experiment::ModelEntry& entry : experiment::AllModels()) {
    if (!config.only_model.empty() && entry.name != config.only_model) {
      continue;
    }
    if (entry.family == "statistical") {
      std::printf("%-20s skip (statistical: no captured-plan surface)\n",
                  entry.name.c_str());
      ++skipped;
      continue;
    }
    std::string error;
    auto session = BuildSession(entry, traffic, scaler, config, &error);
    if (session == nullptr) {
      std::fprintf(stderr, "verify_plan: %s: %s\n", entry.name.c_str(),
                   error.c_str());
      return 1;
    }
    for (const int64_t batch_size : config.batch_sizes) {
      const auto plan = session->CapturePlan(batch_size, &error);
      if (plan == nullptr) {
        std::fprintf(stderr, "verify_plan: %s batch-%lld capture failed: %s\n",
                     entry.name.c_str(),
                     static_cast<long long>(batch_size), error.c_str());
        return 1;
      }
      const exec::VerifierReport report = exec::VerifyPlan(*plan);
      ++verified;
      total_errors += report.errors;
      std::printf(
          "%-20s batch-%-3lld %s  steps=%zu levels=%zu slab=%lld  "
          "errors=%d advisories=%d frag=%.1f%%\n",
          entry.name.c_str(), static_cast<long long>(batch_size),
          report.ok() ? "ok  " : "FAIL", plan->steps().size(),
          plan->levels().size(),
          static_cast<long long>(plan->slab_floats()), report.errors,
          report.advisories, report.slab_fragmentation_pct);
      if (!report.ok() || config.verbose) {
        std::printf("%s\n", report.ToString().c_str());
      }
    }
  }
  std::printf("verify_plan: %d plan(s) verified, %d model(s) skipped, "
              "%d error(s)\n",
              verified, skipped, total_errors);
  if (verified == 0 && skipped == 0) {
    std::fprintf(stderr, "verify_plan: no model matched '%s'\n",
                 config.only_model.c_str());
    return 1;
  }
  return total_errors > 0 ? 2 : 0;
}

}  // namespace
}  // namespace d2stgnn

int main(int argc, char** argv) {
  d2stgnn::ToolConfig config;
  std::string batch_sizes_csv = "1,4";
  std::string backend;
  d2stgnn::FlagParser flags(
      "verify_plan",
      "statically verify captured execution plans across the model registry");
  flags.AddString("batch-sizes", &batch_sizes_csv,
                  "comma-separated batch sizes to capture and verify");
  flags.AddString("backend", &backend,
                  "kernel backend to capture plans under (scalar, avx2; "
                  "default: runtime detection, D2STGNN_FORCE_BACKEND "
                  "honored)");
  flags.AddString("model", &config.only_model,
                  "verify a single registry model (default: all)");
  flags.AddString("checkpoint", &config.checkpoint,
                  "optional checkpoint to load (requires --model)");
  flags.AddInt("num-nodes", &config.num_nodes,
               "synthetic network size the plans are captured at");
  flags.AddBool("inject", &config.inject,
                "corrupt a valid plan per mutation class; exit 2 when every "
                "corruption is detected");
  flags.AddBool("verbose", &config.verbose,
                "print the full report for clean plans too");
  if (!flags.Parse(argc, argv)) {
    if (flags.help_requested()) {
      std::fputs(flags.Usage().c_str(), stdout);
      return 0;
    }
    std::fprintf(stderr, "%s: %s\n%s", argv[0], flags.error().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  std::string error;
  if (!backend.empty() &&
      !d2stgnn::kernels::SetActiveBackend(backend, &error)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    return 1;
  }
  config.batch_sizes = d2stgnn::ParseBatchSizes(batch_sizes_csv, &error);
  if (config.batch_sizes.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    return 1;
  }
  if (!config.checkpoint.empty() && config.only_model.empty()) {
    std::fprintf(stderr, "%s: --checkpoint requires --model\n", argv[0]);
    return 1;
  }
  return d2stgnn::Run(config);
}
