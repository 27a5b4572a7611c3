#include "infer/batching_server.h"

#include <memory>
#include <string>
#include <utility>

#include "common/check.h"

namespace d2stgnn::infer {

namespace {

/// The single lane's routing key (never shown: a one-lane fleet leaves the
/// model id out of its messages).
const char* const kLane = "model";

/// A fleet registering only the one lane. The FleetServer copies it at
/// construction, so it is dropped right after, and with it the fleet's
/// hold on the boot session (a hot swap then releases that session).
std::unique_ptr<ModelFleet> OnlyLane(std::shared_ptr<InferenceSession> session,
                                     const BatchingOptions& options) {
  FleetModelOptions lane;
  lane.model_id = kLane;
  lane.max_batch_size = options.max_batch_size;
  lane.max_wait_us = options.max_wait_us;
  lane.warmup = options.warmup;
  auto fleet = std::make_unique<ModelFleet>();
  std::string error;
  D2_CHECK(fleet->AddModel(std::move(session), lane, &error)) << error;
  return fleet;
}

FleetOptions SharedOptions(const BatchingOptions& options) {
  FleetOptions shared;
  shared.max_queue_depth = options.max_queue_depth;
  shared.admission = options.admission;
  shared.degrade = options.degrade;
  shared.degraded_wait_divisor = options.degraded_wait_divisor;
  return shared;
}

}  // namespace

BatchingServer::BatchingServer(std::shared_ptr<InferenceSession> session,
                               const BatchingOptions& options)
    : options_(options),
      server_(OnlyLane(std::move(session), options).get(),
              SharedOptions(options)) {}

BatchingServer::BatchingServer(InferenceSession* session,
                               const BatchingOptions& options)
    : BatchingServer(
          std::shared_ptr<InferenceSession>(session,
                                            [](InferenceSession*) {}),
          options) {}

std::future<Forecast> BatchingServer::Submit(ForecastRequest request) {
  return server_.Submit(kLane, std::move(request));
}

void BatchingServer::SwapSession(std::shared_ptr<InferenceSession> next) {
  server_.SwapSession(kLane, std::move(next));
}

std::shared_ptr<InferenceSession> BatchingServer::session() const {
  return server_.session(kLane);
}

void BatchingServer::Shutdown(bool drain) { server_.Shutdown(drain); }

int64_t BatchingServer::QueueDepth() const { return server_.QueueDepth(); }

BatchingServerStats BatchingServer::stats() const {
  const FleetStats fleet = server_.stats();
  BatchingServerStats stats;
  static_cast<FleetModelStats&>(stats) = fleet.models.at(kLane);
  stats.tier = fleet.tier;
  stats.degrade_transitions = fleet.degrade_transitions;
  stats.ewma_request_us = fleet.ewma_request_us;
  return stats;
}

}  // namespace d2stgnn::infer
