#ifndef D2STGNN_INFER_SESSION_HOST_H_
#define D2STGNN_INFER_SESSION_HOST_H_

#include <cstdint>
#include <memory>

#include "infer/session.h"

namespace d2stgnn::infer {

/// Anything that serves one (swappable) InferenceSession. CheckpointReloader
/// stages shadow sessions against this interface. The FleetServer hands
/// out one SessionHost per lane; a BatchingServer is itself one, forwarding
/// to the single lane of its private fleet.
class SessionHost {
 public:
  virtual ~SessionHost() = default;

  /// Atomically replaces the served session. In-flight work finishes on the
  /// old session (implementations pin it per batch); every later dispatch
  /// runs on `next`.
  virtual void SwapSession(std::shared_ptr<InferenceSession> next) = 0;

  /// The largest batch this host dispatches. Shadows are warmed with
  /// InferenceSession::WarmForServing at this size, so staged plans cover
  /// what the host will actually replay.
  virtual int64_t max_batch_size() const = 0;
};

}  // namespace d2stgnn::infer

#endif  // D2STGNN_INFER_SESSION_HOST_H_
