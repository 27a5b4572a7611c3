#ifndef D2STGNN_EXPERIMENT_LOAD_DRIVER_H_
#define D2STGNN_EXPERIMENT_LOAD_DRIVER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "infer/hot_reload.h"
#include "infer/session.h"
#include "train/forecasting_model.h"

// The open-loop load driver shared by every open-loop serving run — the
// overload and fleet scenarios (experiment/serving.h) and
// examples/serve_forecasts — plus the two setup steps those runs share:
// saturation calibration and hot-reload checkpoint staging.
//
// Open loop means each stream submits on its own fixed schedule whether or
// not earlier requests have resolved, like real traffic does; that is what
// makes shedding and deadline misses observable past saturation.

namespace d2stgnn::experiment {

/// How one submitted request ended.
struct LoadSample {
  int64_t window = 0;  ///< time window it was submitted in, [0, windows)
  bool ok = false;
  infer::RejectReason reason = infer::RejectReason::kNone;
  double latency_ms = 0.0;  ///< submit -> resolved
};

/// One open-loop request stream. `submit(seq)` runs on the stream's own
/// producer thread every 1/rate_rps seconds, with seq = 0, 1, 2, ...
/// counting this stream's submissions; the returned future is resolved by
/// the stream's harvester thread.
struct LoadStream {
  double rate_rps = 1.0;  ///< > 0
  std::function<std::future<infer::Forecast>(int64_t seq)> submit;
};

struct OpenLoopOptions {
  int64_t windows = 1;    ///< trajectory resolution, >= 1
  double window_s = 1.0;  ///< the run lasts windows * window_s seconds
  /// Runs on the calling thread every ~10 ms with the seconds elapsed, and
  /// once more after every request has resolved. Returning false stops the
  /// producers early. May be empty.
  std::function<bool(double elapsed_s)> on_tick;
};

/// Drives `streams` open loop and returns, per stream, one sample per
/// submission in submission order. Stream i of n makes its first
/// submission i/n of its period into the run, so equal-rate streams
/// interleave evenly.
std::vector<std::vector<LoadSample>> RunOpenLoop(
    const std::vector<LoadStream>& streams, const OpenLoopOptions& options);

/// Outcome counts of the samples submitted in one window.
struct WindowTally {
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t shed = 0;     ///< typed rejections other than deadline expiry
  int64_t expired = 0;  ///< kDeadlineExceeded
  std::vector<double> latencies_ms;  ///< completed requests only

  /// `count` as a share of the offered requests (0 when none were).
  double Share(int64_t count) const {
    return static_cast<double>(count) /
           static_cast<double>(std::max<int64_t>(offered, 1));
  }
  /// Adds `other`'s counts and latencies.
  WindowTally& operator+=(const WindowTally& other);
};

/// Buckets `samples` into `windows` tallies by LoadSample::window.
std::vector<WindowTally> TallyWindows(const std::vector<LoadSample>& samples,
                                      int64_t windows);

/// The saturated serving rate of a session at full batches.
struct Saturation {
  double rps = 0.0;       ///< requests per second
  double batch_us = 0.0;  ///< mean wall time of one full batch

  /// `deadline_ms` in microseconds, or (when it is 0) 5x the measured
  /// batch latency with a 5 ms floor.
  int64_t DeadlineUs(int64_t deadline_ms) const;
};

/// Warms `session` up at `batch_size`, then times `iters` batched forwards
/// of the head of `ring`: each batch's wall time lands in `batch_ms`, the
/// whole loop's in `elapsed_s`. False when a forward fails.
bool TimeBatches(infer::InferenceSession* session,
                 const std::vector<infer::ForecastRequest>& ring,
                 int64_t batch_size, int64_t iters,
                 std::vector<double>* batch_ms, double* elapsed_s,
                 std::string* error);

/// The saturated rate of `session`: five TimeBatches at `batch_size`.
bool CalibrateSaturation(infer::InferenceSession* session,
                         const std::vector<infer::ForecastRequest>& ring,
                         int64_t batch_size, Saturation* out,
                         std::string* error);

/// A twin checkpoint staged under live load: Open() prepares the watch
/// directory, DropAt() saves the twin into it once mid-run, and
/// WaitForSwap() blocks until the watching reloader has swapped it in.
/// Every step fails at once with the path and the underlying error.
class CheckpointStage {
 public:
  CheckpointStage() = default;
  CheckpointStage(const CheckpointStage&) = delete;
  CheckpointStage& operator=(const CheckpointStage&) = delete;
  /// Removes the directory when it was opened `fresh`.
  ~CheckpointStage();

  /// Creates `dir` and holds `twin` for DropAt(). A `fresh` directory is
  /// emptied first and belongs to the stage, which removes it on
  /// destruction.
  bool Open(const std::string& dir, bool fresh,
            std::unique_ptr<train::ForecastingModel> twin, std::string* error);

  /// Saves the twin as the step-1 checkpoint on the first call with
  /// `elapsed_s >= at_s`; every other call (and every call on an unopened
  /// stage) is a no-op returning true.
  bool DropAt(double elapsed_s, double at_s, std::string* error);

  /// Polls `reloader` until it reports a swap (60 s timeout). False when
  /// the twin was never saved or the swap never landed.
  bool WaitForSwap(const infer::CheckpointReloader& reloader,
                   std::string* error) const;

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::unique_ptr<train::ForecastingModel> twin_;
  bool fresh_ = false;
  bool saved_ = false;
};

}  // namespace d2stgnn::experiment

#endif  // D2STGNN_EXPERIMENT_LOAD_DRIVER_H_
