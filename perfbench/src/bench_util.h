#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

// Helpers the paper-scale benchmark shares across its workloads: latency
// summaries under the tail-percentile rule, the seeded open-loop arrival
// schedule, the metric record and its name rule, the run-environment record,
// and an in-memory span recorder written out as trace-event JSON.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Seconds since the first call in this process (the run's time origin).
double NowS();

// ---------------------------------------------------------------------------
// Latency summaries.

/// Minimum number of samples a reported tail percentile must leave beyond it.
inline constexpr int64_t kTailBeyond = 10;

/// The highest percentile with at least kTailBeyond samples beyond it, for
/// `n` samples: 100 * (n - 10) / n. Returns 100 (the maximum) when n <= 10,
/// where no percentile satisfies the rule; callers report the sample count.
double TailPercentile(int64_t n);

struct Summary {
  int64_t n = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  ///< TailPercentile(n)
  double tail = 0.0;      ///< the value at tail_pct (nearest rank)
  double max = 0.0;
};

/// Median (mean of the middle pair for even n) and the tail at
/// TailPercentile(n) by nearest rank: the (n-10)-th smallest sample, which
/// leaves exactly 10 larger-or-equal samples beyond it. Empty input gives a
/// zero summary.
Summary Summarize(std::vector<double> values);

double Median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Open-loop arrival schedule.

/// Deterministic 64-bit generator (splitmix64) for the schedule and request
/// choices, so they depend only on the seed and never on the library's Rng.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in (0, 1].
  double UniformOpen();

 private:
  uint64_t state_;
};

/// Poisson arrival times (seconds from the phase start) over [0, duration_s),
/// drawn from `seed` alone: the Poisson process at `rate_per_s` conditioned
/// on its expected count, i.e. round(rate * duration) uniform times, sorted.
/// Fixing the count keeps each phase's sample count, and so the percentile
/// its tail is reported at, the same for every seed.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s);

// ---------------------------------------------------------------------------
// Metrics.

/// A metric name starts with a letter or digit and has at most 64 letters,
/// digits, '_', '.' and '-'.
bool ValidMetricName(const std::string& name);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Ordered metric record of one run (insertion order is print order).
class MetricSet {
 public:
  void Set(const std::string& name, const std::string& unit, double value);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set of this process, MiB (getrusage ru_maxrss).
double PeakRssMb();

// ---------------------------------------------------------------------------
// Run environment and the thread budget.

struct RunEnv {
  int nproc = 0;                 ///< CPUs this process may run on
  int hardware_concurrency = 0;  ///< std::thread::hardware_concurrency()
  std::string active_backend;
  std::string detected_backend;
  std::string cpu_features;
  std::string build_type;
  int pool_threads = 0;  ///< ParallelFor threads, the caller included
  int generator_threads = 0;
  int reload_threads = 0;
};

/// CPUs in this process's affinity mask (what `nproc` prints).
int AffinityCpuCount();

/// Fills the machine fields of RunEnv.
RunEnv DetectRunEnv();

/// Empty when pool + generator + reload threads fit in nproc, else why not.
std::string CheckThreadBudget(const RunEnv& env);

// ---------------------------------------------------------------------------
// Spans.

/// One recorded span. Times are seconds since NowS()'s origin.
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;  ///< 0: root
  double start_s = 0.0;
  double end_s = 0.0;
  int tid = 0;
  std::string args;  ///< JSON object body (without braces), may be empty
};

/// In-memory span recorder. Disabled recorders drop everything, so the
/// untraced run pays one branch per span site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (0 when disabled).
  int64_t Begin(const std::string& name, int64_t parent = 0);
  void End(int64_t id, const std::string& args = "");
  /// Records a finished span with explicit times.
  int64_t Add(const std::string& name, int64_t parent, double start_s,
              double end_s, const std::string& args = "");

  std::vector<Span> spans() const;

  /// Self time per span name: each span's duration minus the union of its
  /// children's intervals, summed by name (seconds).
  std::map<std::string, double> SelfTimes() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool WriteTraceEvents(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<int64_t, size_t> open_;
  int64_t next_id_ = 1;
};

/// RAII span on a Tracer (no-op when the tracer is disabled).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

std::string JsonEscape(const std::string& s);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Formats a double with all its significant digits (JSON-safe; non-finite
/// values print as null).
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
