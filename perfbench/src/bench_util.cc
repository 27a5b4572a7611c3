#include "bench_util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "tensor/kernels/registry.h"

namespace perfbench {

double NowS() {
  static const SteadyClock::time_point origin = SteadyClock::now();
  return std::chrono::duration<double>(SteadyClock::now() - origin).count();
}

// ---------------------------------------------------------------------------
// Latency summaries.

double TailPercentile(int64_t n) {
  if (n <= kTailBeyond) return 100.0;
  return 100.0 * static_cast<double>(n - kTailBeyond) / static_cast<double>(n);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = static_cast<int64_t>(values.size());
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = Median(values);
  s.max = values.back();
  s.tail_pct = TailPercentile(s.n);
  // Nearest rank of the (n-10)-th order statistic (1-based), leaving ten
  // samples beyond it; the maximum when there are too few samples.
  s.tail = s.n > kTailBeyond ? values[static_cast<size_t>(s.n - kTailBeyond - 1)]
                             : s.max;
  return s;
}

// ---------------------------------------------------------------------------
// Open-loop arrival schedule.

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix64::UniformOpen() {
  // 53 random mantissa bits, shifted into (0, 1].
  return (static_cast<double>(Next() >> 11) + 1.0) * (1.0 / 9007199254740992.0);
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::vector<double> times;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return times;
  const auto count = static_cast<size_t>(std::llround(rate_per_s * duration_s));
  SplitMix64 rng(seed);
  times.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    times.push_back((1.0 - rng.UniformOpen()) * duration_s);  // [0, duration)
  }
  std::sort(times.begin(), times.end());
  return times;
}

// ---------------------------------------------------------------------------
// Metrics.

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

void MetricSet::Set(const std::string& name, const std::string& unit,
                    double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.unit = unit;
      m.value = value;
      return;
    }
  }
  metrics_.push_back({name, unit, value});
}

bool MetricSet::Has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

double MetricSet::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Run environment.

int AffinityCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

RunEnv DetectRunEnv() {
  RunEnv env;
  env.nproc = AffinityCpuCount();
  env.hardware_concurrency =
      static_cast<int>(std::thread::hardware_concurrency());
  env.active_backend = d2stgnn::kernels::ActiveBackend().name;
  env.detected_backend = d2stgnn::kernels::DetectedBackendName();
  env.cpu_features = d2stgnn::kernels::CpuFeatureSummary();
#ifdef PERFBENCH_BUILD_TYPE
  env.build_type = PERFBENCH_BUILD_TYPE;
#else
  env.build_type = "unknown";
#endif
  return env;
}

std::string CheckThreadBudget(const RunEnv& env) {
  if (env.pool_threads < 1) return "the kernel pool needs at least 1 thread";
  const int total =
      env.pool_threads + env.generator_threads + env.reload_threads;
  if (total > env.nproc) {
    return "refusing to oversubscribe: pool " +
           std::to_string(env.pool_threads) + " + generator " +
           std::to_string(env.generator_threads) + " + reload " +
           std::to_string(env.reload_threads) + " = " + std::to_string(total) +
           " threads > nproc " + std::to_string(env.nproc);
  }
  return "";
}

// ---------------------------------------------------------------------------
// Spans.

namespace {

int ThreadTag() {
  static std::mutex mu;
  static std::map<std::thread::id, int> tags;
  std::lock_guard<std::mutex> lock(mu);
  const auto [it, inserted] =
      tags.emplace(std::this_thread::get_id(), static_cast<int>(tags.size()) + 1);
  return it->second;
}

}  // namespace

int64_t Tracer::Begin(const std::string& name, int64_t parent) {
  if (!enabled_) return 0;
  const double now = NowS();
  const int tid = ThreadTag();
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = next_id_++;
  open_[id] = spans_.size();
  spans_.push_back({name, id, parent, now, now, tid, ""});
  return id;
}

void Tracer::End(int64_t id, const std::string& args) {
  if (!enabled_ || id == 0) return;
  const double now = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  Span& span = spans_[it->second];
  span.end_s = now;
  if (!args.empty()) span.args = args;
  open_.erase(it);
}

int64_t Tracer::Add(const std::string& name, int64_t parent, double start_s,
                    double end_s, const std::string& args) {
  if (!enabled_) return 0;
  const int tid = ThreadTag();
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = next_id_++;
  spans_.push_back({name, id, parent, start_s, end_s, tid, args});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::SelfTimes() const {
  const std::vector<Span> all = spans();
  std::map<int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].push_back({s.start_s, s.end_s});
  }
  std::map<std::string, double> self;
  for (const Span& s : all) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = 0.0, hi = -1.0;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_s);
        b = std::min(b, s.end_s);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    self[s.name] += std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return self;
}

bool Tracer::WriteTraceEvents(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"name\": \"" << JsonEscape(s.name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
        << ", \"ts\": " << JsonNumber(s.start_s * 1e6)
        << ", \"dur\": " << JsonNumber((s.end_s - s.start_s) * 1e6)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent;
    if (!s.args.empty()) out << ", " << s.args;
    out << "}}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<size_t>(std::max(n, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
