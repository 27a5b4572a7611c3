// Tests of the benchmark's own helpers: the tail-percentile rule, the seeded
// arrival schedule, the metric-name rule, and the metric specs. Exit 0 when
// every check holds; run by tests/test_perfbench.py.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void TailRule() {
  using perfbench::Summarize;
  using perfbench::TailPercentile;
  Expect(TailPercentile(100) == 90.0, "tail of 100 samples is p90");
  Expect(TailPercentile(1000) == 99.0, "tail of 1000 samples is p99");
  Expect(TailPercentile(10) == 100.0, "10 samples: no percentile, report max");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const perfbench::Summary s = Summarize(v);
  Expect(s.n == 100 && s.tail == 90.0, "p90 of 1..100 is 90");
  int beyond = 0;
  for (const double x : v) beyond += x > s.tail;
  Expect(beyond == 10, "exactly 10 samples lie beyond the tail");
  Expect(s.p50 == 50.5, "median of 1..100 is 50.5");
  const perfbench::Summary few = Summarize({3.0, 1.0, 2.0});
  Expect(few.tail == 3.0 && few.p50 == 2.0, "few samples: tail is the max");
  for (int n = 11; n < 300; n += 7) {
    std::vector<double> w;
    for (int i = 0; i < n; ++i) w.push_back(i);
    const perfbench::Summary t = Summarize(w);
    int b = 0;
    for (const double x : w) b += x > t.tail;
    if (b != 10) {
      Expect(false, "tail leaves exactly 10 beyond for every n");
      return;
    }
  }
  Expect(true, "tail leaves exactly 10 beyond for every n");
}

void Schedule() {
  using perfbench::PoissonSchedule;
  const std::vector<double> a = PoissonSchedule(42, 12.0, 5.0);
  const std::vector<double> b = PoissonSchedule(42, 12.0, 5.0);
  const std::vector<double> c = PoissonSchedule(43, 12.0, 5.0);
  Expect(a == b, "same seed, same schedule");
  Expect(a != c, "another seed, another schedule");
  Expect(a.size() == 60, "count is rate * duration");
  bool sorted_in_range = true;
  for (size_t i = 0; i < a.size(); ++i) {
    sorted_in_range &= a[i] >= 0.0 && a[i] < 5.0 && (i == 0 || a[i - 1] <= a[i]);
  }
  Expect(sorted_in_range, "arrivals sorted within [0, duration)");
  // Gaps of a Poisson process are exponential: mean 1/rate, CV near 1.
  const std::vector<double> long_run = PoissonSchedule(7, 10.0, 2000.0);
  double sum = 0.0, sum2 = 0.0;
  for (size_t i = 1; i < long_run.size(); ++i) {
    const double g = long_run[i] - long_run[i - 1];
    sum += g;
    sum2 += g * g;
  }
  const double n = static_cast<double>(long_run.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sum2 / n - mean * mean) / mean;
  Expect(std::fabs(mean - 0.1) < 0.005 && std::fabs(cv - 1.0) < 0.05,
         "gaps are exponential (mean 1/rate, CV ~ 1)");
}

void Names() {
  using perfbench::ValidMetricName;
  Expect(ValidMetricName("p50_ms"), "p50_ms is a valid name");
  Expect(ValidMetricName("kernels.dg.bmm_gflops-1t"), "dots and dashes are valid");
  Expect(ValidMetricName("2x"), "a name may start with a digit");
  Expect(!ValidMetricName(""), "empty name is invalid");
  Expect(!ValidMetricName("_x"), "leading underscore is invalid");
  Expect(!ValidMetricName("a b"), "space is invalid");
  Expect(!ValidMetricName("a/b"), "slash is invalid in a name");
  Expect(!ValidMetricName(std::string(65, 'a')), "65 letters is too long");
  Expect(ValidMetricName(std::string(64, 'a')), "64 letters is fine");
  std::set<std::string> seen;
  bool ok = true;
  for (const auto* spec :
       {&perfbench::EndToEndMetricSpec(), &perfbench::PerLayerMetricSpec()}) {
    for (const auto& [name, unit] : *spec) {
      ok &= ValidMetricName(name) && seen.insert(name).second && !unit.empty();
    }
  }
  Expect(ok, "every spec metric name is valid and used once");
}

}  // namespace

int main() {
  TailRule();
  Schedule();
  Names();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
