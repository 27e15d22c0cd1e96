#ifndef DSKS_PERFBENCH_BENCH_UTIL_H_
#define DSKS_PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of dsks_perfbench.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// ScalePreset factor applied to the NA preset (1.0 = full size; the
  /// smoke test runs a small fraction).
  double scale = 1.0;
  /// Test hook: corrupts one reference answer so the check must fail.
  bool perturb_reference = false;
  /// Directory for the index file and the span dump.
  std::string work_dir = ".bench_build/run";
};

/// Parses `--key value` flags; returns false with `*error` set on bad
/// input.
bool ParseOptions(int argc, char** argv, Options* out, std::string* error);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Nearest-rank percentile (p in (0, 100]) of `v`; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

/// Peak resident set size of this process (VmHWM) in MiB.
double PeakRssMb();

/// Returns freed heap to the kernel (malloc_trim) and resets VmHWM to the
/// current resident size, so a later PeakRssMb() covers only what ran
/// after this call. Returns false if the kernel refused the reset.
bool ResetPeakRss();

/// Metrics in print order, each with its unit.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// One "METRIC <name> <value> <unit>" line per metric.
  void Print() const;
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// One bench-side span: a call into a layer, timed from outside it.
/// Spans of one request share `request`; `parent` indexes the span list
/// (-1 for a root).
struct Span {
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
};

/// In-memory span list, filled by one thread after each request completes
/// and written out once at the end of the run.
class SpanLog {
 public:
  int32_t Add(uint64_t request, const char* name, int64_t start_ns,
              int64_t end_ns, int32_t parent = -1);
  const std::vector<Span>& spans() const { return spans_; }
  /// JSON lines, times relative to the first span's start.
  bool WriteJsonl(const std::string& path) const;
  /// Per span name: count, median inclusive and median self time (a span
  /// minus the time its children cover), one "SPAN" line each.
  void PrintSummary() const;

 private:
  std::vector<Span> spans_;
};

/// 64-bit FNV-1a over raw bytes; chain calls through `h`.
uint64_t Fnv1a(const void* data, size_t len, uint64_t h = 1469598103934665603ULL);

}  // namespace perfbench

#endif  // DSKS_PERFBENCH_BENCH_UTIL_H_
