#include "bench_util.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

namespace perfbench {

namespace {

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') {
    return false;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

bool ParseOptions(int argc, char** argv, Options* out, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--perturb-reference") {
      out->perturb_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + key;
      return false;
    }
    const std::string value = argv[++i];
    bool ok = true;
    if (key == "--workload") {
      out->workload = value;
    } else if (key == "--seed") {
      ok = ParseU64(value, &out->seed);
    } else if (key == "--seconds") {
      ok = ParseDouble(value, &out->seconds) && out->seconds > 0.0;
    } else if (key == "--trace") {
      ok = value == "0" || value == "1";
      out->trace = value == "1";
    } else if (key == "--scale") {
      ok = ParseDouble(value, &out->scale) && out->scale > 0.0 &&
           out->scale <= 1.0;
    } else if (key == "--work-dir") {
      out->work_dir = value;
    } else {
      *error = "unknown flag " + key;
      return false;
    }
    if (!ok) {
      *error = "bad value for " + key + ": " + value;
      return false;
    }
  }
  if (out->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  ::malloc_trim(0);
  // "5" resets the peak RSS (proc(5), /proc/pid/clear_refs).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back(Entry{name, value, unit});
}

void MetricSet::Print() const {
  for (const Entry& e : entries_) {
    std::printf("METRIC %-36s %.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // %.17g keeps every digit; non-finite values have no JSON spelling.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

int32_t SpanLog::Add(uint64_t request, const char* name, int64_t start_ns,
                     int64_t end_ns, int32_t parent) {
  spans_.push_back(Span{request, name, start_ns, end_ns, parent});
  return static_cast<int32_t>(spans_.size() - 1);
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    out << "{\"req\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << (s.start_ns - epoch)
        << ",\"end_ns\":" << (s.end_ns - epoch) << ",\"parent\":" << s.parent
        << "}\n";
  }
  return static_cast<bool>(out);
}

void SpanLog::PrintSummary() const {
  // Children per span, then self time = own interval minus the union of
  // the children's intervals clipped to it.
  std::vector<std::vector<int32_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(
          static_cast<int32_t>(i));
    }
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (const int32_t c : children[i]) {
      cover.emplace_back(std::max(s.start_ns, spans_[c].start_ns),
                         std::min(s.end_ns, spans_[c].end_ns));
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [a, b] : cover) {
      const int64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    auto& [incl, self] = by_name[s.name];
    incl.push_back(NsToMs(s.end_ns - s.start_ns));
    self.push_back(NsToMs(s.end_ns - s.start_ns - covered));
  }
  for (const auto& [name, samples] : by_name) {
    std::printf("SPAN %-22s count=%zu incl_p50_ms=%.4f self_p50_ms=%.4f\n",
                name.c_str(), samples.first.size(), Median(samples.first),
                Median(samples.second));
  }
}

uint64_t Fnv1a(const void* data, size_t len, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
