// Shared pieces of the serving benchmark: run options, the result record
// every workload fills, sample statistics, CPU clocks, and the span
// recorder behind the traced run.
#ifndef NEUROSKETCH_PERFBENCH_HARNESS_H_
#define NEUROSKETCH_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace neurosketch {
namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;     // scratch files (the paged catalog) live here
  std::string trace_file;  // span dump of the traced run ("" = none)
};

/// One reported number. Metrics are printed in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main.
struct RunResult {
  uint64_t attempted = 0;  // queries sent
  uint64_t failed = 0;     // exceptions, failed appends, answers that differ
                           // from their reference
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Free-form lines printed before the result (sample counts, trace
  /// self-time table), one "key: value" each.
  std::vector<std::pair<std::string, std::string>> details;

  void E2e(const std::string& n, double v, const std::string& u) {
    end_to_end.push_back({n, v, u});
  }
  void Layer(const std::string& n, double v, const std::string& u) {
    per_layer.push_back({n, v, u});
  }
  void Detail(const std::string& k, const std::string& v) {
    details.emplace_back(k, v);
  }
};

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0, 100]); sorts a copy.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  return v[static_cast<size_t>(rank + 0.5)];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// CPU seconds of the whole process / of the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();
/// getrusage max resident set size, in MB.
double PeakRssMb();

/// One timed call at a layer boundary. Spans of one request share
/// `request`; `parent` is the id of the span that caused this one (0 for
/// a root).
struct Span {
  const char* name = "";
  uint64_t request = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-thread, in-memory span buffer. Disabled buffers record nothing, so
/// untraced runs pay one branch per call site. Ids are unique across
/// buffers (the buffer tag sits in the high bits).
class TraceBuffer {
 public:
  TraceBuffer(bool enabled, uint32_t tag) : enabled_(enabled), tag_(tag) {}

  bool enabled() const { return enabled_; }

  /// Records a span and returns its id (0 when disabled or full).
  uint64_t Add(const char* name, uint64_t request, uint64_t parent,
               int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return 0;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return 0;
    }
    const uint64_t id = (static_cast<uint64_t>(tag_) << 40) | (spans_.size() + 1);
    spans_.push_back(Span{name, request, id, parent, start_ns, end_ns});
    return id;
  }

  /// Next request id for this buffer's thread.
  uint64_t NewRequest() {
    return (static_cast<uint64_t>(tag_) << 40) | ++requests_;
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  static constexpr size_t kMaxSpans = 1u << 20;
  bool enabled_;
  uint32_t tag_;
  uint64_t requests_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Self time per span name: a span's duration minus the part of it its
/// child spans cover.
struct SelfTime {
  uint64_t count = 0;
  double total_us = 0.0;
  std::vector<double> self_us;
};

/// Merges the buffers, writes every span as one JSON line to `path`
/// (skipped when empty) and returns the per-name self-time table.
std::map<std::string, SelfTime> WriteTrace(
    const std::vector<const TraceBuffer*>& buffers, const std::string& path);

}  // namespace perfbench
}  // namespace neurosketch

#endif  // NEUROSKETCH_PERFBENCH_HARNESS_H_
