#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <cstdio>
#include <unordered_map>

namespace neurosketch {
namespace perfbench {

namespace {
double ClockSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::map<std::string, SelfTime> WriteTrace(
    const std::vector<const TraceBuffer*>& buffers, const std::string& path) {
  std::unordered_map<uint64_t, int64_t> child_ns;  // parent id -> covered ns
  for (const TraceBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::FILE* f = path.empty() ? nullptr : std::fopen(path.c_str(), "w");
  std::map<std::string, SelfTime> table;
  for (const TraceBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      const auto it = child_ns.find(s.id);
      const int64_t covered = it == child_ns.end() ? 0 : it->second;
      const int64_t self = std::max<int64_t>(0, s.end_ns - s.start_ns - covered);
      SelfTime& row = table[s.name];
      ++row.count;
      row.total_us += 1e-3 * static_cast<double>(self);
      row.self_us.push_back(1e-3 * static_cast<double>(self));
      if (f != nullptr) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"request\":%llu,\"id\":%llu,"
                     "\"parent\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"self_ns\":%lld}\n",
                     s.name, static_cast<unsigned long long>(s.request),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     static_cast<long long>(self));
      }
    }
  }
  if (f != nullptr) std::fclose(f);
  return table;
}

}  // namespace perfbench
}  // namespace neurosketch
