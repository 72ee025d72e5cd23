// nsbench: one run of one serving workload.
//
//   nsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --workdir <dir> [--trace-file <path>] [--commit <id>]
//
// Prints the environment stamp and per-run details, then, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any answer failed or mismatched its reference, 2 on a
// usage or set-up error (without a result line).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

#ifndef NSBENCH_COMPILER
#define NSBENCH_COMPILER "unknown"
#endif
#ifndef NSBENCH_FLAGS
#define NSBENCH_FLAGS "unknown"
#endif

namespace neurosketch {
namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "nsbench: %s\nusage: nsbench --workload <point_closed|batch_zipf|"
               "paged_cold|stream_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> [--trace-file <path>] [--commit <id>]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions o;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* endp = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &endp, 10);
      if (*endp != '\0') return Usage("bad --seed");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &endp);
      if (*endp != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) return Usage("bad --seconds");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--workdir") {
      o.workdir = v;
    } else if (a == "--trace-file") {
      o.trace_file = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (o.workdir.empty()) return Usage("--workdir is required");

  std::printf("env: {\"nproc\": %ld, \"hardware_threads\": %u, \"compiler\": %s, "
              "\"flags\": %s, \"commit\": %s, \"workload\": %s, \"seed\": %llu, "
              "\"seconds\": %s, \"trace\": %d}\n",
              sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
              JsonString(NSBENCH_COMPILER).c_str(), JsonString(NSBENCH_FLAGS).c_str(),
              JsonString(commit).c_str(), JsonString(o.workload).c_str(),
              static_cast<unsigned long long>(o.seed), JsonNumber(o.seconds).c_str(),
              o.trace ? 1 : 0);
  std::fflush(stdout);

  RunResult r;
  try {
    r = RunWorkload(o);
  } catch (const std::invalid_argument& e) {
    return Usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nsbench: %s\n", e.what());
    return 2;
  }

  for (const auto& [k, v] : r.details) std::printf("detail: %s: %s\n", k.c_str(), v.c_str());
  const std::vector<Metric>& metrics = o.trace ? r.per_layer : r.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("metric: %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace neurosketch

int main(int argc, char** argv) { return neurosketch::perfbench::Main(argc, argv); }
