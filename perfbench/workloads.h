// Entry point of the four serving workloads (workloads.cc).
#ifndef NEUROSKETCH_PERFBENCH_WORKLOADS_H_
#define NEUROSKETCH_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace neurosketch {
namespace perfbench {

/// Runs `o.workload` (point_closed, batch_zipf, paged_cold or stream_mixed).
/// Throws std::invalid_argument for an unknown name and
/// std::runtime_error when set-up fails.
RunResult RunWorkload(const RunOptions& o);

}  // namespace perfbench
}  // namespace neurosketch

#endif  // NEUROSKETCH_PERFBENCH_WORKLOADS_H_
