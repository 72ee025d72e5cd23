// Per-layer replay for the traced run: a workload's own recorded query
// stream is pushed through each layer's public entry point, lowest layer
// first (tensor -> nn -> index -> core -> serve), so each layer's cost
// over the one below it is a subtraction of ns/query figures.
#ifndef NEUROSKETCH_PERFBENCH_LAYERS_H_
#define NEUROSKETCH_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/neurosketch.h"
#include "harness.h"
#include "query/engine.h"
#include "serve/serve_engine.h"
#include "serve/sketch_store.h"

namespace neurosketch {
namespace perfbench {

/// One store key a workload sends to.
struct Target {
  std::string dataset;
  QueryFunctionSpec spec;           // as sent to the engine
  const NeuroSketch* sketch = nullptr;  // the sketch behind the key
  const ExactEngine* exact = nullptr;   // exact engine for the key's data
  QueryFunctionSpec exact_spec;     // spec with a real measure column
};

/// One client burst as the workload sent it (a single Submit is a burst
/// of one).
struct RecordedBurst {
  uint32_t target = 0;
  std::vector<uint32_t> queries;  // indices into the pool
};

struct ReplayInput {
  const std::vector<QueryInstance>* pool = nullptr;
  std::vector<Target> targets;
  std::vector<RecordedBurst> stream;
  /// Mean micro-batch size the engine formed during the measured run.
  double mean_batch = 1.0;
  /// Store the workload served from, and the engine options it used.
  const serve::SketchStore* store = nullptr;
  serve::ServeOptions serve_options;
};

/// Replays the stream through every layer and appends the tensor, nn,
/// index, core, query and serve.engine round-trip metrics to `out`.
void ReplayLayers(const ReplayInput& in, const NeuroSketchConfig& config,
                  RunResult* out);

}  // namespace perfbench
}  // namespace neurosketch

#endif  // NEUROSKETCH_PERFBENCH_LAYERS_H_
