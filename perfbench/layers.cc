#include "layers.h"

#include <algorithm>
#include <cmath>

#include "nn/inference_plan.h"
#include "nn/mlp.h"
#include "tensor/matrix.h"

namespace neurosketch {
namespace perfbench {

namespace {

/// Replay length of each layer.
constexpr double kSecondsPerLayer = 0.25;

/// Calls `unit(i)` for i = 0, 1, ... (the caller wraps i over its input)
/// until `seconds` have passed, and returns the mean ns per unit. The
/// first `warm` units run untimed so lazily grown workspaces are warm.
template <typename Fn>
double NsPerUnit(double seconds, size_t warm, Fn&& unit) {
  for (size_t i = 0; i < warm; ++i) unit(i);
  const int64_t t0 = NowNs();
  const int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
  size_t n = 0;
  int64_t now = t0;
  do {
    for (size_t k = 0; k < 16; ++k) unit(n++);
    now = NowNs();
  } while (now < stop);
  return static_cast<double>(now - t0) / static_cast<double>(n);
}

struct Flat {
  uint32_t target;
  uint32_t query;
};

}  // namespace

void ReplayLayers(const ReplayInput& in, const NeuroSketchConfig& config,
                  RunResult* out) {
  const std::vector<QueryInstance>& pool = *in.pool;
  std::vector<Flat> flat;
  size_t burst_queries = 0;
  for (const RecordedBurst& b : in.stream) {
    for (uint32_t q : b.queries) flat.push_back({b.target, q});
    burst_queries += b.queries.size();
  }
  if (flat.empty()) return;
  const double mean_burst =
      static_cast<double>(burst_queries) / static_cast<double>(in.stream.size());
  const size_t batch = std::max<size_t>(1, static_cast<size_t>(std::lround(in.mean_batch)));
  const size_t qdim = pool[flat[0].query].dim();
  const double secs = kSecondsPerLayer;

  // Row-major copy of the stream's inputs, the layout plans consume.
  std::vector<double> x(flat.size() * qdim);
  for (size_t i = 0; i < flat.size(); ++i) {
    std::copy(pool[flat[i].query].q.begin(), pool[flat[i].query].q.end(),
              x.begin() + static_cast<std::ptrdiff_t>(i * qdim));
  }
  const size_t chunks = (flat.size() + batch - 1) / batch;
  auto chunk_rows = [&](size_t c) {
    return std::min(batch, flat.size() - c * batch);
  };

  // tensor + nn: a plan with the sketch's leaf architecture. Kernel cost
  // depends on the layer shapes, not on the trained weight values.
  const nn::MlpConfig mc = nn::MlpConfig::Paper(qdim, config.n_layers,
                                                config.l_first, config.l_rest);
  const nn::CompiledMlp plan = nn::CompiledMlp::FromMlp(nn::Mlp(mc, config.seed));
  double flops = 0.0;
  for (const nn::PlanLayer& l : plan.layers()) {
    flops += 2.0 * static_cast<double>(l.in * l.out) + static_cast<double>(l.out);
  }
  std::vector<double> ping(batch * plan.max_width()), pong(ping.size());
  std::vector<double> y(batch);
  const double gemm_ns = NsPerUnit(secs, chunks, [&](size_t i) {
    const size_t c = i % chunks;
    const size_t rows = chunk_rows(c);
    const double* src = x.data() + c * batch * qdim;
    double* dst = ping.data();
    for (const nn::PlanLayer& l : plan.layers()) {
      FusedDenseForward(src, rows, l.in, plan.params().data() + l.w_off,
                        plan.params().data() + l.b_off, l.act, dst, l.out);
      src = dst;
      dst = dst == ping.data() ? pong.data() : ping.data();
    }
  }) * static_cast<double>(chunks) / static_cast<double>(flat.size());
  out->Layer("tensor.gemm_ns_per_query", gemm_ns, "ns");
  out->Layer("tensor.flops_per_query", flops, "count");

  nn::Workspace& ws = nn::Workspace::ThreadLocal();
  volatile double sink = 0.0;
  out->Layer("nn.plan_single_ns", NsPerUnit(secs, flat.size(), [&](size_t i) {
               sink = sink + plan.PredictOne(x.data() + (i % flat.size()) * qdim, &ws);
             }), "ns");
  const double plan_batch_ns = NsPerUnit(secs, chunks, [&](size_t i) {
    const size_t c = i % chunks;
    plan.PredictBatch(x.data() + c * batch * qdim, chunk_rows(c), &ws, y.data());
  }) * static_cast<double>(chunks) / static_cast<double>(flat.size());
  out->Layer("nn.plan_batch_ns_per_query", plan_batch_ns, "ns");

  auto query_of = [&](size_t i) -> const QueryInstance& {
    return pool[flat[i % flat.size()].query];
  };
  auto target_of = [&](size_t i) -> const Target& {
    return in.targets[flat[i % flat.size()].target];
  };
  out->Layer("index.route_ns_per_query", NsPerUnit(secs, flat.size(), [&](size_t i) {
               const auto* leaf = target_of(i).sketch->tree().Route(query_of(i));
               sink = sink + (leaf != nullptr ? leaf->leaf_id : 0);
             }), "ns");

  const double answer_ns = NsPerUnit(secs, flat.size(), [&](size_t i) {
    sink = sink + target_of(i).sketch->Answer(query_of(i));
  });
  out->Layer("core.answer_ns", answer_ns, "ns");

  // core batches: each target's queries in stream order, cut at the
  // engine's observed mean batch size.
  std::vector<std::pair<const NeuroSketch*, std::vector<QueryInstance>>> core_batches;
  {
    std::vector<std::vector<QueryInstance>> per_target(in.targets.size());
    for (const Flat& f : flat) {
      auto& v = per_target[f.target];
      v.push_back(pool[f.query]);
      if (v.size() == batch) {
        core_batches.emplace_back(in.targets[f.target].sketch, std::move(v));
        v.clear();
      }
    }
    for (size_t t = 0; t < per_target.size(); ++t) {
      if (!per_target[t].empty()) {
        core_batches.emplace_back(in.targets[t].sketch, std::move(per_target[t]));
      }
    }
  }
  double core_batch_ns = NsPerUnit(secs, core_batches.size(), [&](size_t i) {
    const auto& [sketch, qs] = core_batches[i % core_batches.size()];
    sketch->AnswerBatchVectorizedTo(qs, y.data());
  });
  core_batch_ns *= static_cast<double>(core_batches.size()) /
                   static_cast<double>(flat.size());
  out->Layer("core.batch_ns_per_query", core_batch_ns, "ns");

  const double exact_ns = NsPerUnit(secs, 0, [&](size_t i) {
    const Target& t = target_of(i);
    sink = sink + t.exact->Answer(t.exact_spec, query_of(i));
  });
  out->Layer("query.exact_us_per_query", exact_ns * 1e-3, "us");

  // serve: the recorded bursts through a fresh engine over the workload's
  // own store, one closed-loop client; only Submit..answer is timed.
  double rt_ns = 0.0;
  {
    serve::ServeEngine engine(in.store, in.serve_options);
    auto run_burst = [&](const RecordedBurst& b) {
      const Target& t = in.targets[b.target];
      if (b.queries.size() == 1) {
        QueryInstance q = pool[b.queries[0]];
        const int64_t t0 = NowNs();
        sink = sink + engine.Submit(t.dataset, t.spec, std::move(q)).get().value;
        return NowNs() - t0;
      }
      std::vector<QueryInstance> qs;
      qs.reserve(b.queries.size());
      for (uint32_t q : b.queries) qs.push_back(pool[q]);
      const int64_t t0 = NowNs();
      sink = sink + engine.SubmitMany(t.dataset, t.spec, std::move(qs)).get()[0].value;
      return NowNs() - t0;
    };
    const size_t warm = std::min<size_t>(in.stream.size(), 256);
    for (size_t i = 0; i < warm; ++i) run_burst(in.stream[i]);
    int64_t busy = 0;
    size_t queries = 0;
    const int64_t stop = NowNs() + static_cast<int64_t>(secs * 1e9);
    for (size_t i = 0; NowNs() < stop; ++i) {
      const RecordedBurst& b = in.stream[i % in.stream.size()];
      busy += run_burst(b);
      queries += b.queries.size();
    }
    rt_ns = static_cast<double>(busy) / static_cast<double>(queries);
  }
  out->Layer("serve.engine.roundtrip_ns_per_query", rt_ns, "ns");
  out->Layer("serve.engine.overhead_ns_per_query",
             rt_ns - (mean_burst < 1.5 ? answer_ns : core_batch_ns), "ns");
  (void)sink;
}

}  // namespace perfbench
}  // namespace neurosketch
