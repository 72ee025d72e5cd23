// The four serving workloads. Each one draws its served queries from the
// run seed, serves them through the public serve API (SketchStore,
// ServeEngine, RefreshController), checks every answer bit-for-bit
// against a reference, and reports end-to-end metrics; the traced run
// adds spans around every call into the library and a per-layer replay.
// README.md in this directory says why each workload exists.
#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench_common.h"
#include "core/catalog.h"
#include "core/drift.h"
#include "data/streaming_table.h"
#include "layers.h"
#include "serve/refresh.h"
#include "serve/serve_engine.h"
#include "serve/sketch_store.h"
#include "util/random.h"
#include "util/stats.h"

namespace neurosketch {
namespace perfbench {

namespace {

using serve::RefreshController;
using serve::RefreshOptions;
using serve::RefreshTarget;
using serve::ServedView;
using serve::ServeEngine;
using serve::ServeKey;
using serve::ServeOptions;
using serve::ServeResult;
using serve::ServeStats;
using serve::SketchStore;

// ---------------------------------------------------------------- settings

constexpr double kWarmupSeconds = 0.5;
constexpr size_t kSetupRepeats = 3;
constexpr size_t kResidentStores = 16;
constexpr size_t kPoolSize = 4096;
constexpr size_t kClients = 2;
/// Queries kept from each workload's stream for the per-layer replay.
constexpr size_t kRecordQueries = 16384;

// point_closed
constexpr double kPointSloUs = 200.0;
// batch_zipf
constexpr size_t kZipfBurst = 128;
constexpr double kZipfS = 0.99;
constexpr double kZipfSloUs = 1000.0;
// paged_cold
constexpr size_t kPagedSketches = 256;
constexpr size_t kPagedBurst = 16;
constexpr double kPagedBudgetFraction = 0.25;
constexpr double kPagedSloUs = 1000.0;
// stream_mixed
constexpr size_t kStreamPool = 4096;
constexpr size_t kStreamProbes = 128;
constexpr size_t kStreamRetrainQueries = 1000;
constexpr size_t kStreamBurst = 8;
constexpr double kAppendRate = 1000.0;  // rows per second
constexpr size_t kRefreshEveryRows = 3000;
constexpr size_t kCompactMinRows = 1536;
constexpr double kStreamSloUs = 20000.0;
/// Refresh validation bounds (normalized MAE on the drift probes), well
/// above what a retrained leaf reaches (about 0.07 and 0.03) and below
/// what the drifted sketch scores (0.14 and at least 0.06).
constexpr double kCountDriftBound = 0.10;
constexpr double kAvgDriftBound = 0.045;
constexpr uint64_t kStreamDataSeed = 97;

/// The engine configuration every workload serves with: the library
/// defaults except two dispatcher shards and no batching wait, so client
/// threads plus shards fit in four hardware threads.
ServeOptions BenchServeOptions() {
  ServeOptions o;
  o.num_shards = 2;
  o.batch_window_us = 0.0;
  return o;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Joins every thread when the scope ends, on exception paths too.
struct JoinAll {
  std::vector<std::thread>& threads;
  ~JoinAll() {
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

// ---------------------------------------------------------------- fixture

/// The system under test, rebuilt by every set-up: the PM dataset, the
/// shared bench sketch configuration trained on a fixed training set, and
/// a query pool drawn from the run seed with its reference and exact
/// answers. Only queries the sketch answers (not NaN) enter the pool, so
/// every served answer has a sketch reference.
struct Fixture {
  bench::Workbench wb;
  std::unique_ptr<ExactEngine> engine;
  std::shared_ptr<const NeuroSketch> sketch;
  std::vector<QueryInstance> pool;
  std::vector<double> ref;
  std::vector<double> truth;
};

std::shared_ptr<const NeuroSketch> TrainOrThrow(
    const std::vector<QueryInstance>& q, const std::vector<double>& a) {
  auto trained = NeuroSketch::Train(q, a, bench::DefaultSketchConfig());
  if (!trained.ok()) {
    throw std::runtime_error("train: " + trained.status().ToString());
  }
  return std::make_shared<const NeuroSketch>(std::move(trained).value());
}

std::vector<QueryInstance> DrawQueries(const Fixture& fx, const QueryFunctionSpec& spec,
                                       uint64_t seed, size_t n) {
  WorkloadConfig wc = bench::DefaultWorkload("PM", seed);
  WorkloadGenerator gen(fx.wb.data.normalized.num_columns(), wc);
  return gen.GenerateMany(n, fx.engine.get(), &spec);
}

/// Dataset + exact training answers + sketch. The dataset and training
/// set are fixed (they define the system); only served traffic varies
/// with the seed.
std::unique_ptr<Fixture> BuildBase(Aggregate agg) {
  auto fx = std::make_unique<Fixture>();
  fx->wb = bench::MakeWorkbench(bench::Prepare("PM", 1), agg,
                                bench::DefaultWorkload("PM", 11), 2000, 0);
  fx->engine = std::make_unique<ExactEngine>(&fx->wb.data.normalized);
  fx->sketch = TrainOrThrow(fx->wb.train_q, fx->wb.train_a);
  return fx;
}

std::unique_ptr<Fixture> BuildFixture(uint64_t seed) {
  std::unique_ptr<Fixture> fx = BuildBase(Aggregate::kAvg);
  const std::vector<QueryInstance> raw =
      DrawQueries(*fx, fx->wb.spec, Mix(seed, 1), kPoolSize);
  const std::vector<double> ref = fx->sketch->AnswerBatch(raw);
  const std::vector<double> truth = fx->engine->AnswerBatch(fx->wb.spec, raw, 0);
  for (size_t i = 0; i < raw.size(); ++i) {
    if (std::isnan(ref[i]) || std::isnan(truth[i])) continue;
    fx->pool.push_back(raw[i]);
    fx->ref.push_back(ref[i]);
    fx->truth.push_back(truth[i]);
  }
  if (fx->pool.size() < 64) throw std::runtime_error("query pool too small");
  return fx;
}

/// Runs `build` kSetupRepeats times (dropping the previous result first)
/// and records the median wall time as setup_s.
template <typename T, typename Build>
std::unique_ptr<T> TimedSetup(Build&& build, double* setup_s) {
  std::vector<double> times;
  std::unique_ptr<T> last;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    last.reset();
    const int64_t t0 = NowNs();
    last = build();
    times.push_back(1e-9 * static_cast<double>(NowNs() - t0));
  }
  *setup_s = Median(times);
  return last;
}

// ---------------------------------------------------------------- samples

/// Latency samples and answer counts of a measured phase, split into
/// one-second windows (samples keep their order inside a window). The
/// per-window p50 and p99 are printed as details, so a stall from outside
/// the process shows as the window it hit.
struct Windows {
  struct Window {
    std::vector<double> lat_us;
    uint64_t answers = 0;
  };
  int64_t start_ns = 0;
  int64_t width_ns = 1;
  std::vector<Window> w;

  Windows(int64_t start, double seconds) : start_ns(start) {
    const size_t n = static_cast<size_t>(std::max<long>(1, std::lround(seconds)));
    width_ns = static_cast<int64_t>(seconds * 1e9 / static_cast<double>(n));
    w.resize(n);
  }
  Window& At(int64_t t_ns) {
    int64_t i = (t_ns - start_ns) / width_ns;
    i = std::clamp<int64_t>(i, 0, static_cast<int64_t>(w.size()) - 1);
    return w[static_cast<size_t>(i)];
  }
  void Merge(const Windows& o) {
    for (size_t i = 0; i < w.size(); ++i) {
      w[i].lat_us.insert(w[i].lat_us.end(), o.w[i].lat_us.begin(), o.w[i].lat_us.end());
      w[i].answers += o.w[i].answers;
    }
  }
  std::vector<double> All() const {
    std::vector<double> all;
    for (const auto& x : w) all.insert(all.end(), x.lat_us.begin(), x.lat_us.end());
    return all;
  }
  double Qps() const {
    uint64_t answers = 0;
    for (const auto& x : w) answers += x.answers;
    return static_cast<double>(answers) * 1e9 /
           (static_cast<double>(width_ns) * static_cast<double>(w.size()));
  }
  /// The p99 of each run of kP99Group consecutive samples (twenty beyond
  /// the p99 each), and the median of those: the tail a client sees over a
  /// typical stretch of the run, which a rare stall of the host moves in
  /// one group only. Fewer than kMinP99Groups groups: the p99 of all
  /// samples, because the median of a few groups is one stretch of the
  /// run, and where the load changes over the run (stream_mixed) which
  /// stretch that is moves with the throughput.
  double P99() const {
    const std::vector<double> all = All();
    if (all.size() < kMinP99Groups * kP99Group) return Percentile(all, 99);
    const size_t groups = all.size() / kP99Group;
    std::vector<double> p99s;
    for (size_t g = 0; g < groups; ++g) {
      const size_t lo = g * all.size() / groups, hi = (g + 1) * all.size() / groups;
      p99s.push_back(Percentile(std::vector<double>(all.begin() + lo, all.begin() + hi), 99));
    }
    return Median(p99s);
  }
  size_t P99Groups() const {
    const size_t groups = All().size() / kP99Group;
    return groups < kMinP99Groups ? 1 : groups;
  }
  static constexpr size_t kP99Group = 2000;
  static constexpr size_t kMinP99Groups = 10;
};

/// Everything one measured phase produced.
struct Phase {
  explicit Phase(int64_t start, double seconds) : windows(start, seconds) {}
  Windows windows;
  uint64_t sent = 0;       // queries sent in the window
  uint64_t answers = 0;    // answers received
  uint64_t slo_met = 0;    // requests/bursts answered within the limit
  uint64_t units = 0;      // requests/bursts sent
  uint64_t failed = 0;     // exceptions + answers that differ from their reference
  double client_cpu_s = 0.0;
  double process_cpu_s = 0.0;
  double peak_rss_mb = 0.0;  // read when serving ends, before answer checks
  std::vector<double> late_us;  // client turnaround: answer -> next send
  ServeStats serve;
  std::vector<uint8_t> served;  // pool index -> answered at least once
};

double NormMaeOverServed(const Fixture& fx, const std::vector<uint8_t>& served) {
  std::vector<double> truth, pred;
  for (size_t i = 0; i < served.size(); ++i) {
    if (!served[i]) continue;
    truth.push_back(fx.truth[i]);
    pred.push_back(fx.ref[i]);
  }
  return stats::NormalizedMae(truth, pred);
}

void AddEndToEnd(const Phase& p, double setup_s, double norm_mae, RunResult* r) {
  const std::vector<double> all = p.windows.All();
  const double engine_cpu = std::max(0.0, p.process_cpu_s - p.client_cpu_s);
  r->E2e("setup_s", setup_s, "s");
  r->E2e("qps", p.windows.Qps(), "queries/s");
  r->E2e("latency_p50_us", Percentile(all, 50), "us");
  r->E2e("latency_p99_us", p.windows.P99(), "us");
  r->E2e("slo_met_frac",
         p.units == 0 ? 0.0 : static_cast<double>(p.slo_met) / static_cast<double>(p.units),
         "ratio");
  r->E2e("cpu_us_per_query",
         p.answers == 0 ? 0.0 : engine_cpu * 1e6 / static_cast<double>(p.answers), "us");
  r->E2e("norm_mae", norm_mae, "ratio");
  r->E2e("peak_rss_mb", p.peak_rss_mb, "MB");
  r->attempted += p.sent;
  r->failed += p.failed;
  r->Detail("latency_samples", std::to_string(all.size()) + " (p99 = median over " +
                                   std::to_string(p.windows.P99Groups()) + " groups)");
  std::string p50s, p99s;
  for (const auto& win : p.windows.w) {
    p50s += " " + std::to_string(static_cast<long>(Percentile(win.lat_us, 50)));
    p99s += " " + std::to_string(static_cast<long>(Percentile(win.lat_us, 99)));
  }
  r->Detail("window_p50_us", p50s.substr(1));
  r->Detail("window_p99_us", p99s.substr(1));
  r->Detail("failed_frac",
            std::to_string(p.sent == 0 ? 0.0 : static_cast<double>(p.failed) /
                                                   static_cast<double>(p.sent)));
}

/// serve.engine counters from the phase's ServeStats.
void AddEngineLayers(const Phase& p, const std::vector<TraceBuffer>& tbs, RunResult* r) {
  std::vector<double> submit_ns;
  for (const TraceBuffer& tb : tbs) {
    for (const Span& s : tb.spans()) {
      if (std::strcmp(s.name, "submit") == 0) {
        submit_ns.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
  }
  const ServeStats& s = p.serve;
  uint64_t backpressure = 0, max_q = 0, sum_q = 0;
  for (const auto& sh : s.per_shard) {
    backpressure += sh.backpressure_waits;
    max_q = std::max(max_q, sh.queries);
    sum_q += sh.queries;
  }
  const double mean_q = s.per_shard.empty()
                            ? 0.0
                            : static_cast<double>(sum_q) / static_cast<double>(s.per_shard.size());
  r->Layer("serve.engine.submit_ns", Median(submit_ns), "ns");
  r->Layer("serve.engine.queue_p50_us", s.stage_queue.p50_us, "us");
  r->Layer("serve.engine.queue_p99_us", s.stage_queue.p99_us, "us");
  r->Layer("serve.engine.inference_p50_us", s.stage_inference.p50_us, "us");
  r->Layer("serve.engine.fulfill_p50_us", s.stage_fulfill.p50_us, "us");
  r->Layer("serve.engine.mean_batch", s.mean_batch_size, "count");
  r->Layer("serve.engine.backpressure_waits", static_cast<double>(backpressure), "count");
  r->Layer("serve.engine.shard_imbalance",
           mean_q == 0.0 ? 0.0 : static_cast<double>(max_q) / mean_q, "ratio");
  r->Layer("serve.engine.fallback_answers", static_cast<double>(s.fallback_answers), "count");
  r->Layer("serve.engine.failed_answers", static_cast<double>(s.failed_answers), "count");
}

/// Layers a workload does not exercise report 0: the work they did.
void AddIdleStoreLayers(RunResult* r) {
  r->Layer("serve.store.faultins", 0.0, "count");
  r->Layer("serve.store.hits", 0.0, "count");
  r->Layer("serve.store.hit_ratio", 0.0, "ratio");
  r->Layer("serve.store.evictions", 0.0, "count");
  r->Layer("serve.store.faultin_p50_us", 0.0, "us");
  r->Layer("serve.store.faultin_p99_us", 0.0, "us");
  r->Layer("serve.store.peak_resident_bytes", 0.0, "B");
}

void AddIdleStreamLayers(RunResult* r) {
  r->Layer("serve.delta.append_ns_per_row", 0.0, "ns");
  r->Layer("serve.delta.append_p99_us", 0.0, "us");
  r->Layer("serve.delta.live_rows_mean", 0.0, "count");
  r->Layer("serve.delta.peak_rows", 0.0, "count");
  r->Layer("serve.delta.peak_bytes", 0.0, "B");
  r->Layer("serve.delta.corrected_answers", 0.0, "count");
  r->Layer("serve.delta.exact_answers", 0.0, "count");
  r->Layer("serve.refresh.pass_ms", 0.0, "ms");
  r->Layer("serve.refresh.compact_ms", 0.0, "ms");
  r->Layer("serve.refresh.retrained_leaf_ratio", 0.0, "ratio");
  r->Layer("serve.refresh.swaps", 0.0, "count");
  r->Layer("serve.refresh.failures", 0.0, "count");
  r->Layer("serve.refresh.folded_rows", 0.0, "count");
  r->Layer("serve.refresh.trimmed_rows", 0.0, "count");
}

void AddBuildLayers(const NeuroSketch& sketch, RunResult* r) {
  r->Layer("core.partition_s", sketch.stats().partition_seconds, "s");
  r->Layer("core.train_s", sketch.stats().train_seconds, "s");
  r->Layer("core.calibrate_s", sketch.stats().calibrate_seconds, "s");
}

/// Self-time table and trace file for the traced phase.
void FinishTrace(const RunOptions& o, const std::vector<const TraceBuffer*>& bufs,
                 double p50_untraced, double p50_traced, RunResult* r) {
  const auto table = WriteTrace(bufs, o.trace_file);
  uint64_t spans = 0, dropped = 0;
  for (const TraceBuffer* b : bufs) {
    spans += b->spans().size();
    dropped += b->dropped();
  }
  for (const auto& [name, row] : table) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "count=%llu self_p50_us=%.3f self_mean_us=%.3f",
                  static_cast<unsigned long long>(row.count), Percentile(row.self_us, 50),
                  row.total_us / static_cast<double>(row.count));
    r->Detail("self_time." + name, buf);
  }
  r->Detail("trace_spans", std::to_string(spans) + " (dropped " + std::to_string(dropped) + ")");
  if (!o.trace_file.empty()) r->Detail("trace_file", o.trace_file);
  r->Layer("trace.overhead_pct",
           p50_untraced > 0.0 ? 100.0 * (p50_traced / p50_untraced - 1.0) : 0.0, "%");
}

// ---------------------------------------------------------------- resident stores

struct ResidentSetup {
  std::unique_ptr<Fixture> fx;
  SketchStore store;
  std::vector<Target> targets;
};

/// 16 resident stores, one dataset name each, sharing the fixture's
/// sketch and exact engine.
std::unique_ptr<ResidentSetup> BuildResident(uint64_t seed) {
  auto s = std::make_unique<ResidentSetup>();
  s->fx = BuildFixture(seed);
  const Fixture& fx = *s->fx;
  for (size_t i = 0; i < kResidentStores; ++i) {
    const std::string ds = "pm" + std::to_string(i);
    (void)s->store.RegisterDataset(ds, fx.engine.get());
    auto reg = s->store.Register(ds, fx.wb.spec, fx.sketch);
    if (!reg.ok()) throw std::runtime_error("register: " + reg.status().ToString());
    s->targets.push_back(Target{ds, fx.wb.spec, fx.sketch.get(), fx.engine.get(), fx.wb.spec});
  }
  return s;
}

// ---------------------------------------------------------------- closed loops

/// How a closed-loop workload drives the engine.
struct LoopShape {
  size_t clients = kClients;
  size_t burst = 1;  // 1 = single Submit, otherwise SubmitMany
  double slo_us = 0.0;
};

/// `shape.clients` threads each send a request or burst, wait for it, and
/// send the next, drawing the target store from `cdf` each time. Every
/// answer is compared against the pool reference as it arrives.
Phase RunClosedLoop(ServeEngine& eng, const Fixture& fx, const std::vector<Target>& targets,
                    const std::vector<double>& cdf, const LoopShape& shape,
                    uint64_t seed, double seconds, std::vector<TraceBuffer>* tbs,
                    std::vector<RecordedBurst>* record) {
  const size_t clients = shape.clients, burst = shape.burst;
  const int64_t t_begin = NowNs();
  const int64_t w0 = t_begin + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t end = w0 + static_cast<int64_t>(seconds * 1e9);
  Phase total(w0, seconds);
  total.served.assign(fx.pool.size(), 0);
  std::vector<Phase> per(clients, Phase(w0, seconds));
  std::vector<std::vector<RecordedBurst>> recs(clients);

  auto client = [&](size_t c) {
    Phase& p = per[c];
    p.served.assign(fx.pool.size(), 0);
    TraceBuffer& tb = (*tbs)[c];
    Rng rng(Mix(seed, c));
    bool measuring = false;
    double cpu0 = 0.0;
    int64_t last_answer = 0;
    std::vector<uint32_t> idx(burst);
    while (true) {
      const int64_t now = NowNs();
      if (now >= end) break;
      if (!measuring && now >= w0) {
        measuring = true;
        cpu0 = ThreadCpuSeconds();
      }
      const double u = rng.Uniform();
      const uint32_t t = static_cast<uint32_t>(
          std::min<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
                           targets.size() - 1));
      std::vector<QueryInstance> qs;
      qs.reserve(burst);
      for (size_t j = 0; j < burst; ++j) {
        idx[j] = static_cast<uint32_t>(rng.Index(fx.pool.size()));
        qs.push_back(fx.pool[idx[j]]);
      }
      const uint64_t req = tb.enabled() ? tb.NewRequest() : 0;
      std::vector<ServeResult> res;
      bool ok = true;
      const int64_t t0 = NowNs();
      int64_t t1 = 0;
      try {
        if (burst == 1) {
          auto fut = eng.Submit(targets[t].dataset, targets[t].spec, std::move(qs[0]));
          if (tb.enabled()) t1 = NowNs();
          res.push_back(fut.get());
        } else {
          auto fut = eng.SubmitMany(targets[t].dataset, targets[t].spec, std::move(qs));
          if (tb.enabled()) t1 = NowNs();
          res = fut.get();
        }
      } catch (...) {
        ok = false;
      }
      const int64_t t2 = NowNs();
      if (tb.enabled()) {
        const uint64_t root = tb.Add(burst == 1 ? "request" : "burst", req, 0, t0, t2);
        tb.Add("submit", req, root, t0, t1);
        tb.Add("wait", req, root, t1, t2);
      }
      const int64_t prev = last_answer;
      last_answer = t2;
      if (t0 < w0) continue;
      if (prev != 0) p.late_us.push_back(1e-3 * static_cast<double>(t0 - prev));
      ++p.units;
      p.sent += burst;
      if (recs[c].size() * burst < kRecordQueries / clients) {
        recs[c].push_back(RecordedBurst{t, idx});
      }
      if (!ok || res.size() != burst) {
        p.failed += burst;
        continue;
      }
      bool all_ok = true;
      for (size_t j = 0; j < burst; ++j) {
        if (SameBits(res[j].value, fx.ref[idx[j]])) {
          p.served[idx[j]] = 1;
        } else {
          ++p.failed;
          all_ok = false;
        }
      }
      const double lat = 1e-3 * static_cast<double>(t2 - t0);
      Windows::Window& win = p.windows.At(t2);
      win.lat_us.push_back(lat);
      win.answers += burst;
      p.answers += burst;
      if (all_ok && lat <= shape.slo_us) ++p.slo_met;
    }
    p.client_cpu_s = ThreadCpuSeconds() - cpu0;
  };

  std::vector<std::thread> threads;
  JoinAll join_clients{threads};
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(w0)));
  eng.ResetStats();
  const double pcpu0 = ProcessCpuSeconds();
  for (auto& th : threads) th.join();
  total.process_cpu_s = ProcessCpuSeconds() - pcpu0;
  total.peak_rss_mb = PeakRssMb();
  total.serve = eng.Snapshot();
  for (size_t c = 0; c < clients; ++c) {
    const Phase& p = per[c];
    total.windows.Merge(p.windows);
    total.late_us.insert(total.late_us.end(), p.late_us.begin(), p.late_us.end());
    total.sent += p.sent;
    total.answers += p.answers;
    total.units += p.units;
    total.slo_met += p.slo_met;
    total.failed += p.failed;
    total.client_cpu_s += p.client_cpu_s;
    for (size_t i = 0; i < p.served.size(); ++i) total.served[i] |= p.served[i];
    for (auto& b : recs[c]) record->push_back(std::move(b));
  }
  return total;
}

std::vector<TraceBuffer> Buffers(bool enabled, size_t clients) {
  std::vector<TraceBuffer> v;
  for (size_t c = 0; c < clients; ++c) v.emplace_back(enabled, static_cast<uint32_t>(c + 1));
  return v;
}

/// Shared body of the closed-loop workloads: untraced phase for the
/// end-to-end metrics; in a traced run a second, traced phase plus the
/// layer replay.
RunResult RunClosed(const RunOptions& o, const Fixture& fx, const SketchStore& store,
                    const std::vector<Target>& targets, const std::vector<double>& cdf,
                    const LoopShape& shape, double setup_s,
                    const std::function<void(const Phase&, RunResult*)>& store_layers) {
  RunResult r;
  ServeEngine eng(&store, BenchServeOptions());
  std::vector<TraceBuffer> off = Buffers(false, shape.clients);
  std::vector<RecordedBurst> record;
  Phase p = RunClosedLoop(eng, fx, targets, cdf, shape, Mix(o.seed, 2), o.seconds, &off,
                          &record);
  if (!o.trace) {
    AddEndToEnd(p, setup_s, NormMaeOverServed(fx, p.served), &r);
    return r;
  }
  std::vector<TraceBuffer> on = Buffers(true, shape.clients);
  std::vector<RecordedBurst> unused;
  Phase pt = RunClosedLoop(eng, fx, targets, cdf, shape, Mix(o.seed, 3), o.seconds, &on,
                           &unused);
  r.attempted = p.sent + pt.sent;
  r.failed = p.failed + pt.failed;
  AddEngineLayers(pt, on, &r);
  ReplayInput in;
  in.pool = &fx.pool;
  in.targets = targets;
  in.stream = std::move(record);
  in.mean_batch = pt.serve.mean_batch_size;
  in.store = &store;
  in.serve_options = BenchServeOptions();
  ReplayLayers(in, bench::DefaultSketchConfig(), &r);
  AddBuildLayers(*fx.sketch, &r);
  store_layers(pt, &r);
  AddIdleStreamLayers(&r);
  r.Layer("loadgen.late_p99_us", Percentile(pt.late_us, 99), "us");
  std::vector<const TraceBuffer*> bufs;
  for (const TraceBuffer& tb : on) bufs.push_back(&tb);
  FinishTrace(o, bufs, Percentile(p.windows.All(), 50), Percentile(pt.windows.All(), 50), &r);
  return r;
}

RunResult RunPointClosed(const RunOptions& o) {
  double setup_s = 0.0;
  auto s = TimedSetup<ResidentSetup>([&] { return BuildResident(o.seed); }, &setup_s);
  std::vector<double> cdf;
  for (size_t i = 0; i < s->targets.size(); ++i) {
    cdf.push_back(static_cast<double>(i + 1) / static_cast<double>(s->targets.size()));
  }
  return RunClosed(o, *s->fx, s->store, s->targets, cdf, LoopShape{1, 1, kPointSloUs}, setup_s,
                   [](const Phase&, RunResult* r) { AddIdleStoreLayers(r); });
}

RunResult RunBatchZipf(const RunOptions& o) {
  double setup_s = 0.0;
  auto s = TimedSetup<ResidentSetup>([&] { return BuildResident(o.seed); }, &setup_s);
  // Store rank i (fixed, so the shard that owns the hottest store does
  // not change with the seed) has weight 1 / (i + 1)^s.
  std::vector<double> cdf;
  double acc = 0.0;
  for (size_t i = 0; i < s->targets.size(); ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    cdf.push_back(acc);
  }
  for (double& c : cdf) c /= acc;
  return RunClosed(o, *s->fx, s->store, s->targets, cdf, LoopShape{kClients, kZipfBurst, kZipfSloUs}, setup_s,
                   [](const Phase&, RunResult* r) { AddIdleStoreLayers(r); });
}

// ---------------------------------------------------------------- paged_cold

struct PagedSetup {
  std::unique_ptr<Fixture> fx;
  SketchStore store;
  std::vector<Target> targets;
  size_t budget_bytes = 0;
};

/// Paged keys differ by measure column (the catalog is keyed by query
/// function); every entry holds the same trained sketch image, so every
/// fault-in pays the same deserialize + compile work. Pool queries all
/// have sketch answers, so the exact fallback (which would read that
/// measure column) never runs.
QueryFunctionSpec PagedSpec(const QueryFunctionSpec& base, size_t i) {
  QueryFunctionSpec s = base;
  s.measure_col = i;
  return s;
}

std::unique_ptr<PagedSetup> BuildPaged(const RunOptions& o) {
  auto ps = std::make_unique<PagedSetup>();
  ps->fx = BuildFixture(o.seed);
  const Fixture& fx = *ps->fx;
  std::vector<std::pair<QueryFunctionKey, std::shared_ptr<const NeuroSketch>>> entries;
  for (size_t i = 0; i < kPagedSketches; ++i) {
    entries.emplace_back(QueryFunctionKey::From(PagedSpec(fx.wb.spec, i)), fx.sketch);
  }
  const std::string path = o.workdir + "/paged.cat";
  Status pack = WritePagedCatalog(path, entries);
  if (!pack.ok()) throw std::runtime_error("pack: " + pack.ToString());
  // Budget in units of what a faulted-in sketch occupies.
  auto reader = PagedCatalogReader::Open(path);
  if (!reader.ok()) throw std::runtime_error("open: " + reader.status().ToString());
  auto one = reader.value().LoadEntry(reader.value().entries().front());
  if (!one.ok()) throw std::runtime_error("load: " + one.status().ToString());
  ps->budget_bytes = static_cast<size_t>(
      kPagedBudgetFraction *
      static_cast<double>(one.value().ResidentBytes() * kPagedSketches));
  (void)ps->store.RegisterDataset("paged", fx.engine.get());
  serve::PagedCatalogOptions opts;
  opts.max_resident_bytes = ps->budget_bytes;
  auto attached = ps->store.AttachPagedCatalog("paged", path, opts);
  if (!attached.ok()) throw std::runtime_error("attach: " + attached.status().ToString());
  for (size_t i = 0; i < kPagedSketches; ++i) {
    ps->targets.push_back(Target{"paged", PagedSpec(fx.wb.spec, i), fx.sketch.get(),
                                 fx.engine.get(), fx.wb.spec});
  }
  return ps;
}

RunResult RunPagedCold(const RunOptions& o) {
  double setup_s = 0.0;
  auto s = TimedSetup<PagedSetup>([&] { return BuildPaged(o); }, &setup_s);
  std::vector<double> cdf;
  for (size_t i = 0; i < s->targets.size(); ++i) {
    cdf.push_back(static_cast<double>(i + 1) / static_cast<double>(s->targets.size()));
  }
  const BufferPoolStats before = s->store.PagedStats();
  SketchStore& store = s->store;
  return RunClosed(o, *s->fx, s->store, s->targets, cdf, LoopShape{kClients, kPagedBurst, kPagedSloUs}, setup_s,
                   [&](const Phase&, RunResult* r) {
                     const BufferPoolStats ps = store.PagedStats();
                     const double faultins = static_cast<double>(ps.faultins - before.faultins);
                     const double hits = static_cast<double>(ps.hits - before.hits);
                     r->Layer("serve.store.faultins", faultins, "count");
                     r->Layer("serve.store.hits", hits, "count");
                     r->Layer("serve.store.hit_ratio",
                              faultins + hits > 0 ? hits / (faultins + hits) : 0.0, "ratio");
                     r->Layer("serve.store.evictions",
                              static_cast<double>(ps.evictions - before.evictions), "count");
                     const metrics::LogHistogram* h = store.FaultinLatency();
                     r->Layer("serve.store.faultin_p50_us", h ? h->PercentileUs(50) : 0.0, "us");
                     r->Layer("serve.store.faultin_p99_us", h ? h->PercentileUs(99) : 0.0, "us");
                     r->Layer("serve.store.peak_resident_bytes",
                              static_cast<double>(ps.peak_resident_bytes), "B");
                   });
}

// ---------------------------------------------------------------- stream_mixed

struct StreamSetup {
  std::unique_ptr<Fixture> fx;  // base table, training set, AVG sketch
  QueryFunctionSpec count_spec;
  std::shared_ptr<const NeuroSketch> count_sketch;
  std::unique_ptr<StreamingTable> table;
  std::unique_ptr<ExactEngine> stream_engine;  // scans `table`
  std::vector<QueryInstance> probes;
  std::vector<std::vector<double>> rows;  // appended in this order
  SketchStore store;
  std::vector<Target> targets;  // 0 = COUNT (correction), 1 = AVG (recompute)
  std::vector<ServeKey> keys;
};

/// Rows of a drifting distribution: bootstrap rows of the base table with
/// attribute noise, whose measure column is pushed up or down by 0.4,
/// flipping direction every kRefreshEveryRows rows. Every refresh interval
/// thus moves the COUNT and the AVG of every kd-tree leaf, so refresh
/// passes retrain leaves across both sketches and compaction can fold.
std::vector<std::vector<double>> DriftRows(const Table& base, size_t measure_col,
                                           uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row = base.Row(rng.Index(base.num_rows()));
    const double level = (i / kRefreshEveryRows) % 2 == 0 ? 0.9 : 0.1;
    for (size_t c = 0; c < row.size(); ++c) {
      row[c] = std::clamp((c == measure_col ? level : row[c]) + rng.Normal(0.0, 0.02), 0.0, 1.0);
    }
    rows[i] = std::move(row);
  }
  return rows;
}

std::unique_ptr<StreamSetup> BuildStream(const RunOptions& o) {
  auto ss = std::make_unique<StreamSetup>();
  ss->fx = BuildBase(Aggregate::kAvg);
  Fixture& fx = *ss->fx;
  const Table& base = fx.wb.data.normalized;
  ss->count_spec = fx.wb.spec;
  ss->count_spec.agg = Aggregate::kCount;
  ss->count_sketch =
      TrainOrThrow(fx.wb.train_q, fx.engine->AnswerBatch(ss->count_spec, fx.wb.train_q, 0));
  const std::vector<QueryInstance> raw =
      DrawQueries(fx, fx.wb.spec, Mix(o.seed, 1), kStreamPool);
  const std::vector<double> avg = fx.sketch->AnswerBatch(raw);
  const std::vector<double> cnt = ss->count_sketch->AnswerBatch(raw);
  for (size_t i = 0; i < raw.size(); ++i) {
    if (!std::isnan(avg[i]) && !std::isnan(cnt[i])) fx.pool.push_back(raw[i]);
  }
  if (fx.pool.size() < 64) throw std::runtime_error("stream query pool too small");
  // The appended rows and the drift probes are fixed like the base table:
  // they decide which leaves each refresh pass retrains and so when
  // compaction folds, and a seed-dependent refresh history would make
  // runs of the same code disagree. The seed draws the served queries.
  ss->probes = DrawQueries(fx, fx.wb.spec, kStreamDataSeed, kStreamProbes);
  ss->rows = DriftRows(base, fx.wb.spec.measure_col, kStreamDataSeed,
                       static_cast<size_t>(kAppendRate * (kWarmupSeconds + o.seconds)) + 1024);

  ss->table = std::make_unique<StreamingTable>(base);
  ss->stream_engine = std::make_unique<ExactEngine>(ss->table.get());
  SketchStore& st = ss->store;
  auto check = [](const Status& s) {
    if (!s.ok()) throw std::runtime_error("stream store: " + s.ToString());
  };
  check(st.RegisterDataset("stream", ss->stream_engine.get()));
  check(st.EnableStreaming("stream", base.num_columns()));
  check(st.AttachStreamingTable("stream", ss->table.get()));
  // Old versions pin the safe fold watermark; keep only the latest so
  // compaction can fold once every leaf has been retrained.
  st.SetVersionRetention(1);
  for (const auto& [spec, sketch] :
       {std::make_pair(ss->count_spec, ss->count_sketch), std::make_pair(fx.wb.spec, fx.sketch)}) {
    auto reg = st.Register("stream", spec, sketch);
    if (!reg.ok()) throw std::runtime_error("register: " + reg.status().ToString());
    ss->targets.push_back(
        Target{"stream", spec, sketch.get(), ss->stream_engine.get(), spec});
    ss->keys.push_back(ServeKey::From("stream", spec));
  }
  return ss;
}

/// One reader burst with what the oracle needs to recompute it: the
/// delta size before submit and after the answer, and every (sketch,
/// fold watermark) version that could have served it.
struct StreamBurst {
  uint32_t target = 0;
  std::vector<uint32_t> queries;
  std::vector<double> values;
  size_t e_lo = 0, e_hi = 0;
  std::vector<ServedView> views;
  bool met_slo = false;
};

struct StreamPhase {
  explicit StreamPhase(int64_t start, double seconds) : p(start, seconds) {}
  Phase p;
  std::vector<StreamBurst> bursts;
  std::vector<double> append_ns;
  std::vector<double> pass_ms, compact_ms;
  std::vector<double> live_rows;
  double peak_rows = 0.0, peak_bytes = 0.0;
  uint64_t folded = 0, trimmed = 0, append_errors = 0;
  size_t rows_appended = 0;  // s.rows[0, rows_appended) are in the delta
};

/// Reader: before each burst, one Append for every row that has fallen
/// due on a fixed schedule of kAppendRate rows per second from the start
/// of the phase, then a burst to the COUNT key (three in four) or the AVG
/// key. The delta thus grows with wall time whatever the refresh passes
/// do. Refresher: RefreshAll each time kRefreshEveryRows more rows have
/// been appended, and a Compact whenever the live delta holds at least
/// kCompactMinRows rows afterwards; rows keep arriving during a pass.
/// Runs on a fresh set-up: s.rows are appended from the first.
StreamPhase RunStreamPhase(ServeEngine& eng, RefreshController& ctrl, StreamSetup& s,
                           uint64_t seed, double seconds, TraceBuffer* rtb, TraceBuffer* wtb,
                           std::vector<RecordedBurst>* record) {
  const int64_t t_begin = NowNs();
  const int64_t w0 = t_begin + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t end = w0 + static_cast<int64_t>(seconds * 1e9);
  StreamPhase sp(w0, seconds);
  const std::vector<QueryInstance>& pool = s.fx->pool;
  const std::shared_ptr<const serve::DeltaBuffer> delta = s.store.Delta("stream");
  size_t& next_row = sp.rows_appended;

  std::mutex log_mu;
  std::vector<std::pair<uint32_t, ServedView>> log;  // versions the refresher saw swapped in

  // Rows appended so far, published to the refresher.
  std::mutex rows_mu;
  std::condition_variable rows_cv;
  size_t rows_published = 0;
  bool stop = false;
  uint64_t compact_errors = 0;

  std::thread refresher;
  auto stop_refresher = [&] {
    {
      std::lock_guard<std::mutex> lock(rows_mu);
      stop = true;
    }
    rows_cv.notify_all();
    if (refresher.joinable()) refresher.join();
  };
  struct StopOnExit {  // also on exception paths
    std::function<void()> f;
    ~StopOnExit() { f(); }
  } stop_on_exit{stop_refresher};
  refresher = std::thread([&] {
    for (size_t due = kRefreshEveryRows;; due += kRefreshEveryRows) {
      {
        std::unique_lock<std::mutex> lock(rows_mu);
        rows_cv.wait(lock, [&] { return stop || rows_published >= due; });
        if (stop) return;
      }
      const uint64_t rreq = wtb->enabled() ? wtb->NewRequest() : 0;
      const int64_t r0 = NowNs();
      (void)ctrl.RefreshAll();
      const int64_t r1 = NowNs();
      wtb->Add("refresh_all", rreq, 0, r0, r1);
      sp.pass_ms.push_back(1e-6 * static_cast<double>(r1 - r0));
      {
        std::lock_guard<std::mutex> lock(log_mu);
        for (uint32_t t = 0; t < s.keys.size(); ++t) {
          log.emplace_back(t, s.store.LookupServed(s.keys[t]));
        }
      }
      if (delta->Stats().rows < kCompactMinRows) continue;
      const int64_t c0 = NowNs();
      auto out = s.store.Compact("stream");
      const int64_t c1 = NowNs();
      wtb->Add("compact", rreq, 0, c0, c1);
      sp.compact_ms.push_back(1e-6 * static_cast<double>(c1 - c0));
      if (out.ok()) {
        sp.folded += out.value().folded_rows;
        sp.trimmed += out.value().trimmed_rows;
      } else {
        ++compact_errors;
      }
    }
  });

  const double period_ns = 1e9 / kAppendRate;
  auto append_due = [&](int64_t now) {
    const size_t due = static_cast<size_t>(static_cast<double>(now - t_begin) / period_ns) + 1;
    const size_t before = next_row;
    while (next_row < due && next_row < s.rows.size()) {
      const uint64_t req = rtb->enabled() ? rtb->NewRequest() : 0;
      const int64_t a0 = NowNs();
      const Status st = s.store.Append("stream", s.rows[next_row]);
      const int64_t a1 = NowNs();
      rtb->Add("append", req, 0, a0, a1);
      if (!st.ok()) ++sp.append_errors;
      if (a0 >= w0) sp.append_ns.push_back(static_cast<double>(a1 - a0));
      ++next_row;
      if (a0 >= w0 && next_row % 64 == 0) {
        const serve::DeltaBufferStats ds = delta->Stats();
        sp.live_rows.push_back(static_cast<double>(ds.rows));
        sp.peak_rows = std::max(sp.peak_rows, static_cast<double>(ds.rows));
        sp.peak_bytes = std::max(sp.peak_bytes, static_cast<double>(ds.bytes));
      }
    }
    if (next_row == before) return;
    {
      std::lock_guard<std::mutex> lock(rows_mu);
      rows_published = next_row;
    }
    rows_cv.notify_all();
  };

  Phase& p = sp.p;
  Rng rng(seed);
  bool measuring = false;
  double cpu0 = 0.0, pcpu0 = 0.0;
  int64_t last_answer = 0;
  for (size_t k = 0;; ++k) {
    const int64_t now = NowNs();
    if (now >= end) break;
    if (!measuring && now >= w0) {
      measuring = true;
      eng.ResetStats();
      cpu0 = ThreadCpuSeconds();
      pcpu0 = ProcessCpuSeconds();
    }
    append_due(now);
    StreamBurst b;
    b.target = k % 4 == 3 ? 1 : 0;
    const Target& t = s.targets[b.target];
    std::vector<QueryInstance> qs;
    for (size_t j = 0; j < kStreamBurst; ++j) {
      b.queries.push_back(static_cast<uint32_t>(rng.Index(pool.size())));
      qs.push_back(pool[b.queries.back()]);
    }
    size_t n0;
    {
      std::lock_guard<std::mutex> lock(log_mu);
      n0 = log.size();
    }
    const uint64_t req = rtb->enabled() ? rtb->NewRequest() : 0;
    const int64_t l0 = NowNs();
    b.views.push_back(s.store.LookupServed(s.keys[b.target]));
    const int64_t l1 = NowNs();
    b.e_lo = delta->size();
    const int64_t t0 = NowNs();
    auto fut = eng.SubmitMany(t.dataset, t.spec, std::move(qs));
    const int64_t t1 = rtb->enabled() ? NowNs() : 0;
    bool ok = true;
    std::vector<ServeResult> res;
    try {
      res = fut.get();
    } catch (...) {
      ok = false;
    }
    const int64_t t2 = NowNs();
    b.e_hi = delta->size();
    b.views.push_back(s.store.LookupServed(s.keys[b.target]));
    const int64_t l2 = NowNs();
    {
      std::lock_guard<std::mutex> lock(log_mu);
      for (size_t i = n0; i < log.size(); ++i) {
        if (log[i].first == b.target) b.views.push_back(log[i].second);
      }
    }
    if (rtb->enabled()) {
      const uint64_t root = rtb->Add("burst", req, 0, t0, t2);
      rtb->Add("submit", req, root, t0, t1);
      rtb->Add("wait", req, root, t1, t2);
      rtb->Add("lookup", req, 0, l0, l1);
      rtb->Add("lookup", req, 0, t2, l2);
    }
    const int64_t prev = last_answer;
    last_answer = t2;
    if (t0 < w0) continue;
    if (prev != 0) p.late_us.push_back(1e-3 * static_cast<double>(t0 - prev));
    ++p.units;
    p.sent += kStreamBurst;
    if (record->size() * kStreamBurst < kRecordQueries) {
      record->push_back(RecordedBurst{b.target, b.queries});
    }
    if (!ok || res.size() != kStreamBurst) {
      p.failed += kStreamBurst;
      continue;
    }
    for (const ServeResult& sr : res) b.values.push_back(sr.value);
    const double lat = 1e-3 * static_cast<double>(t2 - t0);
    Windows::Window& win = p.windows.At(t2);
    win.lat_us.push_back(lat);
    win.answers += kStreamBurst;
    p.answers += kStreamBurst;
    b.met_slo = lat <= kStreamSloUs;  // withdrawn on a mismatch
    if (b.met_slo) ++p.slo_met;
    sp.bursts.push_back(std::move(b));
  }
  // The reader's own CPU is load generation, except its appends.
  double append_s = 0.0;
  for (double ns : sp.append_ns) append_s += 1e-9 * ns;
  p.client_cpu_s = ThreadCpuSeconds() - cpu0 - append_s;
  stop_refresher();
  sp.append_errors += compact_errors;
  p.process_cpu_s = ProcessCpuSeconds() - pcpu0;
  p.peak_rss_mb = PeakRssMb();
  p.serve = eng.Snapshot();
  return sp;
}

/// Recomputes every reader answer from the delta-composition contract:
/// a sketch version V that may have served the burst, and a delta prefix
/// [0, E) with E between the sizes read before submit and after the
/// answer. COUNT: V's answer plus the exact count of rows at or past the
/// leaf's fold watermark. AVG: V's answer when no such row matches,
/// otherwise the exact AVG over base + rows [0, E), accumulated in append
/// order as the engine does. Returns the normalized MAE of the served
/// answers against the exact answer over base + rows [0, e_hi).
double VerifyStream(StreamSetup& s, StreamPhase* sp) {
  const size_t rows_appended = sp->rows_appended;
  const std::vector<QueryInstance>& pool = s.fx->pool;
  const Table& base = s.fx->wb.data.normalized;
  const size_t d = base.num_columns();
  const size_t mcol = s.fx->wb.spec.measure_col;
  const QueryFunctionSpec* specs[2] = {&s.count_spec, &s.fx->wb.spec};
  std::vector<StreamBurst>& bursts = sp->bursts;

  // Answers grouped by pool query: each query's delta matches are found
  // once, used for all its answers, and dropped.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> by_query(pool.size());
  for (uint32_t bi = 0; bi < bursts.size(); ++bi) {
    for (uint32_t j = 0; j < bursts[bi].values.size(); ++j) {
      by_query[bursts[bi].queries[j]].emplace_back(bi, j);
    }
  }
  std::unordered_map<const NeuroSketch*, std::vector<double>> sketch_answers;
  std::vector<uint8_t> bad(bursts.size(), 0);
  std::vector<double> truth, served;
  std::vector<uint32_t> match;  // delta rows the query matches, append order
  for (uint32_t q = 0; q < pool.size(); ++q) {
    if (by_query[q].empty()) continue;
    match.clear();
    for (size_t r = 0; r < rows_appended; ++r) {
      if (specs[0]->predicate->Matches(pool[q], s.rows[r].data(), d)) {
        match.push_back(static_cast<uint32_t>(r));
      }
    }
    AggregateAccumulator base_acc[2] = {AggregateAccumulator(Aggregate::kCount),
                                        AggregateAccumulator(Aggregate::kAvg)};
    for (int t = 0; t < 2; ++t) ExactEngine::AccumulateOver(base, *specs[t], pool[q], &base_acc[t]);
    auto matches_before = [&](size_t e) {
      return static_cast<size_t>(std::lower_bound(match.begin(), match.end(), e) - match.begin());
    };
    for (const auto& [bi, j] : by_query[q]) {
      const StreamBurst& b = bursts[bi];
      // Exact answer over base + rows [0, E) at every E in [e_lo, e_hi]
      // where it can change, E ascending.
      std::vector<std::pair<size_t, double>> exact;
      {
        AggregateAccumulator acc = base_acc[b.target];
        size_t i = 0;
        for (; i < match.size() && match[i] < b.e_lo; ++i) acc.Add(s.rows[match[i]][mcol]);
        exact.emplace_back(b.e_lo, acc.Finalize());
        for (; i < match.size() && match[i] < b.e_hi; ++i) {
          acc.Add(s.rows[match[i]][mcol]);
          exact.emplace_back(match[i] + 1, acc.Finalize());
        }
      }
      bool found = false;
      for (const ServedView& v : b.views) {
        auto it = sketch_answers.find(v.sketch.get());
        if (it == sketch_answers.end()) {
          it = sketch_answers.emplace(v.sketch.get(), v.sketch->AnswerBatch(pool)).first;
        }
        const double sk = it->second[q];
        size_t w = 0;
        const auto* leaf = v.sketch->tree().Route(pool[q]);
        if (leaf != nullptr && v.leaf_folded != nullptr &&
            static_cast<size_t>(leaf->leaf_id) < v.leaf_folded->size()) {
          w = (*v.leaf_folded)[static_cast<size_t>(leaf->leaf_id)];
        }
        size_t k = 0;
        for (size_t e = b.e_lo; e <= b.e_hi && !found; ++e) {
          while (k + 1 < exact.size() && exact[k + 1].first <= e) ++k;
          const size_t c = e > w ? matches_before(e) - matches_before(w) : 0;
          double expected;
          if (std::isnan(sk)) {
            expected = exact[k].second;  // the engine's exact repair
          } else if (c == 0) {
            expected = sk;
          } else {
            expected = b.target == 0 ? sk + static_cast<double>(c) : exact[k].second;
          }
          found = SameBits(expected, b.values[j]);
        }
        if (found) break;
      }
      if (!found) {
        ++sp->p.failed;
        bad[bi] = 1;
      }
      if (!std::isnan(exact.back().second)) {
        truth.push_back(exact.back().second);
        served.push_back(b.values[j]);
      }
    }
  }
  for (size_t bi = 0; bi < bursts.size(); ++bi) {
    if (bad[bi] && bursts[bi].met_slo) --sp->p.slo_met;
  }
  return stats::NormalizedMae(truth, served);
}

/// The engine and the refresh controller serving one StreamSetup.
struct StreamRig {
  explicit StreamRig(StreamSetup& s)
      : eng(&s.store, BenchServeOptions()), ctrl(&s.store, nullptr, Options()) {
    for (const Target& t : s.targets) {
      DriftPolicy policy;
      policy.max_normalized_mae = t.spec.agg == Aggregate::kCount ? kCountDriftBound : kAvgDriftBound;
      NeuroSketchConfig cfg = bench::DefaultSketchConfig();
      cfg.train_threads = 1;
      const auto& tq = s.fx->wb.train_q;
      ctrl.AddTarget(RefreshTarget{
          "stream", DriftMonitor(t.spec, s.probes, policy), cfg,
          std::vector<QueryInstance>(tq.begin(), tq.begin() + std::min(tq.size(), kStreamRetrainQueries))});
    }
  }
  static RefreshOptions Options() {
    RefreshOptions ro;
    ro.probe_threads = 1;
    return ro;
  }
  ServeEngine eng;
  RefreshController ctrl;
};

RunResult RunStreamMixed(const RunOptions& o) {
  RunResult r;
  double setup_s = 0.0;
  auto s = TimedSetup<StreamSetup>([&] { return BuildStream(o); }, &setup_s);
  StreamRig rig(*s);
  TraceBuffer roff(false, 1), woff(false, 2);
  std::vector<RecordedBurst> record;
  StreamPhase sp =
      RunStreamPhase(rig.eng, rig.ctrl, *s, Mix(o.seed, 2), o.seconds, &roff, &woff, &record);
  const double mae = VerifyStream(*s, &sp);
  if (!o.trace) {
    AddEndToEnd(sp.p, setup_s, mae, &r);
    r.failed += sp.append_errors;
    r.Detail("append_p99_us", std::to_string(1e-3 * Percentile(sp.append_ns, 99)));
    const serve::RefreshStats rs = rig.ctrl.Stats();
    std::string passes;
    for (double ms : sp.pass_ms) passes += " " + std::to_string(static_cast<long>(ms));
    r.Detail("refresh", "passes_ms" + passes + ", swaps " + std::to_string(rs.swaps) +
                            ", failures " + std::to_string(rs.failures) + ", folded_rows " +
                            std::to_string(sp.folded) + ", live_rows_mean " +
                            std::to_string(static_cast<long>(Mean(sp.live_rows))));
    return r;
  }
  r.attempted = sp.p.sent;
  r.failed = sp.p.failed + sp.append_errors;
  // The traced phase starts from a fresh set-up, so it replays the
  // untraced phase's append, refresh and compaction history and the two
  // compare like for like.
  auto s2 = BuildStream(o);
  StreamRig rig2(*s2);
  TraceBuffer ron(true, 1), won(true, 2);
  std::vector<RecordedBurst> unused;
  StreamPhase st =
      RunStreamPhase(rig2.eng, rig2.ctrl, *s2, Mix(o.seed, 3), o.seconds, &ron, &won, &unused);
  (void)VerifyStream(*s2, &st);
  const serve::RefreshStats rs = rig2.ctrl.Stats();
  r.attempted += st.p.sent;
  r.failed += st.p.failed + st.append_errors;
  std::vector<TraceBuffer> tbs;
  tbs.push_back(std::move(ron));
  AddEngineLayers(st.p, tbs, &r);
  ReplayInput in;
  in.pool = &s->fx->pool;
  in.targets = s->targets;
  in.stream = std::move(record);
  in.mean_batch = st.p.serve.mean_batch_size;
  in.store = &s2->store;
  in.serve_options = BenchServeOptions();
  ReplayLayers(in, bench::DefaultSketchConfig(), &r);
  AddBuildLayers(*s->fx->sketch, &r);
  AddIdleStoreLayers(&r);
  const double rows_appended = static_cast<double>(st.append_ns.size());
  double append_total = 0.0;
  for (double ns : st.append_ns) append_total += ns;
  r.Layer("serve.delta.append_ns_per_row", rows_appended > 0 ? append_total / rows_appended : 0.0, "ns");
  r.Layer("serve.delta.append_p99_us", 1e-3 * Percentile(st.append_ns, 99), "us");
  r.Layer("serve.delta.live_rows_mean", Mean(st.live_rows), "count");
  r.Layer("serve.delta.peak_rows", st.peak_rows, "count");
  r.Layer("serve.delta.peak_bytes", st.peak_bytes, "B");
  r.Layer("serve.delta.corrected_answers", static_cast<double>(st.p.serve.delta_corrected_answers), "count");
  r.Layer("serve.delta.exact_answers", static_cast<double>(st.p.serve.delta_exact_answers), "count");
  r.Layer("serve.refresh.pass_ms", Median(st.pass_ms), "ms");
  r.Layer("serve.refresh.compact_ms", Median(st.compact_ms), "ms");
  const double probed_leaves = static_cast<double>(rs.runs * s->fx->sketch->num_partitions());
  r.Layer("serve.refresh.retrained_leaf_ratio",
          probed_leaves > 0 ? static_cast<double>(rs.retrained_leaves) / probed_leaves : 0.0,
          "ratio");
  r.Layer("serve.refresh.swaps", static_cast<double>(rs.swaps), "count");
  r.Layer("serve.refresh.failures", static_cast<double>(rs.failures), "count");
  r.Layer("serve.refresh.folded_rows", static_cast<double>(st.folded), "count");
  r.Layer("serve.refresh.trimmed_rows", static_cast<double>(st.trimmed), "count");
  r.Layer("loadgen.late_p99_us", Percentile(st.p.late_us, 99), "us");
  FinishTrace(o, {&tbs[0], &won}, Percentile(sp.p.windows.All(), 50),
              Percentile(st.p.windows.All(), 50), &r);
  return r;
}

}  // namespace

// ---------------------------------------------------------------- dispatch

RunResult RunWorkload(const RunOptions& o) {
  if (o.workload == "point_closed") return RunPointClosed(o);
  if (o.workload == "batch_zipf") return RunBatchZipf(o);
  if (o.workload == "paged_cold") return RunPagedCold(o);
  if (o.workload == "stream_mixed") return RunStreamMixed(o);
  throw std::invalid_argument("unknown workload: " + o.workload);
}

}  // namespace perfbench
}  // namespace neurosketch
