// Scheduler-overhead microbenchmarks (google-benchmark): cost of the
// ScoredHeap operations and of each policy's PUSH/POP on a heterogeneous
// node — the "cheap and effective" claim the MultiPrio design inherits from
// HeteroPrio is quantified here.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <limits>
#include <memory>

#include "core/multiprio.hpp"
#include "core/scored_heap.hpp"
#include "common/rng.hpp"
#include "exec/thread_executor.hpp"
#include "obs/bench_json.hpp"
#include "obs/observer.hpp"
#include "sched/schedulers.hpp"
#include "sim/platform_presets.hpp"

namespace {

using namespace mp;

void BM_HeapInsertPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::pair<double, double>> scores(n);
  for (auto& s : scores) s = {rng.next_double(), rng.next_double()};
  for (auto _ : state) {
    ScoredHeap h(n);
    for (std::size_t i = 0; i < n; ++i) h.insert(TaskId{i}, scores[i].first, scores[i].second);
    while (!h.empty()) h.pop_top();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_HeapInsertPop)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HeapTopKScan(benchmark::State& state) {
  const std::size_t n = 16384;
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  ScoredHeap h(n, k);  // the front holds the whole window
  for (std::size_t i = 0; i < n; ++i) h.insert(TaskId{i}, rng.next_double(), 0.0);
  for (auto _ : state) {
    for (const HeapEntry& e : h.front().first(k)) benchmark::DoNotOptimize(e.gain);
  }
}
BENCHMARK(BM_HeapTopKScan)->Arg(10)->Arg(100);

// MultiPrio's POP pattern on one node heap held at 4096 entries: a locality
// window of n = 10 (a prefix of front()), remove the pick (the window's most-local
// entry, here the one of largest id), insert a fresh entry under the freed id.
void BM_HeapWindowPop(benchmark::State& state) {
  constexpr std::size_t kEntries = 4096;
  constexpr std::size_t kWindow = 10;
  Rng rng(5);
  ScoredHeap h(kEntries, kWindow);
  for (std::size_t i = 0; i < kEntries; ++i)
    h.insert(TaskId{i}, rng.next_double(), rng.next_double());
  for (auto _ : state) {
    TaskId pick{};
    for (const HeapEntry& e : h.front().first(kWindow))
      if (!pick.valid() || pick < e.task) pick = e.task;
    h.remove(pick);
    h.insert(pick, rng.next_double(), rng.next_double());
    benchmark::DoNotOptimize(pick);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HeapWindowPop);

// The refill of the sorted front from the binary heap's root, on a heap held
// at 4096 entries: pop the top (the heap root moves into the front and the
// heap's last entry sinks from the root), then insert a fresh entry under
// the freed id.
void BM_HeapRootRefill(benchmark::State& state) {
  constexpr std::size_t kEntries = 4096;
  Rng rng(6);
  ScoredHeap h(kEntries);
  for (std::size_t i = 0; i < kEntries; ++i)
    h.insert(TaskId{i}, rng.next_double(), rng.next_double());
  for (auto _ : state) {
    const TaskId t = h.top()->task;
    h.pop_top();
    h.insert(t, rng.next_double(), rng.next_double());
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HeapRootRefill);

struct SchedWorld {
  TaskGraph graph;
  PlatformPreset preset = intel_v100();
  PerfDatabase& perf = preset.perf;
  std::unique_ptr<HistoryModel> history;
  std::unique_ptr<MemoryManager> memory;
  std::vector<TaskId> tasks;

  explicit SchedWorld(std::size_t n_tasks) {
    const CodeletId cl = graph.add_codelet("gemm", {ArchType::CPU, ArchType::GPU});
    Rng rng(3);
    for (std::size_t i = 0; i < n_tasks; ++i) {
      const DataId d = graph.add_data(1024 * (1 + rng.next_in(0, 64)));
      SubmitOptions o;
      o.flops = 1e6 * static_cast<double>(1 + rng.next_in(0, 1000));
      tasks.push_back(graph.submit(cl, {Access{d, AccessMode::ReadWrite}}, o));
    }
    history = std::make_unique<HistoryModel>(graph, perf);
    history->seed_from_truth();
    memory = std::make_unique<MemoryManager>(graph, preset.platform);
  }

  SchedContext ctx() {
    SchedContext c;
    c.graph = &graph;
    c.platform = &preset.platform;
    c.perf = history.get();
    c.memory = memory.get();
    c.now = [] { return 0.0; };
    return c;
  }
};

void bench_policy(benchmark::State& state, const std::string& name,
                  SchedObserver* observer = nullptr) {
  SchedWorld world(4096);
  for (auto _ : state) {
    state.PauseTiming();
    SchedContext ctx = world.ctx();
    ctx.observer = observer;
    auto sched = make_scheduler_by_name(name, std::move(ctx));
    state.ResumeTiming();
    for (TaskId t : world.tasks) sched->push(t);
    std::size_t popped = 0;
    std::size_t wi = 0;
    const std::size_t nw = world.preset.platform.num_workers();
    while (popped < world.tasks.size()) {
      if (sched->pop(WorkerId{wi}).has_value()) ++popped;
      wi = (wi + 1) % nw;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(world.tasks.size()));
}

void BM_PushPopMultiPrio(benchmark::State& state) { bench_policy(state, "multiprio"); }
void BM_PushPopDmdas(benchmark::State& state) { bench_policy(state, "dmdas"); }
void BM_PushPopHeteroPrio(benchmark::State& state) { bench_policy(state, "heteroprio"); }
void BM_PushPopEager(benchmark::State& state) { bench_policy(state, "eager"); }
BENCHMARK(BM_PushPopMultiPrio);
BENCHMARK(BM_PushPopDmdas);
BENCHMARK(BM_PushPopHeteroPrio);
BENCHMARK(BM_PushPopEager);

// Observability overhead on the hottest policy. NullSink pays the observer
// branch plus a virtual no-op record per decision (the upper bound of what
// a *disabled* sink could ever cost is the observer-absent baseline above);
// Recording pays event construction, the ring append and metric updates.
void BM_PushPopMultiPrioNullSink(benchmark::State& state) {
  NullObserver obs;
  bench_policy(state, "multiprio", &obs);
}
void BM_PushPopMultiPrioRecording(benchmark::State& state) {
  RecordingObserver obs;
  bench_policy(state, "multiprio", &obs);
}
BENCHMARK(BM_PushPopMultiPrioNullSink);
BENCHMARK(BM_PushPopMultiPrioRecording);

// ---- multi-worker contention sweep ----------------------------------------

// The sweep platform: W CPU workers on the RAM node + W GPU streams on one
// GPU node. The node (= shard) count is FIXED at two across the sweep, so
// ns_per_task growth isolates lock/wakeup contention — the quantity the
// sharded protocol controls — from the structural cost of duplicating a
// push into more node heaps (which scales with nodes, not workers, and is
// identical under both protocols).
Platform sweep_platform(std::size_t workers_per_arch) {
  Platform p;
  p.add_workers(ArchType::CPU, p.ram_node(), workers_per_arch);
  const MemNodeId gpu = p.add_gpu_node(0, 10e9, 1e-6);
  p.add_workers(ArchType::GPU, gpu, workers_per_arch);
  return p;
}

struct RunCost {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU burned by the run, all threads
};

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// One real ThreadExecutor run over a single long dependency chain of no-op
// tasks: the cost is almost pure scheduling overhead (PUSH/POP/park/wake +
// dependency release), which is the quantity the lock protocol changes. The
// serial chain is the worst case for wakeup discipline — exactly one task is
// ever ready, so at width W every completion happens with 2W-1 workers
// parked. The coarse engine broadcast-wakes all of them per state change;
// the sharded protocol's wake rule wakes none, since the completing worker
// is awake on the successor's node and absorbs it. CPU time is the scaling metric: parked workers are free only if
// the protocol does not keep waking them, and on small hosts wall time
// measures timeslicing, not scheduler overhead.
RunCost run_executor_once(const std::string& sched, std::size_t workers,
                          std::size_t n_tasks, SchedObserver* observer) {
  constexpr std::size_t kChains = 1;
  TaskGraph g;
  const CodeletId cl = g.add_codelet("tick", {ArchType::CPU, ArchType::GPU},
                                     [](const Task&, std::span<void* const>) {});
  Rng rng(4);
  std::vector<DataId> chain_data;
  for (std::size_t c = 0; c < kChains; ++c)
    chain_data.push_back(g.add_data(1024 * (1 + rng.next_in(0, 64))));
  for (std::size_t i = 0; i < n_tasks; ++i) {
    SubmitOptions o;
    o.flops = 1e6 * static_cast<double>(1 + rng.next_in(0, 1000));
    g.submit(cl, {Access{chain_data[i % kChains], AccessMode::ReadWrite}}, o);
  }
  Platform p = sweep_platform(workers);
  PerfDatabase db;
  db.set_default(ArchType::CPU, RateSpec{10.0, 0.0, 0.0, 0.0});
  db.set_default(ArchType::GPU, RateSpec{100.0, 0.0, 0.0, 0.0});
  ThreadExecutor exec(g, p, db);
  ExecConfig cfg;
  cfg.stall_timeout = 0.05;
  cfg.observer = observer;
  const double cpu0 = process_cpu_seconds();
  const ExecResult r = exec.run(scheduler_factory(sched), cfg);
  const double cpu1 = process_cpu_seconds();
  if (r.tasks_executed != n_tasks) {
    std::fprintf(stderr, "sweep run lost tasks: %zu/%zu (%s, %zu workers)\n",
                 r.tasks_executed, n_tasks, sched.c_str(), workers);
    std::exit(1);
  }
  return RunCost{r.wall_seconds, cpu1 - cpu0};
}

struct SweepPoint {
  std::string scheduler;
  std::size_t workers = 0;
  double ns_per_task = 0.0;
};

// Sweeps worker counts over the sharded default and the coarse-lock
// baseline, emitting ns_per_task plus the contention metrics
// (sched.lock_wait_s / sched.wakeups) from one instrumented run per point.
void emit_sweep_records(std::vector<BenchRecord>& records,
                        std::vector<SweepPoint>& points) {
  constexpr std::size_t kTasks = 4096;
  constexpr int kReps = 3;
  const std::size_t widths[] = {1, 2, 4, 8, 16};
  for (const char* sched : {"multiprio", "multiprio-coarse"}) {
    for (const std::size_t w : widths) {
      double best_wall = std::numeric_limits<double>::infinity();
      double best_cpu = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < kReps; ++rep) {
        const RunCost c = run_executor_once(sched, w, kTasks, nullptr);
        best_wall = std::min(best_wall, c.wall_s);
        best_cpu = std::min(best_cpu, c.cpu_s);
      }
      // The timed runs above are observer-free; the contention metrics come
      // from one extra instrumented run (its lock-wait timing path only
      // activates when a MetricsRegistry is attached).
      RecordingObserver obs;
      run_executor_once(sched, w, kTasks, &obs);
      const Histogram& lock_wait = obs.metrics()->histogram("sched.lock_wait_s");
      const Counter& wakeups = obs.metrics()->counter("sched.wakeups");
      // ns_per_task = scheduling CPU per task: the overhead the protocol
      // controls, and the only per-task number comparable across machines
      // with different core counts (wall time on an oversubscribed host
      // measures the kernel's timeslicing instead).
      const double ns = best_cpu / static_cast<double>(kTasks) * 1e9;
      records.push_back(
          BenchRecord("overhead_sweep", sched)
              .param("workers", w)  // per arch: w CPUs + w GPU streams
              .param("tasks", kTasks)
              .param("reps", static_cast<std::size_t>(kReps))
              .makespan_s(best_wall)
              .extra("ns_per_task", ns)
              .extra("wall_ns_per_task",
                     best_wall / static_cast<double>(kTasks) * 1e9)
              .extra("lock_acquires", static_cast<double>(lock_wait.count()))
              .extra("lock_wait_s", lock_wait.sum())
              .extra("lock_wait_max_s", lock_wait.max())
              .extra("wakeups", static_cast<double>(wakeups.value())));
      points.push_back(SweepPoint{sched, w, ns});
      std::printf("  sweep %-16s %2zu workers: %8.0f ns/task cpu  "
                  "(wall %.0f ns, lock_wait %.3fms over %llu acquires, "
                  "%llu wakeups)\n",
                  sched, w, ns, best_wall / static_cast<double>(kTasks) * 1e9,
                  lock_wait.sum() * 1e3,
                  static_cast<unsigned long long>(lock_wait.count()),
                  static_cast<unsigned long long>(wakeups.value()));
    }
  }
}

double sweep_ns(const std::vector<SweepPoint>& points, const std::string& sched,
                std::size_t workers) {
  for (const SweepPoint& p : points)
    if (p.scheduler == sched && p.workers == workers) return p.ns_per_task;
  return 0.0;
}

// Machine-readable observer-overhead summary, emitted as
// BENCH_overhead.json so CI accumulates the instrumentation cost over time.
// Timed directly (std::chrono around the same push/pop loop the
// google-benchmark cases run) so the emission does not depend on any
// particular google-benchmark reporter API.
void emit_overhead_json(std::vector<BenchRecord>& records) {
  // Each rep gets a FRESH observer from its mode's factory: the ring's lazy
  // regrowth cost only exists on a cold EventLog, so reusing one observer
  // across reps would hide it from the best-of minimum.
  struct Mode {
    const char* name;
    std::unique_ptr<SchedObserver> (*make)();
  };
  const Mode modes[] = {
      {"none", []() -> std::unique_ptr<SchedObserver> { return nullptr; }},
      {"null",
       []() -> std::unique_ptr<SchedObserver> {
         return std::make_unique<NullObserver>();
       }},
      {"recording", []() -> std::unique_ptr<SchedObserver> {
         return std::make_unique<RecordingObserver>();
       }}};

  constexpr std::size_t kTasks = 4096;
  constexpr int kReps = 5;
  double baseline_s = 0.0;
  for (const Mode& mode : modes) {
    SchedWorld world(kTasks);
    // Best-of-reps: each rep is a full push/pop cycle timed on its own, and
    // the fastest one is the measurement — on a shared/small host the mean
    // is dominated by timeslicing noise, the minimum by the actual cost.
    double elapsed = std::numeric_limits<double>::infinity();
    std::unique_ptr<SchedObserver> observer;
    for (int rep = 0; rep < kReps; ++rep) {
      observer = mode.make();
      SchedContext ctx = world.ctx();
      ctx.observer = observer.get();
      auto sched = make_scheduler_by_name("multiprio", std::move(ctx));
      const auto t0 = std::chrono::steady_clock::now();
      for (TaskId t : world.tasks) sched->push(t);
      std::size_t popped = 0;
      std::size_t wi = 0;
      const std::size_t nw = world.preset.platform.num_workers();
      while (popped < world.tasks.size()) {
        if (sched->pop(WorkerId{wi}).has_value()) ++popped;
        wi = (wi + 1) % nw;
      }
      elapsed = std::min(
          elapsed,
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }
    if (observer == nullptr) baseline_s = elapsed;
    // "efficiency" = baseline/mode: 1.0 for the observer-free path, and the
    // slowdown factor's reciprocal for the instrumented ones — the ratio a
    // regression check watches.
    BenchRecord rec =
        BenchRecord("overhead", "multiprio")
            .param("observer", mode.name)
            .param("tasks", kTasks)
            .param("reps", static_cast<std::size_t>(kReps))
            .makespan_s(elapsed)
            .efficiency(elapsed > 0.0 && baseline_s > 0.0 ? baseline_s / elapsed : 0.0)
            .extra("ns_per_task", elapsed / static_cast<double>(kTasks) * 1e9);
    if (auto* rec_obs = dynamic_cast<RecordingObserver*>(observer.get()))
      rec.events_from(rec_obs->events());
    records.push_back(rec);
  }
}

// Runs observer modes + the worker sweep and writes BENCH_overhead.json.
// Returns false if the smoke scaling assertion fails (checked only when
// `enforce` — the CI bench-smoke gate; full runs just print the ratios).
bool emit_bench_json(bool enforce) {
  std::vector<BenchRecord> records;
  emit_overhead_json(records);
  std::vector<SweepPoint> points;
  emit_sweep_records(records, points);
  if (!write_bench_json("BENCH_overhead.json", records))
    std::fprintf(stderr, "warning: could not write BENCH_overhead.json\n");

  const double sharded_1 = sweep_ns(points, "multiprio", 1);
  const double sharded_8 = sweep_ns(points, "multiprio", 8);
  const double coarse_8 = sweep_ns(points, "multiprio-coarse", 8);
  const double scaling = sharded_1 > 0.0 ? sharded_8 / sharded_1 : 0.0;
  const double speedup = sharded_8 > 0.0 ? coarse_8 / sharded_8 : 0.0;
  std::printf("sweep: sharded 8w/1w ns_per_task ratio %.2f (gate: <= 1.50), "
              "coarse/sharded at 8w %.2fx\n",
              scaling, speedup);
  bool ok = true;
  if (enforce && scaling > 1.5) {
    std::fprintf(stderr,
                 "SMOKE FAIL: sharded ns_per_task at 8 workers is %.2fx the "
                 "1-worker cost (budget 1.5x) — scheduling no longer scales\n",
                 scaling);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: skip the google-benchmark suite, run the sweep + observer modes
  // once and enforce the scaling assertion — the CI bench-smoke entry point.
  // Emits the same BENCH_overhead.json as a full run so the regression gate
  // can diff it against the committed baseline.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return emit_bench_json(/*enforce=*/true) ? 0 : 1;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_bench_json(/*enforce=*/false);
  return 0;
}
