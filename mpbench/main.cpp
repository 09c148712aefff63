// mpbench: the repository benchmark. One process runs one workload of the
// sharded "multiprio" policy under the simulator (SimEngine) and under the
// real ThreadExecutor, checks every output, and prints the metrics as one
// JSON line (end-to-end metrics untraced; per-layer metrics with --trace 1).
//
//   mpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every layer is timed from outside, around the calls this file makes:
// set-up around src/apps and src/runtime, the engines around run(), and the
// policy through TimedScheduler (timed_scheduler.hpp). README.md maps each
// metric to its layer and workload.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/dense/dense_builders.hpp"
#include "apps/dense/tile_kernels.hpp"
#include "apps/dense/tile_matrix.hpp"
#include "apps/sparseqr/dag_builder.hpp"
#include "apps/sparseqr/generators.hpp"
#include "apps/sparseqr/symbolic.hpp"
#include "common/rng.hpp"
#include "exec/thread_executor.hpp"
#include "obs/analysis.hpp"
#include "obs/observer.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "sim/platform_presets.hpp"
#include "timed_scheduler.hpp"

namespace mpbench {
namespace {

using namespace mp;

constexpr const char* kPolicy = "multiprio";
constexpr std::size_t kSetupReps = 3;
/// Share of --seconds given to the workload's primary engine; the other
/// engine runs in the rest.
constexpr double kPrimaryShare = 0.85;
constexpr std::size_t kMinReps = 3;
/// ‖A·x − L·(Lᵀ·x)‖ / (‖A‖·‖x‖) above this fails a real factorization.
constexpr double kResidualTolerance = 1e-11;

double wall_s() { return static_cast<double>(now_ns()) * 1e-9; }

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The q-quantile of `v`, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mpbench: %s\nusage: mpbench --workload "
               "<sim-potrf|sim-sqr|exec-potrf-coarse|exec-potrf-fine> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("missing value");
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have[0] = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have[1] = *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have[2] = *end == '\0' && a.seconds > 0.0;
    } else if (k == "--trace") {
      a.trace = v == "1";
      have[3] = v == "0" || v == "1";
    } else {
      usage("unknown argument");
    }
  }
  for (bool h : have)
    if (!h) usage("every argument is required");
  return a;
}

// --- set-up -----------------------------------------------------------------

enum class Engine { Sim, Exec };

/// The worker layout of the paper's nodes scaled to 4 threads: 3 CPU workers
/// on the RAM node and 1 GPU-tagged worker on a second node with the
/// Intel-V100 preset's first GPU link.
Platform paper_ratio_layout(const Platform& v100) {
  Platform p;
  p.add_workers(ArchType::CPU, p.ram_node(), 3);
  const MemNode& gpu = v100.node(MemNodeId{std::uint32_t{1}});
  const MemNodeId g = p.add_gpu_node(gpu.capacity_bytes, gpu.bandwidth_bytes_per_s,
                                     gpu.latency_s, "gpu0");
  p.add_workers(ArchType::GPU, g, 1);
  return p;
}

Platform single_node_layout() {
  Platform p;
  p.add_workers(ArchType::CPU, p.ram_node(), 4);
  return p;
}

/// The same DAG (codelets, handles, accesses, flops, priorities, submission
/// order) with empty kernels, so ThreadExecutor can run a simulation-only
/// graph: every second it takes is runtime and policy cost.
std::unique_ptr<TaskGraph> clone_with_empty_kernels(const TaskGraph& g) {
  auto out = std::make_unique<TaskGraph>();
  const KernelFn empty = [](const Task&, std::span<void* const>) {};
  for (std::size_t c = 0; c < g.num_codelets(); ++c) {
    const Codelet& cl = g.codelet(CodeletId{c});
    const bool cpu = cl.can_exec(ArchType::CPU);
    const bool gpu = cl.can_exec(ArchType::GPU);
    if (cpu && gpu)
      out->add_codelet(cl.name, {ArchType::CPU, ArchType::GPU}, empty);
    else if (gpu)
      out->add_codelet(cl.name, {ArchType::GPU}, empty);
    else
      out->add_codelet(cl.name, {ArchType::CPU}, empty);
  }
  for (const DataHandle& h : g.handles().all()) out->add_data_on(h.bytes, h.home);
  for (std::size_t t = 0; t < g.num_tasks(); ++t) {
    const Task& task = g.task(TaskId{t});
    SubmitOptions o;
    o.flops = task.flops;
    o.user_priority = task.user_priority;
    o.iparams = task.iparams;
    out->submit(task.codelet, task.accesses, o);
  }
  return out;
}

struct Instance {
  Engine primary = Engine::Sim;
  std::string inputs;    ///< one-line description of the generated inputs
  PlatformPreset sim;    ///< what SimEngine runs on (platform + ground truth)
  Platform real;         ///< ThreadExecutor's worker layout (4 threads)
  std::string real_label;
  std::unique_ptr<TaskGraph> graph;       ///< the workload's DAG
  std::unique_ptr<TaskGraph> empty_graph; ///< sim-*: graph with empty kernels
  std::unique_ptr<dense::TileMatrix> tiles;  ///< exec-*: the real matrix
  std::vector<double> a0;  ///< exec-*: A before factorization (column-major)
  double a0_norm = 0.0;    ///< ‖A‖_F
  std::size_t nb = 0;      ///< dense tile size (0 for sparse QR)
  double build_dag_s = 0.0;
  double analyze_s = 0.0;  ///< sqr::generate + analyze (sim-sqr only)

  [[nodiscard]] const TaskGraph& real_graph() const {
    return empty_graph ? *empty_graph : *graph;
  }
};

std::unique_ptr<Instance> set_up(const std::string& workload, std::uint64_t seed) {
  auto in = std::make_unique<Instance>();
  in->graph = std::make_unique<TaskGraph>();
  if (workload == "sim-potrf") {
    // N = 76800 in 960-wide tiles: the data overflows both 16 GB GPUs.
    // Simulation-only tiles carry no values, so the seed changes nothing.
    in->primary = Engine::Sim;
    in->nb = 960;
    in->sim = intel_v100();
    const double t0 = wall_s();
    dense::TileMatrix a(80, in->nb, /*allocate=*/false);
    a.register_handles(*in->graph);
    dense::build_potrf(*in->graph, a, /*expert_priorities=*/true);
    in->build_dag_s = wall_s() - t0;
    in->inputs = "tiled Cholesky, 80x80 tiles of 960 (N=76800), expert priorities";
  } else if (workload == "sim-sqr") {
    in->primary = Engine::Sim;
    in->sim = intel_v100(4);
    sqr::MatrixSpec spec;
    for (const sqr::MatrixSpec& s : sqr::paper_matrix_specs())
      if (s.name == "TF17") spec = s;
    const double t0 = wall_s();
    const sqr::SymbolicAnalysis sym =
        sqr::analyze(sqr::tall_orientation(sqr::generate(spec, seed)));
    const double t1 = wall_s();
    const sqr::SparseQrStats st = sqr::build_sparseqr(*in->graph, sym);
    in->analyze_s = t1 - t0;
    in->build_dag_s = wall_s() - t1;
    in->inputs = "multifrontal QR of generated TF17 (" + std::to_string(spec.rows) +
                 "x" + std::to_string(spec.cols) + ", " + std::to_string(st.fronts) +
                 " fronts), no priorities";
  } else if (workload == "exec-potrf-coarse" || workload == "exec-potrf-fine") {
    const bool coarse = workload == "exec-potrf-coarse";
    in->primary = Engine::Exec;
    in->nb = coarse ? 192 : 16;
    const std::size_t tiles = coarse ? 16 : 60;
    const PlatformPreset v100 = intel_v100();
    in->real = coarse ? single_node_layout() : paper_ratio_layout(v100.platform);
    in->sim = PlatformPreset{"Intel-V100 rates on the real layout", in->real, v100.perf};
    in->tiles = std::make_unique<dense::TileMatrix>(tiles, in->nb, /*allocate=*/true);
    in->tiles->fill_spd(seed);
    in->a0 = in->tiles->to_full();
    const double t1 = wall_s();
    in->tiles->register_handles(*in->graph);
    dense::build_potrf(*in->graph, *in->tiles, /*expert_priorities=*/true);
    in->build_dag_s = wall_s() - t1;
    double s = 0.0;
    for (double v : in->a0) s += v * v;
    in->a0_norm = std::sqrt(s);
    in->inputs = "tiled Cholesky, " + std::to_string(tiles) + "x" +
                 std::to_string(tiles) + " tiles of " + std::to_string(in->nb) +
                 " (n=" + std::to_string(tiles * in->nb) + "), SPD from the seed";
  } else {
    usage("unknown workload");
  }
  if (in->primary == Engine::Sim) {
    // The empty-kernel runs price runtime and policy per task. On the 3+1
    // layout many of them end in the 2 s stall timeout (README.md), which
    // exec-potrf-fine reproduces; one node keeps them a cost reading.
    in->real = single_node_layout();
    in->empty_graph = clone_with_empty_kernels(*in->graph);
    in->real_label = "empty kernels";
  } else {
    in->real_label = "real kernels";
  }
  // Engine construction (both are cheap; SimEngine self-checks the graph).
  { SimEngine probe(*in->graph, in->sim.platform, in->sim.perf); }
  { ThreadExecutor probe(in->real_graph(), in->real, in->sim.perf); }
  return in;
}

// --- checks -------------------------------------------------------------------

/// ‖A·x − L·(Lᵀ·x)‖₂ / (‖A‖_F·‖x‖₂) for a seeded random x: O(n²), where the
/// full reference factorization would be O(n³).
double cholesky_residual(const Instance& in, std::uint64_t seed) {
  const std::size_t n = in.tiles->n();
  const std::vector<double> l = in.tiles->to_full();
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<double> x(n);
  double xx = 0.0;
  for (double& v : x) {
    v = rng.next_real(-1.0, 1.0);
    xx += v * v;
  }
  std::vector<double> y(n, 0.0);  // Lᵀ·x
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j; i < n; ++i) y[j] += l[j * n + i] * x[i];
  std::vector<double> r(n, 0.0);  // A·x − L·y
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) r[i] += in.a0[j * n + i] * x[j];
    for (std::size_t i = j; i < n; ++i) r[i] -= l[j * n + i] * y[j];
  }
  double rr = 0.0;
  for (double v : r) rr += v * v;
  return std::sqrt(rr) / (in.a0_norm * std::sqrt(xx));
}

// --- per-layer read-outs ------------------------------------------------------

using Layer = std::map<std::string, double>;

std::uint64_t counter_value(const MetricsRegistry& m, const std::string& name) {
  for (const auto& [n, c] : m.counters())
    if (n == name) return c->value();
  return 0;
}

const Histogram* find_histogram(const MetricsRegistry& m, const std::string& name) {
  for (const auto& [n, h] : m.histograms())
    if (n == name) return h;
  return nullptr;
}

/// Policy-side numbers of one traced run ("sched.*", "multiprio.*").
void add_policy_layer(Layer& l, const PolicyTally& t, const RecordingObserver& rec) {
  const MetricsRegistry& m = rec.metrics_registry();
  const double calls = static_cast<double>(t.pop_calls.load());
  l["sched.push_ns"] =
      ratio(static_cast<double>(t.push_ns.load()), static_cast<double>(t.pushed.load()));
  l["sched.pop_ns"] = ratio(static_cast<double>(t.pop_ns.load()), calls);
  l["sched.pop_calls"] = calls;
  l["sched.pop_hit_ratio"] = ratio(static_cast<double>(t.pop_hits.load()), calls);
  l["multiprio.evicts"] = static_cast<double>(rec.events().count(SchedEventKind::Evict));
  l["multiprio.pop_rejects"] =
      static_cast<double>(rec.events().count(SchedEventKind::PopReject));
  l["multiprio.stale_discards"] =
      static_cast<double>(counter_value(m, "multiprio.stale_discards"));
  l["multiprio.locality_hit_ratio"] =
      ratio(static_cast<double>(counter_value(m, "multiprio.locality_window_hits")),
            static_cast<double>(counter_value(m, "multiprio.locality_window_scans")));
  l["sched.wakeups"] = static_cast<double>(counter_value(m, "sched.wakeups"));
  const Histogram* lock_wait = find_histogram(m, "sched.lock_wait_s");
  l["sched.lock_wait_s"] = lock_wait != nullptr ? lock_wait->sum() : 0.0;
}

// --- the two engines ----------------------------------------------------------

/// Tallies of one engine's operations, across its reps.
struct Runs {
  std::vector<double> untraced_s;  ///< engine run() wall seconds, untraced reps
  std::vector<double> traced_s;
  std::vector<double> cpu_ns_per_task;  ///< exec: untraced reps
  std::vector<Layer> layers;            ///< one per traced rep
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool consistent = true;  ///< traced and untraced runs agree
};

/// Records that one operation failed, and why, on stderr.
void fail(Runs& runs, const std::string& why) {
  ++runs.failed;
  std::fprintf(stderr, "mpbench: operation failed: %s\n", why.c_str());
}

struct SimState {
  std::optional<SimResult> first;  ///< the first untraced rep's result
  double bound_s = 0.0;
};

void run_sim(const Instance& in, bool traced, SimState& st, Runs& runs) {
  const TaskGraph& g = *in.graph;
  const Platform& p = in.sim.platform;
  SimConfig cfg;
  RecordingObserver rec;
  PolicyTally tally(p.num_workers());
  if (traced) cfg.observer = &rec;
  SimEngine engine(g, p, in.sim.perf, cfg);
  const SchedulerFactory factory = [&](SchedContext ctx) -> std::unique_ptr<Scheduler> {
    std::unique_ptr<Scheduler> inner = make_scheduler_by_name(kPolicy, ctx);
    if (!traced) return inner;
    return std::make_unique<TimedScheduler>(std::move(ctx), std::move(inner), tally);
  };
  const double t0 = wall_s();
  const SimResult r = engine.run(factory);
  const double run_s = wall_s() - t0;

  ++runs.attempted;
  (traced ? runs.traced_s : runs.untraced_s).push_back(run_s);
  if (!st.first && !traced) {
    st.first = r;
    st.bound_s = RunAnalysis(engine.trace(), g, p, in.sim.perf).bound_s();
  }
  if (r.tasks_executed != g.num_tasks()) {
    fail(runs, "simulation executed " + std::to_string(r.tasks_executed) + " of " +
                   std::to_string(g.num_tasks()) + " tasks");
  } else if (st.first && r.makespan < st.bound_s) {
    fail(runs, "simulated makespan below RunAnalysis::bound_s()");
  } else if (st.first && r.makespan != st.first->makespan) {
    fail(runs, "simulated makespan differs between reps");
  }
  if (st.first && (r.tasks_executed != st.first->tasks_executed ||
                   r.evictions != st.first->evictions ||
                   r.failed_pops != st.first->failed_pops)) {
    runs.consistent = false;
    std::fprintf(stderr, "mpbench: %s simulation disagrees with the first untraced rep\n",
                 traced ? "traced" : "untraced");
  }
  if (!traced) return;

  const RunAnalysis ra(engine.trace(), g, p, in.sim.perf, &rec,
                       engine.predicted_durations());
  Layer l;
  add_policy_layer(l, tally, rec);
  const double tasks = static_cast<double>(g.num_tasks());
  l["sim.engine_self_ns_per_task"] =
      (run_s * 1e9 - static_cast<double>(tally.policy_ns())) / tasks;
  l["sim.efficiency"] = ratio(ra.bound_s(), r.makespan);
  l["sim.idle.starvation_s"] = ra.idle_cause_total(IdleCause::Starvation);
  l["sim.idle.eviction_s"] = ra.idle_cause_total(IdleCause::Eviction);
  l["sim.idle.dep_wait_s"] = ra.idle_cause_total(IdleCause::DepWait);
  l["sim.idle.drain_s"] = ra.idle_cause_total(IdleCause::Drain);
  l["mem.evictions"] = static_cast<double>(r.evictions);
  l["mem.bytes_to_gpus"] = static_cast<double>(r.bytes_to_gpus);
  l["mem.bytes_from_gpus"] = static_cast<double>(r.bytes_from_gpus);
  runs.layers.push_back(std::move(l));
}

struct ExecState {
  std::optional<SchedConcurrency> untraced_concurrency;
  std::uint64_t seed = 0;
  double serial_s = 0.0;
};

/// Fails the operation if the real factor (exec-*) misses the residual check.
void check_factor(const Instance& in, const ExecState& st, Runs& runs) {
  if (!in.tiles) return;
  const double res = cholesky_residual(in, st.seed);
  if (res > kResidualTolerance)
    fail(runs, "Cholesky residual " + std::to_string(res) + " above tolerance");
}

void run_exec(Instance& in, bool traced, ExecState& st, Runs& runs) {
  const TaskGraph& g = in.real_graph();
  if (in.tiles) in.tiles->from_full(in.a0);
  ExecConfig cfg;
  RecordingObserver rec;
  PolicyTally tally(in.real.num_workers());
  if (traced) cfg.observer = &rec;
  SchedConcurrency made = SchedConcurrency::ExternalLock;
  const ExecSchedulerFactory factory =
      [&](SchedContext ctx) -> std::unique_ptr<Scheduler> {
    std::unique_ptr<Scheduler> s = make_scheduler_by_name(kPolicy, ctx);
    if (traced) s = std::make_unique<TimedScheduler>(std::move(ctx), std::move(s), tally);
    made = s->concurrency();
    return s;
  };
  ThreadExecutor ex(g, in.real, in.sim.perf);
  const double c0 = cpu_s();
  const double t0 = wall_s();
  const ExecResult r = ex.run(factory, cfg);
  const double wall = wall_s() - t0;
  const double cpu = cpu_s() - c0;
  if (traced)
    std::printf("# exec rep (traced): %.4f s wall, %.4f s cpu, %llu stall timeouts\n", wall,
                cpu, static_cast<unsigned long long>(tally.stall_timeouts.load()));
  else
    std::printf("# exec rep: %.4f s wall, %.4f s cpu\n", wall, cpu);

  ++runs.attempted;
  const double tasks = static_cast<double>(g.num_tasks());
  if (r.tasks_executed != g.num_tasks()) {
    fail(runs, "execution ran " + std::to_string(r.tasks_executed) + " of " +
                   std::to_string(g.num_tasks()) + " tasks");
  } else {
    check_factor(in, st, runs);
  }
  if (!traced) {
    runs.untraced_s.push_back(wall);
    runs.cpu_ns_per_task.push_back(cpu * 1e9 / tasks);
    st.untraced_concurrency = made;
    return;
  }
  runs.traced_s.push_back(wall);
  // The adapter must hand the engine the wrapped policy's protocol: the
  // same concurrency() as the bare policy, and the epoch/park calls only
  // the internally-locked protocol makes.
  const bool internal = made == SchedConcurrency::Internal;
  if ((st.untraced_concurrency && made != *st.untraced_concurrency) ||
      internal != (tally.work_epoch_calls.load() > 0)) {
    runs.consistent = false;
    std::fprintf(stderr, "mpbench: traced execution took another engine protocol\n");
  }
  Layer l;
  add_policy_layer(l, tally, rec);
  const double workers = static_cast<double>(in.real.num_workers());
  const double busy = static_cast<double>(tally.busy_ns.load()) * 1e-9;
  l["exec.busy_s"] = busy;
  l["exec.idle_share"] = 1.0 - ratio(busy, workers * wall);
  l["exec.parks"] = static_cast<double>(tally.parks.load());
  l["exec.park_s"] = static_cast<double>(tally.park_ns.load()) * 1e-9;
  l["exec.stall_timeouts"] = static_cast<double>(tally.stall_timeouts.load());
  l["exec.lost_wakeups"] = static_cast<double>(tally.lost_wakeups.load());
  l["exec.speedup_vs_serial"] = ratio(st.serial_s, wall);
  const Histogram* pop = find_histogram(rec.metrics_registry(), "exec.pop_latency_s");
  l["exec.pop_latency_s"] = pop != nullptr ? pop->mean() : 0.0;
  l["exec.pop_latency_p99_s"] = pop != nullptr ? pop->quantile(0.99) : 0.0;
  runs.layers.push_back(std::move(l));
}

/// The same DAG run single-threaded in submission order (a valid
/// topological order under STF): the plain serial baseline.
double run_serial(Instance& in, ExecState& st, Runs& runs) {
  const TaskGraph& g = in.real_graph();
  if (in.tiles) in.tiles->from_full(in.a0);
  std::vector<void*> buffers;
  const double t0 = wall_s();
  for (std::size_t i = 0; i < g.num_tasks(); ++i) {
    const Task& t = g.task(TaskId{i});
    buffers.clear();
    for (const Access& a : t.accesses) buffers.push_back(g.handles().get(a.data).user_ptr);
    g.codelet_of(t.id).cpu_fn(t, buffers);
  }
  const double s = wall_s() - t0;
  ++runs.attempted;
  check_factor(in, st, runs);
  return s;
}

// --- tile-kernel microbench ---------------------------------------------------

struct KernelRow {
  const char* name;
  double flops;
  double tiles_touched;  ///< tiles read + tiles written, for flop/byte
};

/// Median GFlop/s of one public tile kernel, single-threaded at `nb`. Each
/// call first restores its output tile (O(nb²) against the kernel's O(nb³)).
double kernel_gflops(const std::string& name, std::size_t nb, std::uint64_t seed) {
  const std::size_t sz = nb * nb;
  Rng rng(seed);
  std::vector<double> spd(sz), a(sz), b(sz), c(sz);
  for (std::size_t j = 0; j < nb; ++j)
    for (std::size_t i = 0; i <= j; ++i) {
      const double v = rng.next_real(-1.0, 1.0);
      spd[j * nb + i] = v;
      spd[i * nb + j] = v;
    }
  for (std::size_t i = 0; i < nb; ++i) spd[i * nb + i] += static_cast<double>(nb);
  for (double* m : {a.data(), b.data(), c.data()})
    for (std::size_t i = 0; i < sz; ++i) m[i] = rng.next_real(-1.0, 1.0);
  std::vector<double> l = spd;
  dense::potrf(l.data(), nb);
  std::vector<double> work(sz);

  auto restore = [&](const std::vector<double>& from) {
    std::memcpy(work.data(), from.data(), sz * sizeof(double));
  };
  std::function<void()> call;
  double flops = 0.0;
  if (name == "potrf") {
    call = [&] { restore(spd); dense::potrf(work.data(), nb); };
    flops = dense::flops_potrf(nb);
  } else if (name == "trsm") {
    call = [&] { restore(b); dense::trsm_rlt(l.data(), work.data(), nb); };
    flops = dense::flops_trsm(nb);
  } else if (name == "syrk") {
    call = [&] { restore(c); dense::syrk_ln(a.data(), work.data(), nb); };
    flops = dense::flops_syrk(nb);
  } else {
    call = [&] { restore(c); dense::gemm_nt(a.data(), b.data(), work.data(), nb); };
    flops = dense::flops_gemm(nb);
  }
  // Calls per batch so that one batch takes about 10 ms.
  const double t0 = wall_s();
  call();
  const double one = std::max(1e-7, wall_s() - t0);
  const std::size_t per_batch =
      std::max<std::size_t>(1, static_cast<std::size_t>(0.01 / one));
  std::vector<double> per_call;
  for (int rep = 0; rep < 7; ++rep) {
    const double b0 = wall_s();
    for (std::size_t k = 0; k < per_batch; ++k) call();
    per_call.push_back((wall_s() - b0) / static_cast<double>(per_batch));
  }
  return flops / median(per_call) * 1e-9;
}

// --- output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_result(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return s + "}}";
}

/// Every per-layer metric of a traced run, in output order. A layer that a
/// workload does not exercise reads 0 (README.md lists which).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"apps.build_dag_s", "s"},
    {"apps.sqr_analyze_s", "s"},
    {"apps.serial_s", "s"},
    {"apps.kernel_gflops.potrf", "GFlop/s"},
    {"apps.kernel_gflops.trsm", "GFlop/s"},
    {"apps.kernel_gflops.syrk", "GFlop/s"},
    {"apps.kernel_gflops.gemm", "GFlop/s"},
    {"apps.kernel_flop_per_byte.potrf", "flop/B"},
    {"apps.kernel_flop_per_byte.trsm", "flop/B"},
    {"apps.kernel_flop_per_byte.syrk", "flop/B"},
    {"apps.kernel_flop_per_byte.gemm", "flop/B"},
    {"sched.push_ns", "ns"},
    {"sched.pop_ns", "ns"},
    {"sched.pop_calls", "count"},
    {"sched.pop_hit_ratio", "ratio"},
    {"sched.wakeups", "count"},
    {"sched.lock_wait_s", "s"},
    {"multiprio.evicts", "count"},
    {"multiprio.pop_rejects", "count"},
    {"multiprio.stale_discards", "count"},
    {"multiprio.locality_hit_ratio", "ratio"},
    {"mem.evictions", "count"},
    {"mem.bytes_to_gpus", "B"},
    {"mem.bytes_from_gpus", "B"},
    {"sim.engine_self_ns_per_task", "ns"},
    {"sim.efficiency", "ratio"},
    {"sim.idle.starvation_s", "virtual_s"},
    {"sim.idle.eviction_s", "virtual_s"},
    {"sim.idle.dep_wait_s", "virtual_s"},
    {"sim.idle.drain_s", "virtual_s"},
    {"exec.busy_s", "s"},
    {"exec.idle_share", "ratio"},
    {"exec.parks", "count"},
    {"exec.park_s", "s"},
    {"exec.stall_timeouts", "count"},
    {"exec.lost_wakeups", "count"},
    {"exec.speedup_vs_serial", "ratio"},
    {"exec.pop_latency_s", "s"},
    {"exec.pop_latency_p99_s", "s"},
    {"exec.cpu_ns_per_task", "ns"},
    {"obs.trace_overhead", "ratio"},
};

/// Median over traced reps, except for rare events, which a median would
/// hide: those are the mean per run.
Layer summarize(const std::vector<Layer>& ls) {
  std::map<std::string, std::vector<double>> cols;
  for (const Layer& l : ls)
    for (const auto& [k, v] : l) cols[k].push_back(v);
  Layer out;
  for (auto& [k, vs] : cols) {
    if (k == "exec.stall_timeouts" || k == "exec.lost_wakeups") {
      double sum = 0.0;
      for (double v : vs) sum += v;
      out[k] = sum / static_cast<double>(vs.size());
    } else {
      out[k] = median(vs);
    }
  }
  return out;
}

bool is_policy_metric(const std::string& k) {
  return k.rfind("sched.", 0) == 0 || k.rfind("multiprio.", 0) == 0;
}

std::string describe(const Platform& p) {
  std::size_t cpu = 0;
  std::size_t gpu = 0;
  for (const Worker& w : p.workers()) (w.arch == ArchType::CPU ? cpu : gpu)++;
  return std::to_string(p.num_workers()) + " workers (" + std::to_string(cpu) + " CPU + " +
         std::to_string(gpu) + " GPU) on " + std::to_string(p.num_nodes()) +
         " memory nodes";
}

int run(const Args& args) {
  // Set-up, several times: setup_s is the median; the last instance is used.
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> analyze_s;
  std::unique_ptr<Instance> in;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    in.reset();
    const double t0 = wall_s();
    in = set_up(args.workload, args.seed);
    setup_s.push_back(wall_s() - t0);
    build_s.push_back(in->build_dag_s);
    analyze_s.push_back(in->analyze_s);
  }
  std::printf("# mpbench workload=%s seed=%llu seconds=%g trace=%d policy=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, kPolicy);
  std::printf("# inputs: %s; %zu tasks\n", in->inputs.c_str(), in->graph->num_tasks());
  std::printf("# simulated: %s, %s\n", in->sim.name.c_str(),
              describe(in->sim.platform).c_str());
  std::printf("# real: %s (%s), %zu tasks\n", describe(in->real).c_str(),
              in->real_label.c_str(), in->real_graph().num_tasks());

  Runs sim;
  Runs exec;
  SimState sim_state;
  ExecState exec_state;
  exec_state.seed = args.seed;
  Layer apps;
  if (args.trace) {
    apps["apps.build_dag_s"] = median(build_s);
    apps["apps.sqr_analyze_s"] = median(analyze_s);
    exec_state.serial_s = run_serial(*in, exec_state, exec);
    apps["apps.serial_s"] = exec_state.serial_s;
    for (const KernelRow& k :
         {KernelRow{"potrf", in->nb ? dense::flops_potrf(in->nb) : 0.0, 2.0},
          KernelRow{"trsm", in->nb ? dense::flops_trsm(in->nb) : 0.0, 3.0},
          KernelRow{"syrk", in->nb ? dense::flops_syrk(in->nb) : 0.0, 3.0},
          KernelRow{"gemm", in->nb ? dense::flops_gemm(in->nb) : 0.0, 4.0}}) {
      const std::string n = k.name;
      // Computed, not measured: flops over the tile bytes the kernel reads
      // and writes.
      apps["apps.kernel_flop_per_byte." + n] =
          ratio(k.flops, k.tiles_touched * static_cast<double>(in->nb * in->nb * 8));
      // Measured only where the real kernels run at this nb.
      apps["apps.kernel_gflops." + n] =
          in->tiles ? kernel_gflops(n, in->nb, args.seed) : 0.0;
    }
  }

  // The two engines' reps interleave over the whole window, so both sample
  // the same host conditions; the other engine gets its share of the time.
  // Traced reps alternate with untraced ones for the same reason.
  const bool sim_primary = in->primary == Engine::Sim;
  double spent[2] = {0.0, 0.0};  // [0] primary engine, [1] the other one
  std::size_t reps[2] = {0, 0};
  const double start = wall_s();
  while (wall_s() - start < args.seconds || reps[0] < kMinReps || reps[1] < kMinReps) {
    const bool other_behind = spent[1] < (1.0 - kPrimaryShare) * (spent[0] + spent[1]);
    const bool out_of_time = wall_s() - start >= args.seconds;
    const int e = out_of_time ? (reps[0] < kMinReps ? 0 : 1) : (other_behind ? 1 : 0);
    const bool traced = args.trace && reps[e] % 2 == 1;
    const double t0 = wall_s();
    if ((e == 0) == sim_primary)
      run_sim(*in, traced, sim_state, sim);
    else
      run_exec(*in, traced, exec_state, exec);
    spent[e] += wall_s() - t0;
    ++reps[e];
  }
  std::printf(
      "# reps: simulator %zu untraced + %zu traced, executor %zu untraced + %zu traced\n",
      sim.untraced_s.size(), sim.traced_s.size(), exec.untraced_s.size(),
      exec.traced_s.size());

  std::vector<Metric> ms;
  if (!args.trace) {
    ms.push_back({"setup_s", median(setup_s), "s"});
    ms.push_back({"sim_task_rate",
                  static_cast<double>(in->graph->num_tasks()) / median(sim.untraced_s),
                  "1/s"});
    ms.push_back({"sim_makespan_s", sim_state.first ? sim_state.first->makespan : 0.0,
                  "virtual_s"});
    ms.push_back({"exec_makespan_s", median(exec.untraced_s), "s"});
    ms.push_back({"exec_cpu_ns_per_task", median(exec.cpu_ns_per_task), "ns"});
  } else {
    // Policy numbers come from the workload's primary engine; each engine's
    // own numbers from that engine.
    Layer all = apps;
    for (const auto& [k, v] : summarize(sim.layers))
      if (!is_policy_metric(k) || in->primary == Engine::Sim) all[k] = v;
    for (const auto& [k, v] : summarize(exec.layers))
      if (!is_policy_metric(k) || in->primary == Engine::Exec) all[k] = v;
    all["exec.cpu_ns_per_task"] = median(exec.cpu_ns_per_task);
    const Runs& primary = in->primary == Engine::Sim ? sim : exec;
    all["obs.trace_overhead"] = ratio(median(primary.traced_s), median(primary.untraced_s));
    for (const LayerMetric& m : kLayerMetrics) ms.push_back({m.name, all[m.name], m.unit});
  }
  for (const Metric& m : ms)
    std::printf("# %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  const std::size_t attempted = sim.attempted + exec.attempted;
  const std::size_t failed = sim.failed + exec.failed;
  const bool correct = failed == 0 && sim.consistent && exec.consistent;
  std::printf("%s\n", json_result(correct, attempted, failed, ms).c_str());
  return 0;
}

}  // namespace
}  // namespace mpbench

int main(int argc, char** argv) { return mpbench::run(mpbench::parse_args(argc, argv)); }
