// Shared helpers for the test suite.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/platform.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/trace.hpp"

namespace mp::test {

/// Builds a DAG with `n` tasks and the given edges (u → v, u < v) via STF
/// submission: each edge gets its own handle written by u and read by v.
/// Every task uses the same dual-arch codelet with `flops`.
struct EdgeGraph {
  TaskGraph graph;
  std::vector<TaskId> tasks;

  EdgeGraph(std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges,
            double flops = 1e6, std::initializer_list<ArchType> where = {ArchType::CPU,
                                                                         ArchType::GPU}) {
    const CodeletId cl = graph.add_codelet("work", where);
    // Pre-register one handle per edge plus one private handle per task.
    std::vector<DataId> edge_data(edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e)
      edge_data[e] = graph.add_data(1024);
    std::vector<DataId> own(n);
    for (std::size_t i = 0; i < n; ++i) own[i] = graph.add_data(1024);

    for (std::size_t i = 0; i < n; ++i) {
      std::vector<Access> acc;
      acc.reserve(1 + edges.size());
      acc.push_back(Access{own[i], AccessMode::ReadWrite});
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (edges[e].first == i) acc.push_back(Access{edge_data[e], AccessMode::Write});
        if (edges[e].second == i) acc.push_back(Access{edge_data[e], AccessMode::Read});
      }
      SubmitOptions opts;
      opts.flops = flops;
      opts.iparams = {static_cast<std::int64_t>(i), 0, 0, 0};
      tasks.push_back(graph.submit(cl, std::span<const Access>(acc), opts));
    }
  }
};

/// Random layered DAG with mixed modes including Commute. `kernel` (none by
/// default) becomes the CPU implementation of both codelets, so the graph can
/// also run under the ThreadExecutor.
inline TaskGraph fuzz_graph(std::uint64_t seed, std::size_t n_tasks,
                            const KernelFn& kernel = nullptr) {
  Rng rng(seed);
  TaskGraph g;
  const CodeletId both = g.add_codelet("both", {ArchType::CPU, ArchType::GPU}, kernel);
  const CodeletId conly = g.add_codelet("conly", {ArchType::CPU}, kernel);
  std::vector<DataId> data;
  for (std::size_t i = 0; i < n_tasks / 2 + 2; ++i)
    data.push_back(g.add_data(256 + rng.next_in(0, 8192)));
  for (std::size_t i = 0; i < n_tasks; ++i) {
    std::vector<Access> acc;
    const DataId own = data[rng.next_in(0, data.size() - 1)];
    const double mode_pick = rng.next_double();
    AccessMode m = AccessMode::ReadWrite;
    if (mode_pick < 0.3) m = AccessMode::Read;
    if (mode_pick > 0.8) m = AccessMode::Commute;
    if (mode_pick > 0.95) m = AccessMode::Write;
    acc.push_back(Access{own, m});
    if (rng.next_double() < 0.7) {
      const DataId extra = data[rng.next_in(0, data.size() - 1)];
      if (extra != own) acc.push_back(Access{extra, AccessMode::Read});
    }
    SubmitOptions o;
    o.flops = 1e6 * static_cast<double>(1 + rng.next_in(0, 80));
    (void)g.submit(rng.next_double() < 0.2 ? conly : both,
                   std::span<const Access>(acc), std::move(o));
  }
  return g;
}

/// 1 RAM node with `cpus` CPU workers + `gpus` GPU nodes with one worker each.
inline Platform small_platform(std::size_t cpus, std::size_t gpus,
                               std::size_t gpu_capacity = 0) {
  Platform p;
  if (cpus > 0) p.add_workers(ArchType::CPU, p.ram_node(), cpus);
  for (std::size_t g = 0; g < gpus; ++g) {
    const MemNodeId node = p.add_gpu_node(gpu_capacity, 10e9, 1e-6);
    p.add_workers(ArchType::GPU, node, 1);
  }
  return p;
}

/// Perf database with flat per-arch rates (CPU slow, GPU fast).
inline PerfDatabase flat_perf(double cpu_gflops = 10.0, double gpu_gflops = 100.0) {
  PerfDatabase db;
  db.set_default(ArchType::CPU, RateSpec{cpu_gflops, 0.0, 0.0, 0.0});
  db.set_default(ArchType::GPU, RateSpec{gpu_gflops, 0.0, 0.0, 0.0});
  return db;
}

/// Tasks executed per worker, counted from a run's trace.
inline std::vector<std::size_t> tasks_per_worker(const Trace& trace,
                                                 std::size_t num_workers) {
  std::vector<std::size_t> n(num_workers, 0);
  for (const TraceSegment& s : trace.segments()) ++n[s.worker.index()];
  return n;
}

/// Wires a SchedContext over the pieces (no engine). The liveness mask is
/// wired in so fault tests can kill workers with `liveness.mark_dead(w)`
/// before calling notify_worker_removed on the policy under test.
struct ManualContext {
  const TaskGraph& graph;
  const Platform& platform;
  PerfDatabase perf;
  HistoryModel history;
  MemoryManager memory;
  WorkerLiveness liveness;
  double now = 0.0;

  ManualContext(const TaskGraph& g, const Platform& p, PerfDatabase db)
      : graph(g), platform(p), perf(std::move(db)), history(g, perf), memory(g, p),
        liveness(p) {}

  [[nodiscard]] SchedContext ctx() {
    SchedContext c;
    c.graph = &graph;
    c.platform = &platform;
    c.perf = &history;
    c.memory = &memory;
    c.now = [this] { return now; };
    c.liveness = &liveness;
    return c;
  }
};

}  // namespace mp::test
