// Shared helpers for the test suite.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "runtime/perf_model.hpp"
#include "runtime/platform.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_graph.hpp"

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
