// Regenerates the paper's Table II (gain-heuristic worked example) and the
// Fig. 3 NOD example, printing paper value vs computed value.
#include <cstdio>

#include "bench_util.hpp"
#include "core/gain.hpp"
#include "core/nod.hpp"

namespace {

void table2() {
  using namespace mp;
  TaskGraph graph;
  const CodeletId cl = graph.add_codelet("k", {ArchType::CPU, ArchType::GPU});
  std::vector<TaskId> tasks;
  for (int i = 0; i < 3; ++i) {
    const DataId d = graph.add_data(100 + static_cast<std::size_t>(i));
    tasks.push_back(graph.submit(cl, {Access{d, AccessMode::ReadWrite}}));
  }
  Platform platform;
  platform.add_workers(ArchType::CPU, platform.ram_node(), 1);
  const MemNodeId gpu = platform.add_gpu_node(0, 10e9, 1e-6);
  platform.add_workers(ArchType::GPU, gpu, 1);

  PerfDatabase db;
  db.set_default(ArchType::CPU, RateSpec{10.0, 0.0, 0.0, 0.0});
  db.set_default(ArchType::GPU, RateSpec{10.0, 0.0, 0.0, 0.0});
  HistoryModel history(graph, db);
  MemoryManager memory(graph, platform);
  // Table II δ values (ms): a1 = CPU, a2 = GPU.
  const double cpu_ms[3] = {1, 5, 20};
  const double gpu_ms[3] = {20, 10, 10};
  for (int i = 0; i < 3; ++i) {
    history.record(tasks[i], ArchType::CPU, cpu_ms[i] * 1e-3);
    history.record(tasks[i], ArchType::GPU, gpu_ms[i] * 1e-3);
  }
  SchedContext ctx;
  ctx.graph = &graph;
  ctx.platform = &platform;
  ctx.perf = &history;
  ctx.memory = &memory;
  ctx.now = [] { return 0.0; };

  GainTracker gain;
  const double paper_a1[3] = {1.0, 0.631, 0.236};
  const double paper_a2[3] = {0.0, 0.368, 0.763};
  Table t({"task", "δ(a1)", "δ(a2)", "gain(a1) paper", "gain(a1) ours",
           "gain(a2) paper", "gain(a2) ours"});
  const char* names[3] = {"t_A", "t_B", "t_C"};
  for (int i = 0; i < 3; ++i) {
    // δ resolved once per task, as MultiPrio's push does.
    const ArchMask enabled = enabled_archs(ctx, tasks[i]);
    const std::array<double, kNumArchTypes> delta{
        history.estimate(tasks[i], ArchType::CPU), history.estimate(tasks[i], ArchType::GPU)};
    const double g1 = gain.gain(enabled, delta, ArchType::CPU);
    const double g2 = gain.gain(enabled, delta, ArchType::GPU);
    t.add_row({names[i], fmt_double(cpu_ms[i], 0) + "ms", fmt_double(gpu_ms[i], 0) + "ms",
               fmt_double(paper_a1[i], 3), fmt_double(g1, 3), fmt_double(paper_a2[i], 3),
               fmt_double(g2, 3)});
  }
  std::printf("Table II — gain heuristic example (hd(a1) = hd(a2) = %.0f ms)\n%s\n",
              gain.hd(ArchType::CPU) * 1e3, t.to_ascii().c_str());
}

void figure3() {
  using namespace mp;
  // DAG of Fig. 3: T1→{T2,T3}; T2→{T4,T5,T6}; T3→{T6,T7}; T4→T7.
  TaskGraph graph;
  const CodeletId cl = graph.add_codelet("k", {ArchType::CPU});
  const std::vector<std::pair<int, int>> edges = {{0, 1}, {0, 2}, {1, 3}, {1, 4},
                                                  {1, 5}, {2, 5}, {2, 6}, {3, 6}};
  std::vector<DataId> edge_data;
  for (std::size_t e = 0; e < edges.size(); ++e) edge_data.push_back(graph.add_data(64));
  std::vector<TaskId> tasks;
  for (int i = 0; i < 7; ++i) {
    std::vector<Access> acc;
    const DataId own = graph.add_data(64);
    acc.push_back(Access{own, AccessMode::ReadWrite});
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (edges[e].first == i) acc.push_back(Access{edge_data[e], AccessMode::Write});
      if (edges[e].second == i) acc.push_back(Access{edge_data[e], AccessMode::Read});
    }
    tasks.push_back(graph.submit(cl, std::span<const Access>(acc)));
  }
  Platform platform;
  platform.add_workers(ArchType::CPU, platform.ram_node(), 2);
  PerfDatabase db;
  db.set_default(ArchType::CPU, RateSpec{10.0, 0.0, 0.0, 0.0});
  HistoryModel history(graph, db);
  MemoryManager memory(graph, platform);
  SchedContext ctx;
  ctx.graph = &graph;
  ctx.platform = &platform;
  ctx.perf = &history;
  ctx.memory = &memory;

  std::printf("Fig. 3 — NOD criticality example\n");
  std::printf("  NOD(T2): paper 2.5, ours %.1f\n",
              nod_score(ctx, tasks[1], platform.ram_node()));
  std::printf("  NOD(T3): paper 1.0, ours %.1f\n\n",
              nod_score(ctx, tasks[2], platform.ram_node()));
}

}  // namespace

int main() {
  table2();
  figure3();
  return 0;
}
