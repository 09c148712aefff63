// Regenerates Fig. 4: simulated Cholesky of a 960×20-tile matrix on a node
// with 1 GPU and 6 CPUs, MultiPrio with and without the eviction mechanism.
// Paper: eviction cuts GPU idle time from 29% to 1% and shortens the
// makespan; the practical critical path is highlighted in the traces.
#include <cstdio>

#include "apps/dense/dense_builders.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mp;
  using namespace mp::bench;
  (void)argc;
  (void)argv;

  const std::size_t tiles = 20;
  const std::size_t nb = 960;

  TaskGraph graph;
  dense::TileMatrix a(tiles, nb, /*allocate=*/false);
  a.register_handles(graph);
  dense::build_potrf(graph, a, /*expert_priorities=*/false);

  const PlatformPreset preset = fig4_node();
  std::printf("Fig. 4 — eviction-mechanism study\n");
  std::printf("Cholesky %zux%zu tiles of %zu on %s (%zu tasks)\n\n", tiles, tiles, nb,
              preset.name.c_str(), graph.num_tasks());

  Table t({"variant", "makespan (s)", "CPU idle", "GPU idle", "critical path len",
           "paper GPU idle"});
  struct Row {
    const char* variant;
    const char* sched;
    const char* paper;
  };
  for (const Row& row : {Row{"MultiPrio w/o eviction", "multiprio-noevict", "29%"},
                         Row{"MultiPrio with eviction", "multiprio", "1%"}}) {
    SimEngine engine(graph, preset.platform, preset.perf);
    const SimResult r = engine.run(scheduler_factory(row.sched));
    t.add_row({row.variant, fmt_double(r.makespan, 4), fmt_percent(r.idle_per_node[0]),
               fmt_percent(gpu_idle(preset.platform, r)),
               std::to_string(engine.trace().practical_critical_path().size()),
               row.paper});
  }
  std::printf("%s\n", t.to_ascii().c_str());

  // Show the end-of-DAG behaviour the paper's traces highlight.
  std::printf("Gantt, with eviction (# = busy, last rows are the GPU stream):\n");
  SimEngine engine(graph, preset.platform, preset.perf);
  (void)engine.run(scheduler_factory("multiprio"));
  std::printf("%s\n", engine.trace().ascii_gantt(100).c_str());
  return 0;
}
