// Dense Cholesky on the paper's Intel-V100 platform: compare schedulers on
// the same DAG and show the per-resource utilization that drives Fig. 4/5.
//
//   ./examples/cholesky_sim [matrix_size] [tile_size]
#include <cstdio>
#include <cstdlib>

#include "apps/dense/dense_builders.hpp"
#include "common/csv.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "sim/platform_presets.hpp"

int main(int argc, char** argv) {
  using namespace mp;
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20480;
  const std::size_t nb = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1280;
  const std::size_t tiles = n / nb;

  TaskGraph graph;
  dense::TileMatrix a(tiles, nb, /*allocate=*/false);
  a.register_handles(graph);
  dense::build_potrf(graph, a, /*expert_priorities=*/true);

  const PlatformPreset preset = intel_v100();
  std::printf("Cholesky %zux%zu, tile %zu -> %zu tasks on %s\n\n", n, n, nb,
              graph.num_tasks(), preset.name.c_str());

  Table table({"scheduler", "makespan (s)", "GFlop/s", "CPU idle", "GPU idle",
               "GB to GPUs"});
  for (const char* name : {"multiprio", "dmdas", "heteroprio", "lws", "eager"}) {
    SimEngine engine(graph, preset.platform, preset.perf);
    const SimResult r = engine.run(scheduler_factory(name));
    double gpu_idle = 0.0;
    for (std::size_t m = 1; m < preset.platform.num_nodes(); ++m)
      gpu_idle += r.idle_per_node[m];
    gpu_idle /= static_cast<double>(preset.platform.num_nodes() - 1);
    table.add_row({name, fmt_double(r.makespan, 4),
                   fmt_double(dense::potrf_total_flops(n) / r.makespan / 1e9, 1),
                   fmt_percent(r.idle_per_node[0]), fmt_percent(gpu_idle),
                   fmt_double(static_cast<double>(r.bytes_to_gpus) / 1e9, 2)});
  }
  std::printf("%s\n", table.to_ascii().c_str());
  std::printf("(GFlop/s uses the algorithmic n^3/3 flop count, as Chameleon reports)\n");
  return 0;
}
