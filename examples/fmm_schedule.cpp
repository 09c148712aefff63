// Task-based FMM (TBFMM-style) scheduled on both paper platforms — the
// Fig. 6 setting at reduced scale, plus a real threaded execution that
// validates the computed potentials against direct summation.
//
//   ./examples/fmm_schedule [particles] [tree_height]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "apps/fmm/dag_builder.hpp"
#include "common/csv.hpp"
#include "exec/thread_executor.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "sim/platform_presets.hpp"

int main(int argc, char** argv) {
  using namespace mp;
  using namespace mp::fmm;
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;
  const std::size_t height = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5;

  // --- scheduling study on the two platforms --------------------------------
  auto parts = clustered_sphere(n, 42);
  Octree tree(parts, {height, 32, false});
  TaskGraph graph;
  const FmmBuildStats stats = build_fmm(graph, tree);
  std::printf("FMM: %zu particles, height %zu -> %zu tasks "
              "(P2M %zu, M2M %zu, M2L %zu, L2L %zu, L2P %zu, P2P %zu)\n\n",
              n, height, stats.total(), stats.p2m, stats.m2m, stats.m2l, stats.l2l,
              stats.l2p, stats.p2p);

  for (auto preset : {intel_v100(2), amd_a100(2)}) {
    Table table({"scheduler", "makespan (ms)", "CPU idle", "GPU idle"});
    for (const char* name : {"multiprio", "dmdas", "heteroprio"}) {
      SimEngine engine(graph, preset.platform, preset.perf);
      const SimResult r = engine.run(scheduler_factory(name));
      double gpu_idle = 0.0;
      for (std::size_t m = 1; m < preset.platform.num_nodes(); ++m)
        gpu_idle += r.idle_per_node[m];
      gpu_idle /= static_cast<double>(preset.platform.num_nodes() - 1);
      table.add_row({name, fmt_double(r.makespan * 1e3, 2),
                     fmt_percent(r.idle_per_node[0]), fmt_percent(gpu_idle)});
    }
    std::printf("%s (2 streams/GPU)\n%s\n", preset.name.c_str(),
                table.to_ascii().c_str());
  }

  // --- real execution + accuracy check (smaller set) ------------------------
  auto small = uniform_cube(1500, 7);
  const auto direct = direct_potentials(small);
  Octree real_tree(small, {4, 8, true});
  TaskGraph real_graph;
  (void)build_fmm(real_graph, real_tree);
  Platform node;
  node.add_workers(ArchType::CPU, node.ram_node(), 2);
  PerfDatabase flat;
  flat.set_default(ArchType::CPU, RateSpec{10.0, 0.0, 0.0, 0.0});
  flat.set_default(ArchType::GPU, RateSpec{100.0, 0.0, 0.0, 0.0});
  ThreadExecutor exec(real_graph, node, flat);
  (void)exec.run(scheduler_factory("multiprio"));
  const auto fmm_pot = real_tree.potentials_original_order();
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < direct.size(); ++i) {
    num += (fmm_pot[i] - direct[i]) * (fmm_pot[i] - direct[i]);
    den += direct[i] * direct[i];
  }
  std::printf("real task-based FMM vs direct sum (1500 particles): "
              "relative L2 error = %.2e\n",
              std::sqrt(num / den));
  return 0;
}
