// Compare two schedulers on the same DAG, post-mortem: run both under a
// recording observer, analyze each completed run (critical path, area and
// critical-path lower bounds, idle-blame decomposition, δ(t,a) model audit)
// and print the side-by-side delta tables — the "why did A beat B" view.
//
//   ./examples/run_compare [schedA] [schedB] [tiles] [tile_size]
//
// Defaults: multiprio vs dmdas on a 24x24-tile LU (getrf) with 960-wide
// tiles on the Intel-V100 preset.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/dense/dense_builders.hpp"
#include "obs/analysis.hpp"
#include "obs/compare.hpp"
#include "obs/observer.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "sim/platform_presets.hpp"

int main(int argc, char** argv) {
  using namespace mp;
  const std::string sched_a = argc > 1 ? argv[1] : "multiprio";
  const std::string sched_b = argc > 2 ? argv[2] : "dmdas";
  const std::size_t tiles = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 24;
  const std::size_t nb = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 960;

  TaskGraph graph;
  dense::TileMatrix a(tiles, nb, /*allocate=*/false);
  a.register_handles(graph);
  dense::build_getrf(graph, a, /*expert_priorities=*/true);

  const PlatformPreset preset = intel_v100();
  std::printf("LU %zux%zu tiles of %zu on %s — %zu tasks, %s vs %s\n\n", tiles,
              tiles, nb, preset.name.c_str(), graph.num_tasks(), sched_a.c_str(),
              sched_b.c_str());

  std::vector<RunAnalysis> analyses;
  for (const std::string& sched : {sched_a, sched_b}) {
    RecordingObserver obs;
    SimConfig cfg;
    cfg.observer = &obs;
    SimEngine engine(graph, preset.platform, preset.perf, cfg);
    (void)engine.run(scheduler_factory(sched));
    analyses.emplace_back(engine.trace(), graph, preset.platform, preset.perf, &obs,
                          engine.predicted_durations());
    std::printf("--- %s ---\n%s\n", sched.c_str(), analyses.back().to_string().c_str());
  }

  std::printf("%s", compare_runs(sched_a, analyses[0], sched_b, analyses[1]).c_str());
  return 0;
}
