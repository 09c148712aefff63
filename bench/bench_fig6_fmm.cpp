// Regenerates Fig. 6: TBFMM execution time on Intel-V100 and AMD-A100 while
// varying the number of GPU streams, comparing MultiPrio, Dmdas and
// HeteroPrio (no user priorities). Paper: MultiPrio achieves the shortest
// makespan on both platforms.
#include <cstdio>

#include "apps/fmm/dag_builder.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mp;
  using namespace mp::fmm;
  using namespace mp::bench;
  const bool full = full_mode(argc, argv);

  // Paper: 10^6 particles, tree height 6. Quick mode scales down.
  const std::size_t n = full ? 1000000 : 200000;
  const std::size_t height = full ? 6 : 5;
  const std::size_t group_size = 128;

  auto parts = clustered_sphere(n, 2024);
  Octree tree(std::move(parts), {height, group_size, /*allocate=*/false});
  TaskGraph graph;
  const FmmBuildStats stats = build_fmm(graph, tree);
  std::printf("Fig. 6 — TBFMM (%zu particles, height %zu, %zu tasks)%s\n\n", n, height,
              stats.total(), full ? "" : " [quick; pass --full for paper scale]");

  // Two model regimes: "calibrated" hands every scheduler exact δ(t,a)
  // (the best case for Dmdas's push-time commitment + prefetch);
  // "cold models" starts uncalibrated with 10% execution noise — the
  // regime where late binding pays off (see EXPERIMENTS.md).
  struct Regime {
    const char* label;
    SimConfig cfg;
  };
  std::vector<Regime> regimes(2);
  regimes[0].label = "calibrated models";
  regimes[1].label = "cold models";
  regimes[1].cfg.calibrated = false;
  regimes[1].cfg.noise_sigma = 0.1;

  for (const Regime& regime : regimes) {
    std::printf("=== %s ===\n\n", regime.label);
    for (const std::size_t streams : {1u, 2u, 4u}) {
      for (auto make_preset : {intel_v100, amd_a100}) {
        const PlatformPreset preset = make_preset(streams);
        Table t({"scheduler", "time (ms)", "CPU idle", "GPU idle"});
        double best = 1e30;
        std::string best_name;
        for (const char* sched : {"multiprio", "dmdas", "heteroprio"}) {
          SimEngine engine(graph, preset.platform, preset.perf, regime.cfg);
          const SimResult r = engine.run(scheduler_factory(sched));
          t.add_row({sched, fmt_double(r.makespan * 1e3, 1),
                     fmt_percent(r.idle_per_node[0]),
                     fmt_percent(gpu_idle(preset.platform, r))});
          if (r.makespan < best) {
            best = r.makespan;
            best_name = sched;
          }
        }
        std::printf("%s, %zu stream(s)/GPU — fastest: %s\n%s\n", preset.name.c_str(),
                    streams, best_name.c_str(), t.to_ascii().c_str());
      }
    }
  }
  return 0;
}
