// Fault-degradation study: lose the GPU at a sweep of points during a
// simulated Cholesky run and measure how gracefully each policy degrades.
// Emits a CSV of makespan vs. loss time for multiprio, eager and heteroprio
// (plus the dm family in --full mode) and checks every run: all tasks
// execute, none are abandoned. The engine's own checks (conservation,
// dependency order, fail-stop, scheduler drain) abort the bench on any
// other violation.
#include <cstdio>

#include "apps/dense/dense_builders.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mp;
  using namespace mp::bench;
  const bool full = full_mode(argc, argv);

  const std::size_t tiles = full ? 16 : 8;
  const std::size_t nb = 960;

  TaskGraph graph;
  dense::TileMatrix a(tiles, nb, /*allocate=*/false);
  a.register_handles(graph);
  dense::build_potrf(graph, a, /*expert_priorities=*/false);

  const PlatformPreset preset = fig4_node();
  WorkerId gpu_w{};
  for (const Worker& w : preset.platform.workers())
    if (w.arch == ArchType::GPU) gpu_w = w.id;

  std::printf("Fault degradation — GPU fail-stop during Cholesky\n");
  std::printf("Cholesky %zux%zu tiles of %zu on %s (%zu tasks)\n\n", tiles, tiles, nb,
              preset.name.c_str(), graph.num_tasks());

  std::vector<std::string> policies{"multiprio", "eager", "heteroprio"};
  if (full) {
    policies.push_back("dmda");
    policies.push_back("dmdas");
  }
  const std::vector<double> loss_fractions =
      full ? std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
           : std::vector<double>{0.1, 0.25, 0.5, 0.75};

  Table t({"scheduler", "loss frac", "loss time (s)", "makespan (s)", "slowdown",
           "retries", "abandoned", "invariants"});
  bool all_ok = true;
  for (const std::string& name : policies) {
    const SimResult nominal =
        simulate(graph, preset.platform, preset.perf, scheduler_factory(name));
    for (const double frac : loss_fractions) {
      SimConfig cfg;
      cfg.fault.worker_losses.push_back(
          WorkerLossSpec{gpu_w, frac * nominal.makespan});
      const SimResult r =
          simulate(graph, preset.platform, preset.perf, scheduler_factory(name), cfg);
      const bool ok =
          r.tasks_executed == graph.num_tasks() && r.fault.tasks_abandoned == 0;
      all_ok = all_ok && ok;
      t.add_row({name, fmt_double(frac, 2),
                 fmt_double(frac * nominal.makespan, 4), fmt_double(r.makespan, 4),
                 fmt_double(r.makespan / nominal.makespan, 3),
                 std::to_string(r.fault.retries),
                 std::to_string(r.fault.tasks_abandoned), ok ? "ok" : "VIOLATED"});
    }
  }
  std::printf("%s\n", t.to_ascii().c_str());
  std::printf("CSV:\n%s", t.to_csv().c_str());
  if (!all_ok) {
    std::fprintf(stderr, "FAULT INVARIANT VIOLATIONS DETECTED\n");
    return 1;
  }
  return 0;
}
