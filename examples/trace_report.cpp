// Post-mortem trace analysis: run one DAG under two schedulers with a
// recording observer attached, print where the time went (RunAnalysis:
// bounds, per-codelet placement, per-node utilization, idle blame, model
// audit; then the scheduler-event rollup) and export the run for visual
// inspection:
//
//   <sched>_trace.csv   executed segments (one row per task)
//   <sched>_events.csv  scheduler decision events (PUSH/POP/EVICT/...)
//   <sched>_trace.json  Chrome Trace Event Format
//
//   ./examples/trace_report [tiles] [tile_size]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "apps/dense/dense_builders.hpp"
#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "sim/platform_presets.hpp"

namespace {

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  if (!f) return false;
  f << text;
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mp;
  const std::size_t tiles = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 24;
  const std::size_t nb = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 960;

  TaskGraph graph;
  dense::TileMatrix a(tiles, nb, /*allocate=*/false);
  a.register_handles(graph);
  dense::build_getrf(graph, a, /*expert_priorities=*/true);

  const PlatformPreset preset = intel_v100();
  std::printf("LU %zux%zu tiles of %zu on %s — %zu tasks\n\n", tiles, tiles, nb,
              preset.name.c_str(), graph.num_tasks());

  for (const char* sched : {"multiprio", "dmdas"}) {
    RecordingObserver obs;
    SimConfig cfg;
    cfg.observer = &obs;
    SimEngine engine(graph, preset.platform, preset.perf, cfg);
    (void)engine.run(scheduler_factory(sched));
    const RunAnalysis analysis(engine.trace(), graph, preset.platform, preset.perf,
                               &obs, engine.predicted_durations());
    std::printf("--- %s ---\n%s\n%s\n", sched, analysis.to_string().c_str(),
                obs.rollup().c_str());

    const std::string base(sched);
    const std::string trace_csv = base + "_trace.csv";
    const std::string events_csv = base + "_events.csv";
    const std::string trace_json = base + "_trace.json";
    bool ok = write_text(trace_csv, engine.trace().to_csv());
    ok = write_text(events_csv, obs.events().to_csv()) && ok;
    ok = write_chrome_trace(trace_json, engine.trace(), graph, preset.platform, &obs) && ok;
    if (!ok) {
      std::fprintf(stderr, "failed to write exports for %s\n", sched);
      return 1;
    }
    std::printf("wrote %s, %s and %s — open the .json at https://ui.perfetto.dev\n",
                trace_csv.c_str(), events_csv.c_str(), trace_json.c_str());
    std::printf("(or chrome://tracing) to see per-worker timelines, decision\n");
    std::printf("markers and heap-depth counters.\n\n");
  }
  return 0;
}
