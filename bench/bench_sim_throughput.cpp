// Simulator throughput: wall nanoseconds per simulated task for the
// `multiprio` policy on tiled Cholesky (N = tiles × 960, expert priorities)
// over the simulated Intel-V100 node, at about 10⁴, 10⁵ and 3·10⁵ tasks.
// Each size is built once and simulated kReps = 5 times; only
// SimEngine::run is timed, and each row reports the median and the
// interquartile range of the per-task cost, plus the simulated makespan so
// a speed-up can be checked for identical output.
//
//   bench_sim_throughput [--smoke] [--label NAME]
//
// --smoke runs only the 10⁴-task size. --label tags every row (e.g. the
// build measured). Writes BENCH_sim_throughput.json in the working
// directory. No gate: the rows are a trajectory, not a bound.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/dense/dense_builders.hpp"
#include "apps/dense/tile_matrix.hpp"
#include "bench_util.hpp"
#include "obs/bench_json.hpp"

namespace {

constexpr std::size_t kTileSize = 960;
constexpr std::size_t kReps = 5;

/// Tile counts giving T(T+1)(T+2)/6 ≈ 10⁴, 10⁵ and 3·10⁵ tasks.
constexpr std::size_t kTiles[] = {39, 84, 121};

double seconds_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile of a sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

const char* arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mp;
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const char* label_arg = arg_value(argc, argv, "--label");
  const std::string label = label_arg != nullptr ? label_arg : "current";

  const PlatformPreset preset = intel_v100();
  const SchedulerFactory factory = scheduler_factory("multiprio");
  std::vector<BenchRecord> records;
  std::printf("Simulator cost per task, multiprio on tiled Cholesky (%s), %zu reps\n",
              preset.name.c_str(), kReps);
  std::printf("%8s %9s %14s %12s %12s %10s\n", "tiles", "tasks", "makespan_s",
              "median_ns", "iqr_ns", "tasks/s");
  for (const std::size_t tiles : kTiles) {
    if (smoke && tiles != kTiles[0]) continue;
    TaskGraph graph;
    dense::TileMatrix a(tiles, kTileSize, /*allocate=*/false);
    a.register_handles(graph);
    dense::build_potrf(graph, a, /*expert_priorities=*/true);
    const auto tasks = static_cast<double>(graph.num_tasks());

    std::vector<double> ns_per_task;
    double makespan = 0.0;
    for (std::size_t r = 0; r < kReps; ++r) {
      SimEngine engine(graph, preset.platform, preset.perf);
      const double t0 = seconds_now();
      const SimResult res = engine.run(factory);
      ns_per_task.push_back((seconds_now() - t0) * 1e9 / tasks);
      if (res.tasks_executed != graph.num_tasks() || (r > 0 && res.makespan != makespan)) {
        std::fprintf(stderr, "bench_sim_throughput: inconsistent run at %zu tiles\n", tiles);
        return 1;
      }
      makespan = res.makespan;
    }
    std::sort(ns_per_task.begin(), ns_per_task.end());
    const double median = quantile(ns_per_task, 0.5);
    const double q1 = quantile(ns_per_task, 0.25);
    const double q3 = quantile(ns_per_task, 0.75);
    std::printf("%8zu %9zu %14.9g %12.1f %12.1f %10.0f\n", tiles, graph.num_tasks(), makespan,
                median, q3 - q1, 1e9 / median);
    BenchRecord rec("sim_throughput", "multiprio");
    rec.param("build", label)
        .param("tiles", tiles)
        .param("tasks", graph.num_tasks())
        .param("reps", kReps)
        .makespan_s(makespan)
        .extra("ns_per_task", median)
        .extra("ns_per_task_q1", q1)
        .extra("ns_per_task_q3", q3)
        .extra("ns_per_task_iqr", q3 - q1);
    records.push_back(std::move(rec));
  }
  if (!write_bench_json("BENCH_sim_throughput.json", records))
    std::fprintf(stderr, "warning: could not write BENCH_sim_throughput.json\n");
  return 0;
}
