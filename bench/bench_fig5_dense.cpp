// Regenerates Fig. 5: CHAMELEON dense kernels (potrf, getrf, geqrf) on the
// Intel-V100 and AMD-A100 platforms, comparing MultiPrio against Dmdas
// (expert priorities ON, as Chameleon provides them) and HeteroPrio.
// For each (kernel, platform, matrix size) the best-performing tile size is
// selected per scheduler, exactly as the paper does; the last column prints
// MultiPrio's gain/loss over Dmdas, the quantity Fig. 5 plots.
//
// Every run is also emitted as a machine-readable record into
// BENCH_fig5_dense.json (schema: obs/bench_json.hpp), with the makespan
// expressed as an efficiency against the run's area lower bound. --smoke
// runs one small getrf configuration and *gates* on that efficiency —
// the CI regression check that a scheduler change did not silently tank
// schedule quality.
#include <cstdio>
#include <functional>
#include <memory>

#include "apps/dense/dense_builders.hpp"
#include "bench_util.hpp"
#include "obs/analysis.hpp"
#include "obs/bench_json.hpp"

namespace {

using namespace mp;
using namespace mp::bench;

struct Kernel {
  const char* name;
  std::function<void(TaskGraph&, dense::TileMatrix&)> build;
  std::function<double(std::size_t)> total_flops;
};

struct Outcome {
  double gflops = 0.0;
  double makespan = 0.0;
  double area_eff = 0.0;  // makespan efficiency vs the area lower bound
  BenchRecord record{"fig5_dense", ""};
};

Outcome run_once(const char* sched, const char* kernel_name,
                 const PlatformPreset& preset, const Kernel& kernel, std::size_t n,
                 std::size_t nb) {
  TaskGraph graph;
  dense::TileMatrix a(n / nb, nb, false);
  a.register_handles(graph);
  kernel.build(graph, a);
  // Small ring: per-kind counts are drop-proof, and the analysis here only
  // needs the bounds, so memory stays flat across the paper-scale sweep.
  RecordingObserver obs(1u << 16);
  SimConfig cfg;
  cfg.observer = &obs;
  SimEngine engine(graph, preset.platform, preset.perf, cfg);
  const SimResult r = engine.run(scheduler_factory(sched));
  const RunAnalysis analysis(engine.trace(), graph, preset.platform, preset.perf,
                             &obs, engine.predicted_durations());

  Outcome o;
  o.gflops = kernel.total_flops(n) / r.makespan / 1e9;  // GFlop/s
  o.makespan = r.makespan;
  o.area_eff = analysis.area_efficiency();
  o.record = BenchRecord("fig5_dense", sched)
                 .param("kernel", kernel_name)
                 .param("platform", preset.name)
                 .param("n", n)
                 .param("nb", nb)
                 .makespan_s(r.makespan)
                 .efficiency(o.area_eff)
                 .extra("gflops", o.gflops)
                 .extra("efficiency_vs_bound", analysis.efficiency())
                 .extra("area_bound_s", analysis.area_bound_s())
                 .extra("cp_bound_s", analysis.cp_bound_s())
                 .extra("total_idle_s", analysis.total_idle_s())
                 .events_from(obs.events());
  return o;
}

/// --smoke: one small getrf on the Intel-V100 node, multiprio gated on
/// makespan efficiency >= 0.5 vs the area bound. Exit status is the gate.
int run_smoke(const std::vector<Kernel>& kernels) {
  const Kernel& getrf = kernels[1];
  const PlatformPreset preset = intel_v100();
  const std::size_t n = 23040, nb = 960;
  constexpr double kMinEfficiency = 0.5;

  std::printf("Fig. 5 smoke — getrf on %s, N=%zu, NB=%zu (gate: multiprio "
              "efficiency >= %.2f vs area bound)\n\n",
              preset.name.c_str(), n, nb, kMinEfficiency);
  std::vector<BenchRecord> records;
  bool ok = true;
  for (const char* sched : {"multiprio", "dmdas"}) {
    const Outcome o = run_once(sched, getrf.name, preset, getrf, n, nb);
    std::printf("  %-10s makespan %.4fs  %.0f GFlop/s  efficiency %.3f\n", sched,
                o.makespan, o.gflops, o.area_eff);
    if (std::string(sched) == "multiprio" && o.area_eff < kMinEfficiency) ok = false;
    records.push_back(o.record);
  }
  if (!write_bench_json("BENCH_fig5_dense.json", records))
    std::fprintf(stderr, "warning: could not write BENCH_fig5_dense.json\n");
  std::printf("\n%s\n", ok ? "PASS: efficiency gate met"
                           : "FAIL: multiprio efficiency below gate");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = full_mode(argc, argv);
  const bool smoke = has_flag(argc, argv, "--smoke");

  std::vector<Kernel> kernels;
  kernels.push_back({"potrf",
                     [](TaskGraph& g, dense::TileMatrix& a) {
                       dense::build_potrf(g, a, true);
                     },
                     dense::potrf_total_flops});
  kernels.push_back({"getrf",
                     [](TaskGraph& g, dense::TileMatrix& a) {
                       dense::build_getrf(g, a, true);
                     },
                     dense::getrf_total_flops});
  kernels.push_back({"geqrf",
                     [](TaskGraph& g, dense::TileMatrix& a) {
                       auto aux = dense::build_geqrf(g, a, true);
                     },
                     dense::geqrf_total_flops});

  if (smoke) return run_smoke(kernels);

  struct PlatformCase {
    PlatformPreset preset;
    std::vector<std::size_t> tile_sizes;
    std::vector<std::size_t> matrix_sizes;
  };
  std::vector<PlatformCase> cases;
  if (full) {
    cases.push_back({intel_v100(), {640, 1280, 2560}, {20480, 40960, 61440, 81920, 102400}});
    cases.push_back({amd_a100(), {960, 1920, 3840}, {23040, 46080, 69120, 92160, 115200}});
  } else {
    cases.push_back({intel_v100(), {640, 1280, 2560}, {20480, 40960, 61440}});
    cases.push_back({amd_a100(), {960, 1920, 3840}, {23040, 46080, 69120}});
  }

  const char* scheds[] = {"multiprio", "dmdas", "heteroprio"};
  std::printf("Fig. 5 — dense kernels, GFlop/s (best tile size per scheduler)%s\n\n",
              full ? " [full sweep]" : " [quick; pass --full for the paper sweep]");

  std::vector<BenchRecord> records;
  for (const Kernel& kernel : kernels) {
    for (const PlatformCase& pc : cases) {
      Table t({"N", "multiprio", "dmdas", "heteroprio", "multiprio vs dmdas"});
      for (std::size_t n : pc.matrix_sizes) {
        double best[3] = {0.0, 0.0, 0.0};
        for (std::size_t nb : pc.tile_sizes) {
          if (n % nb != 0 || n / nb < 4) continue;
          for (int s = 0; s < 3; ++s) {
            const Outcome o = run_once(scheds[s], kernel.name, pc.preset, kernel, n, nb);
            best[s] = std::max(best[s], o.gflops);
            records.push_back(o.record);
          }
        }
        const double gain = best[1] > 0.0 ? (best[0] - best[1]) / best[1] : 0.0;
        t.add_row({std::to_string(n), fmt_double(best[0], 0), fmt_double(best[1], 0),
                   fmt_double(best[2], 0), fmt_percent(gain)});
      }
      std::printf("%s on %s\n%s\n", kernel.name, pc.preset.name.c_str(),
                  t.to_ascii().c_str());
    }
  }
  if (!write_bench_json("BENCH_fig5_dense.json", records))
    std::fprintf(stderr, "warning: could not write BENCH_fig5_dense.json\n");
  return 0;
}
