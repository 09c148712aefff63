// Regenerates Fig. 8: multifrontal sparse QR across the Fig. 7 matrix set
// on both platforms (2 GPUs, 4 streams each), performance relative to the
// Dmdas scheduler (higher = better), matrices sorted by op count.
// Paper: MultiPrio ≈ +31% mean over Dmdas on Intel-V100, ≈ +12% (≤ +20%)
// on AMD-A100; HeteroPrio in between.
#include <cstdio>

#include "apps/sparseqr/dag_builder.hpp"
#include "apps/sparseqr/generators.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mp;
  using namespace mp::sqr;
  using namespace mp::bench;
  const bool full = full_mode(argc, argv);

  std::printf("Fig. 8 — sparse QR, performance ratio vs Dmdas (4 streams/GPU)%s\n\n",
              full ? "" : " [quick: subset of matrices; pass --full for all ten]");

  struct Regime {
    const char* label;
    SimConfig cfg;
  };
  std::vector<Regime> regimes(2);
  regimes[0].label = "calibrated models (push-time mapping's best case)";
  regimes[1].label = "cold models (uncalibrated, 10% noise)";
  regimes[1].cfg.calibrated = false;
  regimes[1].cfg.noise_sigma = 0.1;

  for (const Regime& regime : regimes) {
    std::printf("=== %s ===\n\n", regime.label);
    for (auto make_preset : {intel_v100, amd_a100}) {
      const PlatformPreset preset = make_preset(4);
      Table t({"matrix", "dmdas (s)", "heteroprio ratio", "multiprio ratio"});
      double mp_sum = 0.0;
      std::size_t count = 0;
      for (const MatrixSpec& spec : paper_matrix_specs()) {
        if (!full && (spec.gflop_target > 50000.0 || spec.rows > 500000)) continue;
        const SparseMatrix m = generate(spec);
        const SymbolicAnalysis sym = analyze(tall_orientation(m));
        TaskGraph graph;
        (void)build_sparseqr(graph, sym);
        double dmdas_time = 0.0;
        double ratios[2] = {0.0, 0.0};
        const char* scheds[3] = {"dmdas", "heteroprio", "multiprio"};
        for (int s = 0; s < 3; ++s) {
          SimEngine engine(graph, preset.platform, preset.perf, regime.cfg);
          const SimResult r = engine.run(scheduler_factory(scheds[s]));
          if (s == 0) {
            dmdas_time = r.makespan;
          } else {
            ratios[s - 1] = dmdas_time / r.makespan;
          }
        }
        mp_sum += ratios[1];
        ++count;
        t.add_row({spec.name, fmt_double(dmdas_time, 3), fmt_double(ratios[0], 3),
                   fmt_double(ratios[1], 3)});
      }
      std::printf("%s\n%s", preset.name.c_str(), t.to_ascii().c_str());
      if (count > 0) {
        std::printf("mean MultiPrio gain over Dmdas: %+.1f%%\n\n",
                    100.0 * (mp_sum / static_cast<double>(count) - 1.0));
      }
    }
  }
  return 0;
}
