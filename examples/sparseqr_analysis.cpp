// Multifrontal sparse QR: symbolic analysis of a Fig. 7 matrix and the
// scheduling of its irregular front DAG — the Fig. 8 setting on one matrix.
//
//   ./examples/sparseqr_analysis [matrix_name]
#include <cstdio>
#include <cstring>

#include "apps/sparseqr/dag_builder.hpp"
#include "apps/sparseqr/generators.hpp"
#include "common/csv.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "sim/platform_presets.hpp"

int main(int argc, char** argv) {
  using namespace mp;
  using namespace mp::sqr;
  const char* want = argc > 1 ? argv[1] : "e18";

  MatrixSpec spec;
  bool found = false;
  for (const MatrixSpec& s : paper_matrix_specs()) {
    if (s.name == want) {
      spec = s;
      found = true;
    }
  }
  if (!found) {
    std::printf("unknown matrix '%s'; available:\n", want);
    for (const MatrixSpec& s : paper_matrix_specs()) std::printf("  %s\n", s.name.c_str());
    return 1;
  }

  std::printf("generating %s (%zux%zu, %zu nnz; paper op count %.0f Gflop)...\n",
              spec.name.c_str(), spec.rows, spec.cols, spec.nnz, spec.gflop_target);
  const SparseMatrix m = generate(spec);
  const SymbolicAnalysis sym = analyze(tall_orientation(m));

  std::size_t max_k = 0;
  std::size_t max_n = 0;
  std::size_t leaves = 0;
  for (const Front& f : sym.fronts) {
    max_k = std::max(max_k, f.k());
    max_n = std::max(max_n, f.n());
    if (f.children.empty()) ++leaves;
  }
  std::printf("symbolic analysis: %zu fronts (%zu leaves), widest front %zu cols "
              "(+border -> %zu), %.1f Gflop in our elimination\n\n",
              sym.fronts.size(), leaves, max_k, max_n, sym.total_flops / 1e9);

  TaskGraph graph;
  const SparseQrStats stats = build_sparseqr(graph, sym);
  std::printf("front DAG: %zu tasks over %zu panel handles\n\n", stats.tasks,
              stats.panels);

  const PlatformPreset preset = intel_v100(4);  // 4 streams/GPU, as in Fig. 8
  Table table({"scheduler", "makespan (s)", "ratio vs dmdas"});
  double dmdas_time = 0.0;
  for (const char* name : {"dmdas", "heteroprio", "multiprio"}) {
    SimEngine engine(graph, preset.platform, preset.perf);
    const SimResult r = engine.run(scheduler_factory(name));
    if (std::strcmp(name, "dmdas") == 0) dmdas_time = r.makespan;
    table.add_row({name, fmt_double(r.makespan, 3),
                   fmt_double(dmdas_time / r.makespan, 3)});
  }
  std::printf("%s (2 GPUs, 4 streams each)\n%s\n", preset.name.c_str(),
              table.to_ascii().c_str());
  return 0;
}
