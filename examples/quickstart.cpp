// Quickstart: define data and tasks, let the STF runtime infer the DAG,
// then (1) execute it for real on worker threads under MultiPrio and
// (2) simulate it on a calibrated heterogeneous platform.
//
//   ./examples/quickstart
#include <cstdio>
#include <vector>

#include "core/multiprio.hpp"
#include "exec/thread_executor.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "sim/platform_presets.hpp"

int main() {
  using namespace mp;

  // --- 1. describe the computation as tasks over data -----------------------
  TaskGraph graph;
  std::vector<double> vec(1024, 1.0);
  double sum = 0.0;

  const DataId d_vec = graph.add_data(vec.size() * sizeof(double), vec.data());
  const DataId d_sum = graph.add_data(sizeof(double), &sum);

  const CodeletId scale = graph.add_codelet(
      "scale", {ArchType::CPU, ArchType::GPU},
      [](const Task& t, std::span<void* const> buf) {
        auto* v = static_cast<double*>(buf[0]);
        for (std::size_t i = 0; i < 1024; ++i) v[i] *= static_cast<double>(t.iparams[0]);
      });
  const CodeletId reduce = graph.add_codelet(
      "reduce", {ArchType::CPU},
      [](const Task&, std::span<void* const> buf) {
        const auto* v = static_cast<const double*>(buf[0]);
        auto* s = static_cast<double*>(buf[1]);
        *s = 0.0;
        for (std::size_t i = 0; i < 1024; ++i) *s += v[i];
      });

  // Sequential submission; dependencies inferred from access modes.
  SubmitOptions s1;
  s1.iparams = {2, 0, 0, 0};
  s1.flops = 1024;
  graph.submit(scale, {Access{d_vec, AccessMode::ReadWrite}}, s1);
  SubmitOptions s2;
  s2.iparams = {3, 0, 0, 0};
  s2.flops = 1024;
  graph.submit(scale, {Access{d_vec, AccessMode::ReadWrite}}, s2);
  SubmitOptions s3;
  s3.flops = 2048;
  graph.submit(reduce, {Access{d_vec, AccessMode::Read}, Access{d_sum, AccessMode::Write}},
               s3);

  // --- 2. run it for real under the MultiPrio scheduler ---------------------
  Platform node;
  node.add_workers(ArchType::CPU, node.ram_node(), 2);
  PerfDatabase flat;
  flat.set_default(ArchType::CPU, RateSpec{10.0, 0.0, 0.0, 0.0});
  flat.set_default(ArchType::GPU, RateSpec{100.0, 0.0, 0.0, 0.0});

  ThreadExecutor exec(graph, node, flat);
  const ExecResult real = exec.run([](SchedContext ctx) {
    return std::make_unique<MultiPrioScheduler>(std::move(ctx));
  });
  std::printf("real execution: %zu tasks, sum = %.1f (expect %.1f)\n",
              real.tasks_executed, sum, 1024.0 * 6.0);

  // --- 3. simulate the same DAG on a paper platform -------------------------
  const PlatformPreset preset = intel_v100();
  SimEngine sim(graph, preset.platform, preset.perf);
  const SimResult r = sim.run([](SchedContext ctx) {
    return std::make_unique<MultiPrioScheduler>(std::move(ctx));
  });
  std::printf("simulated on %s: makespan = %.3f ms over %zu tasks\n",
              preset.name.c_str(), r.makespan * 1e3, r.tasks_executed);
  std::printf("\nGantt (one row per worker, # = busy):\n%s",
              sim.trace().ascii_gantt(64).c_str());
  return 0;
}
