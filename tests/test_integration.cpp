// Integration tests pinning the paper-level behaviours the benches report:
// the Fig. 4 eviction effect, worker pipelining, the Algorithm-2
// best_remaining_work debit, and HeteroPrio's slowdown guard.
#include <gtest/gtest.h>

#include "apps/dense/dense_builders.hpp"
#include "apps/fmm/dag_builder.hpp"
#include "core/multiprio.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "sim/platform_presets.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

TEST(Fig4Shape, EvictionCutsGpuIdleAndMakespan) {
  // The paper's own ablation: simulated Cholesky 960×20 on 1 GPU + 6 CPUs;
  // eviction drops GPU idle dramatically (29% -> 1% there) and shortens the
  // makespan.
  TaskGraph g;
  dense::TileMatrix a(20, 960, false);
  a.register_handles(g);
  dense::build_potrf(g, a, false);
  const PlatformPreset preset = fig4_node();

  SimEngine with(g, preset.platform, preset.perf);
  const SimResult r_with = with.run(scheduler_factory("multiprio"));
  SimEngine without(g, preset.platform, preset.perf);
  const SimResult r_without = without.run(scheduler_factory("multiprio-noevict"));

  const double gpu_idle_with = r_with.idle_per_node[1];
  const double gpu_idle_without = r_without.idle_per_node[1];
  EXPECT_LT(gpu_idle_with, 0.15);
  EXPECT_GT(gpu_idle_without, gpu_idle_with + 0.15);
  EXPECT_LT(r_with.makespan, r_without.makespan);
}

TEST(Pipelining, OverlapsTransfersWithExecution) {
  // Chain-free GPU workload with large inputs on one worker: pipelining
  // must hide most fetches behind execution.
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::GPU});
  SubmitOptions o;
  o.flops = 2e8;  // 2 ms exec at 100 GF
  for (int i = 0; i < 10; ++i) {
    const DataId d = g.add_data(10'000'000);  // 1 ms transfer at 10 GB/s
    g.submit(cl, {Access{d, AccessMode::Read}}, o);
  }
  Platform p = test::small_platform(0, 1);
  PerfDatabase db = test::flat_perf(10.0, 100.0);

  SimConfig off;
  off.pipeline_depth = 0;
  SimEngine e_off(g, p, db, off);
  const SimResult r_off = e_off.run(scheduler_factory("eager"));
  SimConfig on;
  on.pipeline_depth = 1;
  SimEngine e_on(g, p, db, on);
  const SimResult r_on = e_on.run(scheduler_factory("eager"));

  EXPECT_LT(r_on.makespan, r_off.makespan);
  EXPECT_LT(e_on.trace().total_fetch_stall(), e_off.trace().total_fetch_stall());
  // Serial: 10×(1 ms fetch + 2 ms exec); pipelined: first fetch + 10×2 ms.
  EXPECT_NEAR(r_off.makespan, 0.030, 2e-3);
  EXPECT_NEAR(r_on.makespan, 0.021, 2e-3);
}

TEST(Pipelining, DoesNotHoardWhenPeersAreIdle) {
  // 4 equal tasks, 4 workers: pipelining must not let worker 0 take two.
  test::EdgeGraph eg(4, {}, 1e9, {ArchType::CPU});
  Platform p = test::small_platform(4, 0);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  const SimResult r = simulate(eg.graph, p, db, scheduler_factory("eager"));
  EXPECT_NEAR(r.makespan, 0.1, 1e-9);
}

TEST(BrwDebit, DiversionDebitsMoreThanCredit) {
  // Algorithm 2 debits δ(t, w_a): a CPU diverting a GPU-best task must
  // reduce the GPU ledger by the (large) CPU time, throttling cascades.
  TaskGraph g;
  const CodeletId cl = g.add_codelet("both", {ArchType::CPU, ArchType::GPU});
  std::vector<TaskId> tasks;
  for (int i = 0; i < 4; ++i) {
    const DataId d = g.add_data(100 + static_cast<std::size_t>(i));
    tasks.push_back(g.submit(cl, {Access{d, AccessMode::ReadWrite}}));
  }
  Platform p = test::small_platform(2, 1);
  test::ManualContext mc(g, p, test::flat_perf());
  for (TaskId t : tasks) {
    mc.history.record(t, ArchType::CPU, 20e-3);
    mc.history.record(t, ArchType::GPU, 10e-3);  // GPU best, only 2× faster
  }
  MultiPrioScheduler s(mc.ctx());
  for (TaskId t : tasks) s.push(t);
  const MemNodeId gpu{std::size_t{1}};
  EXPECT_NEAR(s.best_remaining_work(gpu), 40e-3, 1e-12);
  // brw/1 worker = 40 ms > 20 ms: the CPU may divert one task...
  const WorkerId cpu_w = p.workers_of_node(p.ram_node())[0];
  ASSERT_TRUE(s.pop(cpu_w).has_value());
  // ...which debits 20 ms (the CPU time), not 10 ms (the credit).
  EXPECT_NEAR(s.best_remaining_work(gpu), 20e-3, 1e-12);
}

TEST(HeteroPrioGuard, SlowWorkerWaitsUnlessBestIsBusy) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("gpuish", {ArchType::CPU, ArchType::GPU});
  std::vector<TaskId> tasks;
  for (int i = 0; i < 6; ++i) {
    const DataId d = g.add_data(64 + static_cast<std::size_t>(i));
    tasks.push_back(g.submit(cl, {Access{d, AccessMode::ReadWrite}}));
  }
  Platform p = test::small_platform(1, 1);
  test::ManualContext mc(g, p, test::flat_perf());
  for (TaskId t : tasks) {
    mc.history.record(t, ArchType::CPU, 30e-3);
    mc.history.record(t, ArchType::GPU, 1e-3);
  }
  auto s = make_heteroprio(mc.ctx());
  const WorkerId cpu_w = p.workers_of_node(p.ram_node())[0];

  // One queued GPU task (backlog 1 ms < 30 ms CPU): the CPU must refuse.
  s->push(tasks[0]);
  EXPECT_FALSE(s->pop(cpu_w).has_value());
  // Pile up 5 more (backlog 6 ms)... still below the 30 ms CPU time.
  for (int i = 1; i < 6; ++i) s->push(tasks[i]);
  EXPECT_FALSE(s->pop(cpu_w).has_value());
}

TEST(HeteroPrioGuard, SlowWorkerTakesWhenBacklogDeep) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("gpuish", {ArchType::CPU, ArchType::GPU});
  std::vector<TaskId> tasks;
  for (int i = 0; i < 6; ++i) {
    const DataId d = g.add_data(64 + static_cast<std::size_t>(i));
    tasks.push_back(g.submit(cl, {Access{d, AccessMode::ReadWrite}}));
  }
  Platform p = test::small_platform(1, 1);
  test::ManualContext mc(g, p, test::flat_perf());
  for (TaskId t : tasks) {
    mc.history.record(t, ArchType::CPU, 3e-3);
    mc.history.record(t, ArchType::GPU, 1e-3);
  }
  auto s = make_heteroprio(mc.ctx());
  for (TaskId t : tasks) s->push(t);  // backlog 6 ms > 3 ms CPU time
  const WorkerId cpu_w = p.workers_of_node(p.ram_node())[0];
  EXPECT_TRUE(s->pop(cpu_w).has_value());
}

TEST(SchedulerComparison, MultiPrioCompetitiveOnIrregularFmm) {
  // Loose sanity on the Fig. 6 direction: MultiPrio must stay within a
  // reasonable factor of Dmdas on the irregular FMM workload (the paper has
  // it winning on real hardware; our perfectly-calibrated simulator gives
  // Dmdas its best case, see EXPERIMENTS.md).
  auto parts = fmm::clustered_sphere(60000, 11);
  fmm::Octree tree(std::move(parts), {5, 64, false});
  TaskGraph g;
  (void)fmm::build_fmm(g, tree);
  const PlatformPreset preset = intel_v100(2);
  const SimResult mp_r = simulate(g, preset.platform, preset.perf, scheduler_factory("multiprio"));
  const SimResult dm_r = simulate(g, preset.platform, preset.perf, scheduler_factory("dmdas"));
  EXPECT_LT(mp_r.makespan, dm_r.makespan * 1.5);
  EXPECT_EQ(mp_r.tasks_executed, g.num_tasks());
}

TEST(SchedulerComparison, MultiPrioBeatsNaiveBaselinesOnCholesky) {
  TaskGraph g;
  dense::TileMatrix a(16, 960, false);
  a.register_handles(g);
  dense::build_potrf(g, a, false);
  const PlatformPreset preset = intel_v100();
  const SimResult mp_r = simulate(g, preset.platform, preset.perf, scheduler_factory("multiprio"));
  const SimResult rnd = simulate(g, preset.platform, preset.perf, scheduler_factory("random"));
  EXPECT_LT(mp_r.makespan, rnd.makespan);
}

}  // namespace
}  // namespace mp
