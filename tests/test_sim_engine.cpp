// Discrete-event engine tests: timing math, link contention, prefetch,
// noise determinism, trace validation.
#include <gtest/gtest.h>

#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

SchedulerFactory eager_factory() {
  return [](SchedContext ctx) { return make_eager(std::move(ctx)); };
}

TEST(SimEngine, SingleTaskMakespanIsExecTime) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU});
  const DataId d = g.add_data(8);
  SubmitOptions o;
  o.flops = 1e9;
  g.submit(cl, {Access{d, AccessMode::ReadWrite}}, o);
  Platform p = test::small_platform(1, 0);
  PerfDatabase db = test::flat_perf(10.0, 100.0);  // CPU: 1e9/(10e9) = 0.1 s
  const SimResult r = simulate(g, p, db, eager_factory());
  EXPECT_NEAR(r.makespan, 0.1, 1e-9);
  EXPECT_EQ(r.tasks_executed, 1u);
}

TEST(SimEngine, ChainSerializes) {
  test::EdgeGraph eg(3, {{0, 1}, {1, 2}}, 1e9, {ArchType::CPU});
  Platform p = test::small_platform(4, 0);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  const SimResult r = simulate(eg.graph, p, db, eager_factory());
  EXPECT_NEAR(r.makespan, 0.3, 1e-9);  // no parallelism on a chain
}

TEST(SimEngine, IndependentTasksRunInParallel) {
  test::EdgeGraph eg(4, {}, 1e9, {ArchType::CPU});
  Platform p = test::small_platform(4, 0);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  const SimResult r = simulate(eg.graph, p, db, eager_factory());
  EXPECT_NEAR(r.makespan, 0.1, 1e-9);  // 4 tasks, 4 workers
}

TEST(SimEngine, FewerWorkersSerialize) {
  test::EdgeGraph eg(4, {}, 1e9, {ArchType::CPU});
  Platform p = test::small_platform(2, 0);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  const SimResult r = simulate(eg.graph, p, db, eager_factory());
  EXPECT_NEAR(r.makespan, 0.2, 1e-9);
}

TEST(SimEngine, TransferDelaysGpuStart) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::GPU});
  const DataId d = g.add_data(10'000'000);  // 1 ms over the 10 GB/s link
  SubmitOptions o;
  o.flops = 1e9;  // 10 ms at 100 GFlop/s
  g.submit(cl, {Access{d, AccessMode::Read}}, o);
  Platform p = test::small_platform(1, 1);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  SimEngine engine(g, p, db);
  const SimResult r = engine.run(eager_factory());
  // latency 1µs + 1 ms transfer + 10 ms exec.
  EXPECT_NEAR(r.makespan, 1e-6 + 1e-3 + 1e-2, 1e-9);
  EXPECT_EQ(r.bytes_to_gpus, 10'000'000u);
  EXPECT_NEAR(engine.trace().total_fetch_stall(), 1e-3 + 1e-6, 1e-9);
}

TEST(SimEngine, LinkContentionSerializesTransfers) {
  // Two independent GPU tasks with distinct 1 ms inputs on one GPU: the
  // second fetch waits for the first on the shared link.
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::GPU});
  const DataId d0 = g.add_data(10'000'000);
  const DataId d1 = g.add_data(10'000'000);
  SubmitOptions o;
  o.flops = 1e6;  // negligible exec
  g.submit(cl, {Access{d0, AccessMode::Read}}, o);
  g.submit(cl, {Access{d1, AccessMode::Read}}, o);
  Platform p;
  const MemNodeId gpu = p.add_gpu_node(0, 10e9, 0.0);
  p.add_workers(ArchType::GPU, gpu, 2);  // two streams, one link
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  const SimResult r = simulate(g, p, db, eager_factory());
  EXPECT_GE(r.makespan, 2e-3);  // both transfers share the link
}

TEST(SimEngine, CachedDataNotRefetched) {
  // Two sequential tasks reading the same data on the same GPU: one fetch.
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::GPU});
  const DataId d = g.add_data(10'000'000);
  SubmitOptions o;
  o.flops = 1e6;
  g.submit(cl, {Access{d, AccessMode::Read}}, o);
  g.submit(cl, {Access{d, AccessMode::Read}}, o);
  Platform p = test::small_platform(0, 1);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  const SimResult r = simulate(g, p, db, eager_factory());
  EXPECT_EQ(r.bytes_to_gpus, 10'000'000u);
}

TEST(SimEngine, HeterogeneousMappingPrefersGpuWithDm) {
  // One big task that is 10× faster on GPU: dm must map it there.
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU, ArchType::GPU});
  const DataId d = g.add_data(8);
  SubmitOptions o;
  o.flops = 1e9;
  g.submit(cl, {Access{d, AccessMode::ReadWrite}}, o);
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  SimEngine engine(g, p, db);
  const SimResult r = engine.run(
      [](SchedContext ctx) { return make_dm_family(std::move(ctx), DmVariant::Dm); });
  EXPECT_NEAR(r.makespan, 0.01, 1e-5);  // + µs-scale fetch latency
  EXPECT_EQ(p.worker(engine.trace().segments()[0].worker).arch, ArchType::GPU);
}

TEST(SimEngine, NoiseIsDeterministicPerSeed) {
  test::EdgeGraph eg(20, {{0, 5}, {1, 5}, {5, 9}}, 1e8, {ArchType::CPU});
  Platform p = test::small_platform(3, 0);
  PerfDatabase db = test::flat_perf();
  SimConfig cfg;
  cfg.noise_sigma = 0.1;
  cfg.seed = 7;
  const SimResult a = simulate(eg.graph, p, db, eager_factory(), cfg);
  const SimResult b = simulate(eg.graph, p, db, eager_factory(), cfg);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  SimConfig cfg2 = cfg;
  cfg2.seed = 8;
  const SimResult c = simulate(eg.graph, p, db, eager_factory(), cfg2);
  EXPECT_NE(a.makespan, c.makespan);
}

TEST(SimEngine, MakespanAtLeastCriticalPathAndWorkBound) {
  test::EdgeGraph eg(30, {{0, 10}, {10, 20}, {1, 11}, {11, 21}}, 1e8, {ArchType::CPU});
  Platform p = test::small_platform(4, 0);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  const SimResult r = simulate(eg.graph, p, db, eager_factory());
  const double exec = 1e8 / 10e9;
  EXPECT_GE(r.makespan, 3 * exec - 1e-12);             // chain bound
  EXPECT_GE(r.makespan, 30 * exec / 4.0 - 1e-12);      // work bound
}

TEST(SimEngine, TraceCriticalPathEndsAtLastTask) {
  test::EdgeGraph eg(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, 1e8, {ArchType::CPU});
  Platform p = test::small_platform(2, 0);
  PerfDatabase db = test::flat_perf();
  SimEngine engine(eg.graph, p, db);
  (void)engine.run(eager_factory());
  const auto path = engine.trace().practical_critical_path();
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), eg.tasks[0]);
  EXPECT_EQ(path.back(), eg.tasks[4]);
}

TEST(SimEngine, GanttAndCsvExportNonEmpty) {
  test::EdgeGraph eg(3, {{0, 1}}, 1e8, {ArchType::CPU});
  Platform p = test::small_platform(2, 0);
  PerfDatabase db = test::flat_perf();
  SimEngine engine(eg.graph, p, db);
  (void)engine.run(eager_factory());
  const std::string csv = engine.trace().to_csv();
  EXPECT_NE(csv.find("exec_start"), std::string::npos);
  EXPECT_NE(csv.find("\"work(1,0,0,0)\""), std::string::npos);  // the name column
  EXPECT_NE(engine.trace().ascii_gantt().find('#'), std::string::npos);
}

TEST(SimEngine, PrefetchReducesFetchStallForDmda) {
  // A chain of GPU tasks each reading large fresh data; dmda's push-time
  // prefetch should overlap transfers with execution, unlike dm.
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::GPU});
  std::vector<DataId> ds;
  for (int i = 0; i < 8; ++i) ds.push_back(g.add_data(10'000'000));
  SubmitOptions o;
  o.flops = 2e8;  // 2 ms on GPU ≈ transfer time
  for (int i = 0; i < 8; ++i) g.submit(cl, {Access{ds[i], AccessMode::Read}}, o);
  Platform p = test::small_platform(0, 1);
  PerfDatabase db = test::flat_perf(10.0, 100.0);

  // Disable worker pipelining so the comparison isolates the push-time
  // prefetch (pipelining also hides fetches, for every policy).
  SimConfig cfg;
  cfg.pipeline_depth = 0;
  SimEngine e_dm(g, p, db, cfg);
  (void)e_dm.run(
      [](SchedContext ctx) { return make_dm_family(std::move(ctx), DmVariant::Dm); });
  SimEngine e_dmda(g, p, db, cfg);
  (void)e_dmda.run(
      [](SchedContext ctx) { return make_dm_family(std::move(ctx), DmVariant::Dmda); });
  EXPECT_LT(e_dmda.trace().total_fetch_stall(), e_dm.trace().total_fetch_stall());
  EXPECT_LT(e_dmda.trace().makespan(), e_dm.trace().makespan());
}

TEST(SimEngine, TaskSubmittedAfterConstructionIsRunAndPredicted) {
  // Per-run tables are sized in run(), so a task submitted between
  // construction and run() gets its slot like every other.
  test::EdgeGraph eg(1, {}, 1e6, {ArchType::CPU});
  Platform p = test::small_platform(1, 0);
  PerfDatabase db = test::flat_perf();
  SimEngine engine(eg.graph, p, db);
  eg.graph.submit(eg.graph.task(eg.tasks[0]).codelet,
                  {Access{eg.graph.add_data(8), AccessMode::ReadWrite}});
  const SimResult r = engine.run(eager_factory());
  EXPECT_EQ(r.tasks_executed, 2u);
  EXPECT_EQ(engine.predicted_durations().size(), 2u);
}

TEST(SimEngineDeath, EngineIsSingleShot) {
  test::EdgeGraph eg(1, {}, 1e6, {ArchType::CPU});
  Platform p = test::small_platform(1, 0);
  PerfDatabase db = test::flat_perf();
  SimEngine engine(eg.graph, p, db);
  (void)engine.run(eager_factory());
  EXPECT_DEATH((void)engine.run(eager_factory()), "single-shot");
}

}  // namespace
}  // namespace mp
