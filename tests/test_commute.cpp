// AccessMode::Commute: STF dependency rules, simulator mutual exclusion,
// real-executor correctness under contention, and the DAG-parallelism gain
// on the FMM accumulations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "apps/fmm/dag_builder.hpp"
#include "exec/thread_executor.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

bool has_edge(const TaskGraph& g, TaskId u, TaskId v) {
  const auto s = g.successors(u);
  return std::find(s.begin(), s.end(), v) != s.end();
}

struct World {
  TaskGraph g;
  CodeletId cl;
  DataId d;
  World() {
    cl = g.add_codelet("k", {ArchType::CPU});
    d = g.add_data(64);
  }
  TaskId submit(AccessMode m) { return g.submit(cl, {Access{d, m}}); }
};

TEST(CommuteStf, CommutersCarryNoMutualEdges) {
  World w;
  const TaskId w0 = w.submit(AccessMode::Write);
  const TaskId c1 = w.submit(AccessMode::Commute);
  const TaskId c2 = w.submit(AccessMode::Commute);
  const TaskId c3 = w.submit(AccessMode::Commute);
  EXPECT_TRUE(has_edge(w.g, w0, c1));
  EXPECT_TRUE(has_edge(w.g, w0, c2));
  EXPECT_TRUE(has_edge(w.g, w0, c3));
  EXPECT_FALSE(has_edge(w.g, c1, c2));
  EXPECT_FALSE(has_edge(w.g, c2, c3));
  EXPECT_FALSE(has_edge(w.g, c1, c3));
}

TEST(CommuteStf, ReaderWaitsForAllCommuters) {
  World w;
  const TaskId c1 = w.submit(AccessMode::Commute);
  const TaskId c2 = w.submit(AccessMode::Commute);
  const TaskId r = w.submit(AccessMode::Read);
  EXPECT_TRUE(has_edge(w.g, c1, r));
  EXPECT_TRUE(has_edge(w.g, c2, r));
  EXPECT_EQ(w.g.in_degree(r), 2u);
}

TEST(CommuteStf, WriterWaitsForAllCommuters) {
  World w;
  const TaskId c1 = w.submit(AccessMode::Commute);
  const TaskId c2 = w.submit(AccessMode::Commute);
  const TaskId wr = w.submit(AccessMode::Write);
  EXPECT_TRUE(has_edge(w.g, c1, wr));
  EXPECT_TRUE(has_edge(w.g, c2, wr));
}

TEST(CommuteStf, CommuterAfterReadersWaitsForThem) {
  World w;
  const TaskId w0 = w.submit(AccessMode::Write);
  const TaskId r1 = w.submit(AccessMode::Read);
  const TaskId r2 = w.submit(AccessMode::Read);
  const TaskId c = w.submit(AccessMode::Commute);
  EXPECT_TRUE(has_edge(w.g, r1, c));
  EXPECT_TRUE(has_edge(w.g, r2, c));
  EXPECT_FALSE(has_edge(w.g, w0, c));  // covered transitively by the readers
}

TEST(CommuteStf, TwoReadersAfterEpochBothGuarded) {
  World w;
  const TaskId c1 = w.submit(AccessMode::Commute);
  const TaskId c2 = w.submit(AccessMode::Commute);
  const TaskId r1 = w.submit(AccessMode::Read);
  const TaskId r2 = w.submit(AccessMode::Read);
  EXPECT_TRUE(has_edge(w.g, c1, r1));
  EXPECT_TRUE(has_edge(w.g, c2, r1));
  EXPECT_TRUE(has_edge(w.g, c1, r2));
  EXPECT_TRUE(has_edge(w.g, c2, r2));
  EXPECT_FALSE(has_edge(w.g, r1, r2));
}

TEST(CommuteStf, MixedEpochsStaySafe) {
  World w;
  const TaskId c1 = w.submit(AccessMode::Commute);
  const TaskId r = w.submit(AccessMode::Read);
  const TaskId c2 = w.submit(AccessMode::Commute);
  const TaskId wr = w.submit(AccessMode::Write);
  EXPECT_TRUE(has_edge(w.g, c1, r));
  EXPECT_TRUE(has_edge(w.g, r, c2));
  EXPECT_TRUE(has_edge(w.g, c2, wr));
  w.g.self_check();
}

TEST(CommuteSim, ExecutionsNeverOverlapOnOneHandle) {
  // 8 independent commuters on one handle, 4 workers: the engine must
  // serialize their executions even though the DAG has no edges.
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU});
  const DataId d = g.add_data(64);
  SubmitOptions o;
  o.flops = 1e8;
  for (int i = 0; i < 8; ++i) g.submit(cl, {Access{d, AccessMode::Commute}}, o);
  Platform p = test::small_platform(4, 0);
  PerfDatabase db = test::flat_perf();
  SimEngine engine(g, p, db);
  const SimResult r = engine.run([](SchedContext ctx) { return make_eager(std::move(ctx)); });
  EXPECT_EQ(r.tasks_executed, 8u);
  // Mutual exclusion: intervals must not overlap pairwise.
  const auto& segs = engine.trace().segments();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    for (std::size_t j = i + 1; j < segs.size(); ++j) {
      const bool disjoint =
          segs[i].end <= segs[j].exec_start + 1e-12 || segs[j].end <= segs[i].exec_start + 1e-12;
      EXPECT_TRUE(disjoint) << i << " vs " << j;
    }
  }
  // Serialized: makespan ≈ 8 executions back to back.
  EXPECT_GE(r.makespan, 8.0 * 1e8 / 10e9 - 1e-9);
}

TEST(CommuteSim, IndependentHandlesStillRunInParallel) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU});
  SubmitOptions o;
  o.flops = 1e8;
  for (int i = 0; i < 4; ++i) {
    const DataId d = g.add_data(64);
    g.submit(cl, {Access{d, AccessMode::Commute}}, o);
  }
  Platform p = test::small_platform(4, 0);
  PerfDatabase db = test::flat_perf();
  const SimResult r = simulate(g, p, db, [](SchedContext ctx) {
    return make_eager(std::move(ctx));
  });
  EXPECT_NEAR(r.makespan, 1e8 / 10e9, 1e-9);
}

TEST(CommuteSim, AllSchedulersHandleCommuteDags) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU, ArchType::GPU});
  const DataId acc_data = g.add_data(256);
  SubmitOptions o;
  o.flops = 1e7;
  for (int i = 0; i < 20; ++i) {
    const DataId own = g.add_data(128);
    g.submit(cl, {Access{own, AccessMode::Read}, Access{acc_data, AccessMode::Commute}}, o);
  }
  g.submit(cl, {Access{acc_data, AccessMode::Read}}, o);  // reduction barrier
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  for (const std::string& name : scheduler_names()) {
    const SimResult r = simulate(g, p, db, scheduler_factory(name));
    EXPECT_EQ(r.tasks_executed, g.num_tasks()) << name;
  }
}

TEST(CommuteExec, ConcurrentAccumulationIsExact) {
  // 64 commuters each add 1 into a shared counter under real threads; the
  // per-handle mutex must make the final value exact.
  TaskGraph g;
  double counter = 0.0;
  const CodeletId cl = g.add_codelet(
      "add", {ArchType::CPU, ArchType::GPU},
      [](const Task&, std::span<void* const> buf) {
        auto* v = static_cast<double*>(buf[0]);
        const double old = *v;
        // Widen the race window without the lock.
        volatile int spin = 0;
        while (spin < 500) spin = spin + 1;
        *v = old + 1.0;
      });
  const DataId d = g.add_data(sizeof(double), &counter);
  for (int i = 0; i < 64; ++i) g.submit(cl, {Access{d, AccessMode::Commute}});
  Platform p = test::small_platform(4, 2);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  const ExecResult r = exec.run(scheduler_factory("lws"));
  EXPECT_EQ(r.tasks_executed, 64u);
  EXPECT_DOUBLE_EQ(counter, 64.0);
}

TEST(CommuteFmm, CommuteDagHasFewerOrderingConstraints) {
  auto parts = fmm::uniform_cube(30000, 5);
  fmm::Octree tree(std::move(parts), {5, 32, false});
  TaskGraph g_rw;
  (void)fmm::build_fmm(g_rw, tree, {/*commute_accumulations=*/false});
  TaskGraph g_c;
  (void)fmm::build_fmm(g_c, tree, {/*commute_accumulations=*/true});
  // Same task count; the accumulation chains vanish, so the unit-weight
  // critical path (DAG depth) must shrink even though commute adds more
  // entry/exit edges per accumulator.
  ASSERT_EQ(g_rw.num_tasks(), g_c.num_tasks());
  auto depth = [](const TaskGraph& g) {
    std::size_t best = 0;
    std::vector<std::size_t> d(g.num_tasks(), 1);
    for (std::size_t i = g.num_tasks(); i-- > 0;) {
      for (TaskId s : g.successors(TaskId{i}))
        d[i] = std::max(d[i], 1 + d[s.index()]);
      best = std::max(best, d[i]);
    }
    return best;
  };
  EXPECT_LT(depth(g_c), depth(g_rw));
  // Both encodings schedule to completion; the commute run pays our
  // conservative pop-order arbiter (see FmmBuildOptions), so we only bound
  // it loosely rather than require a speed-up.
  Platform p = test::small_platform(4, 2);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  const SimResult rw = simulate(g_rw, p, db, scheduler_factory("multiprio"));
  const SimResult cm = simulate(g_c, p, db, scheduler_factory("multiprio"));
  EXPECT_EQ(cm.tasks_executed, g_c.num_tasks());
  EXPECT_LT(cm.makespan, rw.makespan * 4.0);
}

TEST(CommuteFmm, RealExecutionStaysNumericallyCorrect) {
  auto parts = fmm::uniform_cube(1200, 6);
  fmm::Octree serial_tree(parts, {4, 8, true});
  fmm::run_fmm_serial(serial_tree);
  const auto expect = serial_tree.potentials_original_order();

  fmm::Octree tree(parts, {4, 8, true});
  TaskGraph g;
  (void)fmm::build_fmm(g, tree, {/*commute_accumulations=*/true});
  Platform p = test::small_platform(3, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  (void)exec.run(scheduler_factory("multiprio"));
  const auto got = tree.potentials_original_order();
  // Accumulation order now varies: compare with an FP-reordering tolerance.
  double max_rel = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i)
    max_rel = std::max(max_rel, std::abs(got[i] - expect[i]) /
                                    std::max(1e-12, std::abs(expect[i])));
  EXPECT_LT(max_rel, 1e-9);
}

}  // namespace
}  // namespace mp
