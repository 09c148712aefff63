// Threaded executor: real concurrent execution of DAGs with every policy,
// dependency safety under contention, and history-model feedback.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>

#include "exec/thread_executor.hpp"
#include "sched/schedulers.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

ExecSchedulerFactory by_name(const std::string& name) {
  return [name](SchedContext ctx) { return make_scheduler_by_name(name, std::move(ctx)); };
}

TEST(ThreadExecutor, RunsEveryTaskExactlyOnce) {
  TaskGraph g;
  std::atomic<int> counter{0};
  const CodeletId cl = g.add_codelet(
      "count", {ArchType::CPU, ArchType::GPU},
      [&counter](const Task&, std::span<void* const>) { counter.fetch_add(1); });
  for (int i = 0; i < 50; ++i) {
    const DataId d = g.add_data(8);
    g.submit(cl, {Access{d, AccessMode::ReadWrite}});
  }
  Platform p = test::small_platform(3, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  const ExecResult r = exec.run(by_name("multiprio"));
  EXPECT_EQ(counter.load(), 50);
  EXPECT_EQ(r.tasks_executed, 50u);
  std::size_t sum = 0;
  for (std::size_t c : r.tasks_per_worker) sum += c;
  EXPECT_EQ(sum, 50u);
}

TEST(ThreadExecutor, DependencyOrderEnforced) {
  // Chain incrementing a shared cell: any reorder breaks the final value.
  TaskGraph g;
  double cell = 0.0;
  const CodeletId cl = g.add_codelet(
      "inc", {ArchType::CPU},
      [](const Task& t, std::span<void* const> buf) {
        auto* v = static_cast<double*>(buf[0]);
        // v must equal the task's position in the chain.
        *v = *v * 2.0 + static_cast<double>(t.iparams[0]);
      });
  const DataId d = g.add_data(sizeof(double), &cell);
  for (int i = 0; i < 12; ++i) {
    SubmitOptions o;
    o.iparams = {i, 0, 0, 0};
    g.submit(cl, {Access{d, AccessMode::ReadWrite}}, o);
  }
  Platform p = test::small_platform(4, 0);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  (void)exec.run(by_name("lws"));
  double expect = 0.0;
  for (int i = 0; i < 12; ++i) expect = expect * 2.0 + i;
  EXPECT_DOUBLE_EQ(cell, expect);
}

TEST(ThreadExecutor, ParallelReadersDoNotConflict) {
  TaskGraph g;
  double src_val = 7.0;
  std::vector<double> sinks(20, 0.0);
  const CodeletId copy = g.add_codelet(
      "copy", {ArchType::CPU, ArchType::GPU},
      [](const Task&, std::span<void* const> buf) {
        *static_cast<double*>(buf[1]) = *static_cast<const double*>(buf[0]);
      });
  const DataId src = g.add_data(sizeof(double), &src_val);
  for (int i = 0; i < 20; ++i) {
    const DataId dst = g.add_data(sizeof(double), &sinks[static_cast<std::size_t>(i)]);
    g.submit(copy, {Access{src, AccessMode::Read}, Access{dst, AccessMode::Write}});
  }
  Platform p = test::small_platform(4, 2);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  (void)exec.run(by_name("heteroprio"));
  for (double v : sinks) EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(ThreadExecutor, GpuWorkersFallBackToCpuImplementation) {
  TaskGraph g;
  std::atomic<int> calls{0};
  const CodeletId cl = g.add_codelet(
      "gpuonly", {ArchType::GPU},
      [&calls](const Task&, std::span<void* const>) { calls.fetch_add(1); });
  for (int i = 0; i < 5; ++i) {
    const DataId d = g.add_data(8);
    g.submit(cl, {Access{d, AccessMode::ReadWrite}});
  }
  Platform p = test::small_platform(1, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  const ExecResult r = exec.run(by_name("eager"));
  EXPECT_EQ(calls.load(), 5);
  // All five must have run on the GPU worker (the only capable one).
  const WorkerId gpu_w = p.workers_of_node(MemNodeId{std::size_t{1}})[0];
  EXPECT_EQ(r.tasks_per_worker[gpu_w.index()], 5u);
}

TEST(ThreadExecutor, DistinctGpuImplementationUsedWhenPresent) {
  TaskGraph g;
  std::atomic<int> cpu_calls{0};
  std::atomic<int> gpu_calls{0};
  const CodeletId cl = g.add_codelet(
      "dual", {ArchType::GPU},
      [&cpu_calls](const Task&, std::span<void* const>) { cpu_calls.fetch_add(1); },
      [&gpu_calls](const Task&, std::span<void* const>) { gpu_calls.fetch_add(1); });
  const DataId d = g.add_data(8);
  g.submit(cl, {Access{d, AccessMode::ReadWrite}});
  Platform p = test::small_platform(1, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  (void)exec.run(by_name("eager"));
  EXPECT_EQ(gpu_calls.load(), 1);
  EXPECT_EQ(cpu_calls.load(), 0);
}

TEST(ThreadExecutor, DiamondJoinSeesBothBranches) {
  TaskGraph g;
  double left = 0.0;
  double right = 0.0;
  double joined = 0.0;
  const CodeletId set1 = g.add_codelet(
      "set", {ArchType::CPU}, [](const Task& t, std::span<void* const> buf) {
        *static_cast<double*>(buf[0]) = static_cast<double>(t.iparams[0]);
      });
  const CodeletId join = g.add_codelet(
      "join", {ArchType::CPU}, [](const Task&, std::span<void* const> buf) {
        *static_cast<double*>(buf[2]) = *static_cast<const double*>(buf[0]) +
                                        *static_cast<const double*>(buf[1]);
      });
  const DataId dl = g.add_data(sizeof(double), &left);
  const DataId dr = g.add_data(sizeof(double), &right);
  const DataId dj = g.add_data(sizeof(double), &joined);
  SubmitOptions ol;
  ol.iparams = {21, 0, 0, 0};
  g.submit(set1, {Access{dl, AccessMode::Write}}, ol);
  SubmitOptions orr;
  orr.iparams = {21, 0, 0, 0};
  g.submit(set1, {Access{dr, AccessMode::Write}}, orr);
  g.submit(join, {Access{dl, AccessMode::Read}, Access{dr, AccessMode::Read},
                  Access{dj, AccessMode::Write}});
  Platform p = test::small_platform(2, 0);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  (void)exec.run(by_name("multiprio"));
  EXPECT_DOUBLE_EQ(joined, 42.0);
}

class ExecutorPolicies : public ::testing::TestWithParam<std::string> {};

TEST_P(ExecutorPolicies, StressManySmallTasks) {
  TaskGraph g;
  std::atomic<int> counter{0};
  const CodeletId cl = g.add_codelet(
      "tick", {ArchType::CPU, ArchType::GPU},
      [&counter](const Task&, std::span<void* const>) { counter.fetch_add(1); });
  // Layered graph with fan-in/fan-out through shared handles.
  std::vector<DataId> layer;
  for (int i = 0; i < 8; ++i) layer.push_back(g.add_data(8));
  for (int l = 0; l < 10; ++l) {
    for (int i = 0; i < 8; ++i) {
      const DataId in = layer[static_cast<std::size_t>((i + l) % 8)];
      const DataId out = layer[static_cast<std::size_t>(i)];
      g.submit(cl, {Access{in, AccessMode::Read}, Access{out, AccessMode::ReadWrite}});
    }
  }
  Platform p = test::small_platform(3, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  const ExecResult r = exec.run(by_name(GetParam()));
  EXPECT_EQ(counter.load(), 80);
  EXPECT_EQ(r.tasks_executed, 80u);
}

INSTANTIATE_TEST_SUITE_P(Policies, ExecutorPolicies,
                         ::testing::Values("eager", "random", "lws", "dm", "dmda",
                                           "dmdas", "heteroprio", "multiprio",
                                           "multiprio-coarse"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace mp
