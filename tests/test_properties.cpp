// Cross-cutting property sweeps: scheduling invariants on random DAGs,
// memory-manager fuzzing, and run-analysis table consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.hpp"
#include "obs/analysis.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

class SchedulingInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(SchedulingInvariants, MakespanRespectsLowerBounds) {
  const auto& [name, seed] = GetParam();
  const TaskGraph g = test::fuzz_graph(seed, 150);
  Platform p = test::small_platform(3, 1);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  SimEngine engine(g, p, db);
  const SimResult r = engine.run(scheduler_factory(name));
  EXPECT_EQ(r.tasks_executed, g.num_tasks());

  // Work bound: total execution seconds cannot be compressed below
  // busy/width (every worker at its own speed — use the fastest).
  double total_exec = 0.0;
  for (const TraceSegment& s : engine.trace().segments())
    total_exec += s.end - s.exec_start;
  EXPECT_GE(r.makespan + 1e-9, total_exec / static_cast<double>(p.num_workers()));

  // The analytic lower bounds (area and critical path at best-arch
  // times), and the executed critical path.
  const RunAnalysis a(engine.trace(), g, p, db);
  EXPECT_GE(r.makespan + 1e-9, a.bound_s());
  EXPECT_GE(r.makespan + 1e-9, a.critical_path_exec_s());
}

TEST_P(SchedulingInvariants, CommuteTasksNeverOverlapPerHandle) {
  const auto& [name, seed] = GetParam();
  const TaskGraph g = test::fuzz_graph(seed + 50, 120);
  Platform p = test::small_platform(2, 2);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  SimEngine engine(g, p, db);
  (void)engine.run(scheduler_factory(name));
  // Collect executions per commute handle and check pairwise disjointness.
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> windows;
  for (const TraceSegment& s : engine.trace().segments()) {
    for (const Access& a : g.task(s.task).accesses) {
      if (a.mode == AccessMode::Commute)
        windows[a.data.value()].emplace_back(s.exec_start, s.end);
    }
  }
  for (auto& [d, w] : windows) {
    std::sort(w.begin(), w.end());
    for (std::size_t i = 1; i < w.size(); ++i) {
      EXPECT_LE(w[i - 1].second, w[i].first + 1e-12)
          << "handle " << d << " overlap at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulingInvariants,
    ::testing::Combine(::testing::Values("multiprio", "dmdas", "heteroprio", "lws",
                                         "eager"),
                       ::testing::Values(11u, 12u, 13u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>& info) {
      std::string n = std::get<0>(info.param);
      for (char& c : n)
        if (c == '-') c = '_';
      return n + "_s" + std::to_string(std::get<1>(info.param));
    });

class MemoryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemoryFuzz, CoherenceNeverLosesData) {
  Rng rng(GetParam());
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU, ArchType::GPU});
  std::vector<DataId> data;
  for (int i = 0; i < 24; ++i) data.push_back(g.add_data(64 + rng.next_in(0, 4096)));
  std::vector<TaskId> tasks;
  for (int i = 0; i < 200; ++i) {
    const DataId d = data[rng.next_in(0, data.size() - 1)];
    const double pick = rng.next_double();
    const AccessMode m = pick < 0.4   ? AccessMode::Read
                         : pick < 0.7 ? AccessMode::ReadWrite
                                      : AccessMode::Write;
    tasks.push_back(g.submit(cl, {Access{d, m}}));
  }
  // Capacity-limited GPUs force constant eviction traffic.
  Platform p = test::small_platform(2, 0);
  const MemNodeId g0 = p.add_gpu_node(6000, 10e9, 1e-6);
  p.add_workers(ArchType::GPU, g0, 1);
  const MemNodeId g1 = p.add_gpu_node(6000, 10e9, 1e-6);
  p.add_workers(ArchType::GPU, g1, 1);

  MemoryManager mm(g, p);
  std::vector<TransferOp> ops;
  for (TaskId t : tasks) {
    const std::size_t pick = rng.next_in(0, p.num_nodes() - 1);
    ops.clear();
    mm.acquire_for_task(t, MemNodeId{pick}, ops);
    // Invariant: every handle keeps at least one valid copy somewhere.
    for (const Access& a : g.task(t).accesses) {
      bool somewhere = false;
      for (std::size_t n = 0; n < p.num_nodes(); ++n)
        somewhere = somewhere || mm.is_valid_on(a.data, MemNodeId{n});
      ASSERT_TRUE(somewhere);
    }
    // Capacity invariant (pinning is not used here, so it must hold).
    EXPECT_LE(mm.used_bytes(g0), 6000u);
    EXPECT_LE(mm.used_bytes(g1), 6000u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryFuzz, ::testing::Values(21u, 22u, 23u, 24u));

TEST(TraceReport, SharesAndCountsAreConsistent) {
  const TaskGraph g = test::fuzz_graph(99, 120);
  Platform p = test::small_platform(3, 1);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  SimEngine engine(g, p, db);
  (void)engine.run(scheduler_factory("multiprio"));
  const RunAnalysis a(engine.trace(), g, p, db);
  // Every busy second lands in exactly one codelet row and one node row.
  double worker_busy = 0.0;
  for (std::size_t wi = 0; wi < p.num_workers(); ++wi)
    worker_busy += engine.trace().busy_time(WorkerId{wi});
  std::size_t task_total = 0;
  double node_busy = 0.0;
  for (const NodeReport& n : a.nodes()) {
    task_total += n.tasks;
    node_busy += n.busy_s;
  }
  EXPECT_EQ(task_total, g.num_tasks());
  EXPECT_NEAR(node_busy, worker_busy, 1e-9);
  std::size_t codelet_total = 0;
  double codelet_busy = 0.0;
  for (const CodeletReport& c : a.codelets()) {
    codelet_total += c.count_cpu + c.count_gpu;
    codelet_busy += c.busy_cpu_s + c.busy_gpu_s;
  }
  EXPECT_EQ(codelet_total, g.num_tasks());
  EXPECT_NEAR(codelet_busy, worker_busy, 1e-9);
  EXPECT_NE(a.to_string().find("makespan"), std::string::npos);
}

}  // namespace
}  // namespace mp
