// The trace report — Trace analytics and RunAnalysis's trace tables
// (per-codelet, per-node, executed critical path, efficiency) — on a
// hand-built trace whose every quantity is computable by hand: a 4-task
// diamond executed on 1 CPU + 1 GPU.
#include <gtest/gtest.h>

#include "obs/analysis.hpp"
#include "obs/observer.hpp"
#include "runtime/trace.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

/// Diamond DAG t0 → {t1, t2} → t3 on a 1-CPU + 1-GPU platform, with a
/// hand-written schedule:
///
///   worker 0 (CPU, node 0): t0 [0,2)             t3 [5,7)
///   worker 1 (GPU, node 1):        t1 [2,4)  t2 [4,5)  (t2 stalled 0.5)
///
/// makespan 7; busy: CPU 4s, GPU 3s. The perf model gives every task 2 s on
/// the CPU and 1 s on the GPU (1e6 flops at 0.5 / 1 MFlop/s).
struct HandTrace {
  test::EdgeGraph eg{4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, 1e6};
  Platform platform = test::small_platform(1, 1);
  PerfDatabase perf = test::flat_perf(0.5e-3, 1e-3);
  Trace trace{eg.graph, platform};
  WorkerId cpu{std::size_t{0}};
  WorkerId gpu{std::size_t{1}};
  MemNodeId ram{std::size_t{0}};
  MemNodeId vram{std::size_t{1}};

  HandTrace() {
    trace.record(TraceSegment{eg.tasks[0], cpu, 0.0, 0.0, 2.0, 0.0});
    trace.record(TraceSegment{eg.tasks[1], gpu, 2.0, 2.0, 4.0, 0.0});
    trace.record(TraceSegment{eg.tasks[2], gpu, 3.5, 4.0, 5.0, 0.5});
    trace.record(TraceSegment{eg.tasks[3], cpu, 5.0, 5.0, 7.0, 0.0});
  }

  [[nodiscard]] RunAnalysis analyze(const RecordingObserver* obs = nullptr) const {
    return RunAnalysis(trace, eg.graph, platform, perf, obs);
  }
};

TEST(TraceReport, MakespanBusyAndIdleFractions) {
  HandTrace h;
  EXPECT_DOUBLE_EQ(h.trace.makespan(), 7.0);
  EXPECT_EQ(h.trace.num_executed(), 4u);
  EXPECT_DOUBLE_EQ(h.trace.busy_time(h.cpu), 4.0);
  EXPECT_DOUBLE_EQ(h.trace.busy_time(h.gpu), 3.0);
  // Node 0 holds only the CPU worker, node 1 only the GPU worker.
  EXPECT_DOUBLE_EQ(h.trace.idle_fraction_node(h.ram), 1.0 - 4.0 / 7.0);
  EXPECT_DOUBLE_EQ(h.trace.idle_fraction_node(h.vram), 1.0 - 3.0 / 7.0);
  EXPECT_DOUBLE_EQ(h.trace.total_fetch_stall(), 0.5);

  // The node table carries the same numbers, one row per node in id order.
  const RunAnalysis a = h.analyze();
  ASSERT_EQ(a.nodes().size(), 2u);
  EXPECT_EQ(a.nodes()[0].node, h.ram);
  EXPECT_EQ(a.nodes()[0].tasks, 2u);
  EXPECT_DOUBLE_EQ(a.nodes()[0].busy_s, 4.0);
  EXPECT_DOUBLE_EQ(a.nodes()[0].idle_fraction, 1.0 - 4.0 / 7.0);
  EXPECT_EQ(a.nodes()[1].node, h.vram);
  EXPECT_EQ(a.nodes()[1].tasks, 2u);
  EXPECT_DOUBLE_EQ(a.nodes()[1].busy_s, 3.0);
  EXPECT_DOUBLE_EQ(a.nodes()[1].idle_fraction, 1.0 - 3.0 / 7.0);
  EXPECT_DOUBLE_EQ(a.makespan_s(), 7.0);
}

TEST(TraceReport, WorkShareSplitsBusySecondsByArch) {
  HandTrace h;
  const RunAnalysis a = h.analyze();
  ASSERT_EQ(a.codelets().size(), 1u);
  const CodeletReport& c = a.codelets()[0];
  EXPECT_EQ(c.codelet, "work");
  EXPECT_EQ(c.count_cpu, 2u);
  EXPECT_EQ(c.count_gpu, 2u);
  EXPECT_DOUBLE_EQ(c.busy_cpu_s, 4.0);
  EXPECT_DOUBLE_EQ(c.busy_gpu_s, 3.0);
  EXPECT_DOUBLE_EQ(c.stall_s, 0.5);
  const double busy = c.busy_cpu_s + c.busy_gpu_s;
  EXPECT_DOUBLE_EQ(c.busy_cpu_s / busy, 4.0 / 7.0);
  EXPECT_DOUBLE_EQ(c.busy_gpu_s / busy, 3.0 / 7.0);
}

TEST(TraceReport, PracticalCriticalPathWalksLastFinishingChain) {
  HandTrace h;
  // Last finisher is t3; its last-finishing predecessor is t2 (ends 5.0),
  // whose predecessor is t0. Chain in execution order: t0, t2, t3.
  const std::vector<TaskId> path = h.trace.practical_critical_path();
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], h.eg.tasks[0]);
  EXPECT_EQ(path[1], h.eg.tasks[2]);
  EXPECT_EQ(path[2], h.eg.tasks[3]);
  // Critical path seconds = 2 (t0) + 1 (t2) + 2 (t3) = 5.
  const RunAnalysis a = h.analyze();
  EXPECT_EQ(a.critical_path(), path);
  EXPECT_DOUBLE_EQ(a.critical_path_exec_s(), 5.0);
}

TEST(TraceReport, EfficiencyBoundRatioUsesTheTighterBound) {
  HandTrace h;
  const RunAnalysis a = h.analyze();
  // Critical-path bound: three tasks in a row at the GPU's 1 s = 3 s. Area
  // bound: g tasks on the GPU and 4 − g on the CPU with g·1 = (4 − g)·2
  // ⇒ T = 8/3 s < 3 s, so the bound is the critical path and the
  // efficiency is 3 / makespan.
  EXPECT_NEAR(a.cp_bound_s(), 3.0, 1e-9);
  EXPECT_NEAR(a.area_bound_s(), 8.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(a.bound_s(), a.cp_bound_s());
  EXPECT_NEAR(a.efficiency(), 3.0 / 7.0, 1e-9);
}

TEST(TraceReport, ToStringCarriesTablesAndObserverRollup) {
  HandTrace h;
  const std::string s = h.analyze().to_string();
  EXPECT_NE(s.find("makespan"), std::string::npos);
  EXPECT_NE(s.find("work"), std::string::npos);  // the codelet table
  EXPECT_NE(s.find("RAM"), std::string::npos);   // the node table
  EXPECT_NE(s.find("GPU0"), std::string::npos);

  // The rollup is the observer's own report; the analysis text never
  // depends on it (a worker-less EVICT changes no idle attribution).
  RecordingObserver obs;
  SchedEvent e;
  e.kind = SchedEventKind::Evict;
  obs.record(e);
  EXPECT_NE(obs.rollup().find("EVICT"), std::string::npos);
  EXPECT_EQ(h.analyze(&obs).to_string(), s);
}

}  // namespace
}  // namespace mp
