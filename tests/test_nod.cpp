// Reproduces the paper's Fig. 3 NOD example (NOD(T2) = 2.5, NOD(T3) = 1)
// and exercises the arch-restricted variants of Eq. 2.
#include <gtest/gtest.h>

#include "core/nod.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

TEST(Nod, Figure3Example) {
  // DAG: T1→{T2,T3}; T2→{T4,T5,T6}; T3→{T6,T7}; T4→T7.
  // |λ−|: T4=1, T5=1, T6=2, T7=2.
  // NOD(T2) = 1 + 1 + 1/2 = 2.5; NOD(T3) = 1/2 + 1/2 = 1.
  test::EdgeGraph eg(7, {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {1, 5}, {2, 5}, {2, 6}, {3, 6}});
  Platform p = test::small_platform(2, 0);
  test::ManualContext mc(eg.graph, p, test::flat_perf());
  SchedContext ctx = mc.ctx();
  const MemNodeId ram = p.ram_node();
  EXPECT_DOUBLE_EQ(nod_score(ctx, eg.tasks[1], ram), 2.5);
  EXPECT_DOUBLE_EQ(nod_score(ctx, eg.tasks[2], ram), 1.0);
}

TEST(Nod, SinkTaskScoresZero) {
  test::EdgeGraph eg(2, {{0, 1}});
  Platform p = test::small_platform(1, 0);
  test::ManualContext mc(eg.graph, p, test::flat_perf());
  SchedContext ctx = mc.ctx();
  EXPECT_DOUBLE_EQ(nod_score(ctx, eg.tasks[1], p.ram_node()), 0.0);
}

TEST(Nod, RestrictsSuccessorsToNodeArch) {
  // t0 → t1 (CPU-only successor) and t0 → t2 (GPU-only successor).
  TaskGraph g;
  const CodeletId both = g.add_codelet("b", {ArchType::CPU, ArchType::GPU});
  const CodeletId cpu = g.add_codelet("c", {ArchType::CPU});
  const CodeletId gpu = g.add_codelet("g", {ArchType::GPU});
  const DataId d0 = g.add_data(8);
  const DataId d1 = g.add_data(8);
  const TaskId t0 = g.submit(
      both, {Access{d0, AccessMode::Write}, Access{d1, AccessMode::Write}});
  g.submit(cpu, {Access{d0, AccessMode::Read}});
  g.submit(gpu, {Access{d1, AccessMode::Read}});
  Platform p = test::small_platform(1, 1);
  test::ManualContext mc(g, p, test::flat_perf());
  SchedContext ctx = mc.ctx();
  // On the RAM (CPU) node only the CPU successor counts; its only
  // CPU-capable predecessor is t0.
  EXPECT_DOUBLE_EQ(nod_score(ctx, t0, p.ram_node()), 1.0);
  // On the GPU node only the GPU successor counts.
  EXPECT_DOUBLE_EQ(nod_score(ctx, t0, MemNodeId{std::size_t{1}}), 1.0);
}

TEST(Nod, NormalizerKeepsUnitRange) {
  test::EdgeGraph eg(7, {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {1, 5}, {2, 5}, {2, 6}, {3, 6}});
  Platform p = test::small_platform(2, 0);
  test::ManualContext mc(eg.graph, p, test::flat_perf());
  SchedContext ctx = mc.ctx();
  NodNormalizer norm(eg.graph);
  const MemNodeId ram = p.ram_node();
  const double first = norm.normalized(ctx, eg.tasks[1], ram);  // NOD 2.5
  EXPECT_DOUBLE_EQ(first, 1.0);  // first value defines the running max
  const double second = norm.normalized(ctx, eg.tasks[2], ram);  // NOD 1.0
  EXPECT_DOUBLE_EQ(second, 1.0 / 2.5);
  EXPECT_DOUBLE_EQ(norm.max_seen(), 2.5);
}

TEST(Nod, NormalizerZeroWhenNoSuccessors) {
  test::EdgeGraph eg(1, {});
  Platform p = test::small_platform(1, 0);
  test::ManualContext mc(eg.graph, p, test::flat_perf());
  SchedContext ctx = mc.ctx();
  NodNormalizer norm(eg.graph);
  EXPECT_DOUBLE_EQ(norm.normalized(ctx, eg.tasks[0], p.ram_node()), 0.0);
}

TEST(NodDeath, TaskSubmittedAfterConstructionTripsTheCheck) {
  test::EdgeGraph eg(2, {{0, 1}});
  Platform p = test::small_platform(1, 0);
  test::ManualContext mc(eg.graph, p, test::flat_perf());
  SchedContext ctx = mc.ctx();
  NodNormalizer norm(eg.graph);
  const TaskId late = eg.graph.submit(eg.graph.task(eg.tasks[0]).codelet,
                                      {Access{eg.graph.add_data(8), AccessMode::ReadWrite}});
  EXPECT_DEATH((void)norm.normalized(ctx, late, p.ram_node()),
               "outside the graph the normalizer was built for");
}

TEST(Nod, WideFanOutBeatsNarrow) {
  // t0 releases 5 exclusive successors; t1 releases 1: NOD favors t0.
  test::EdgeGraph eg(9, {{0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {1, 7}, {7, 8}});
  Platform p = test::small_platform(2, 0);
  test::ManualContext mc(eg.graph, p, test::flat_perf());
  SchedContext ctx = mc.ctx();
  EXPECT_GT(nod_score(ctx, eg.tasks[0], p.ram_node()),
            nod_score(ctx, eg.tasks[1], p.ram_node()));
}

}  // namespace
}  // namespace mp
