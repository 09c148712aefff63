#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/task_graph.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

bool has_edge(const TaskGraph& g, TaskId u, TaskId v) {
  const auto s = g.successors(u);
  return std::find(s.begin(), s.end(), v) != s.end();
}

TEST(TaskGraph, RawDependency) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("w", {ArchType::CPU});
  const DataId d = g.add_data(64);
  const TaskId writer = g.submit(cl, {Access{d, AccessMode::Write}});
  const TaskId reader = g.submit(cl, {Access{d, AccessMode::Read}});
  EXPECT_TRUE(has_edge(g, writer, reader));
  EXPECT_EQ(g.in_degree(reader), 1u);
}

TEST(TaskGraph, WarDependency) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("w", {ArchType::CPU});
  const DataId d = g.add_data(64);
  const TaskId w0 = g.submit(cl, {Access{d, AccessMode::Write}});
  const TaskId r = g.submit(cl, {Access{d, AccessMode::Read}});
  const TaskId w1 = g.submit(cl, {Access{d, AccessMode::Write}});
  EXPECT_TRUE(has_edge(g, r, w1));  // WAR
  EXPECT_FALSE(has_edge(g, w0, w1));  // WAW subsumed: readers already guard
  EXPECT_EQ(g.in_degree(w1), 1u);
}

TEST(TaskGraph, WawDependencyWithoutReaders) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("w", {ArchType::CPU});
  const DataId d = g.add_data(64);
  const TaskId w0 = g.submit(cl, {Access{d, AccessMode::Write}});
  const TaskId w1 = g.submit(cl, {Access{d, AccessMode::Write}});
  EXPECT_TRUE(has_edge(g, w0, w1));
}

TEST(TaskGraph, ReadWriteActsAsBoth) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("w", {ArchType::CPU});
  const DataId d = g.add_data(64);
  const TaskId w0 = g.submit(cl, {Access{d, AccessMode::Write}});
  const TaskId rw = g.submit(cl, {Access{d, AccessMode::ReadWrite}});
  const TaskId r = g.submit(cl, {Access{d, AccessMode::Read}});
  EXPECT_TRUE(has_edge(g, w0, rw));
  EXPECT_TRUE(has_edge(g, rw, r));
}

TEST(TaskGraph, ParallelReadersShareNoEdges) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("w", {ArchType::CPU});
  const DataId d = g.add_data(64);
  const TaskId w = g.submit(cl, {Access{d, AccessMode::Write}});
  const TaskId r0 = g.submit(cl, {Access{d, AccessMode::Read}});
  const TaskId r1 = g.submit(cl, {Access{d, AccessMode::Read}});
  EXPECT_TRUE(has_edge(g, w, r0));
  EXPECT_TRUE(has_edge(g, w, r1));
  EXPECT_FALSE(has_edge(g, r0, r1));
}

TEST(TaskGraph, DuplicateEdgesCollapse) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("w", {ArchType::CPU});
  const DataId d0 = g.add_data(64);
  const DataId d1 = g.add_data(64);
  const TaskId w = g.submit(cl, {Access{d0, AccessMode::Write}, Access{d1, AccessMode::Write}});
  const TaskId r =
      g.submit(cl, {Access{d0, AccessMode::Read}, Access{d1, AccessMode::Read}});
  EXPECT_EQ(g.successors(w).size(), 1u);
  EXPECT_EQ(g.in_degree(r), 1u);
}

TEST(TaskGraph, InitialReadyAreRoots) {
  test::EdgeGraph eg(4, {{0, 2}, {1, 2}, {2, 3}});
  const auto ready = eg.graph.initial_ready();
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0], eg.tasks[0]);
  EXPECT_EQ(ready[1], eg.tasks[1]);
}

TEST(TaskGraph, FootprintSumsAccessBytes) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("w", {ArchType::CPU});
  const DataId d0 = g.add_data(100);
  const DataId d1 = g.add_data(28);
  const TaskId t =
      g.submit(cl, {Access{d0, AccessMode::Read}, Access{d1, AccessMode::Write}});
  EXPECT_EQ(g.task(t).footprint_bytes, 128u);
}

TEST(TaskGraph, TotalFlopsAccumulates) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("w", {ArchType::CPU});
  const DataId d = g.add_data(8);
  SubmitOptions o1;
  o1.flops = 10.0;
  g.submit(cl, {Access{d, AccessMode::ReadWrite}}, o1);
  SubmitOptions o2;
  o2.flops = 32.0;
  g.submit(cl, {Access{d, AccessMode::ReadWrite}}, o2);
  EXPECT_DOUBLE_EQ(g.total_flops(), 42.0);
}

TEST(TaskGraph, CanExecFollowsCodelet) {
  TaskGraph g;
  const CodeletId cpu_only = g.add_codelet("c", {ArchType::CPU});
  const CodeletId both = g.add_codelet("b", {ArchType::CPU, ArchType::GPU});
  const DataId d = g.add_data(8);
  const TaskId t0 = g.submit(cpu_only, {Access{d, AccessMode::Read}});
  const TaskId t1 = g.submit(both, {Access{d, AccessMode::Read}});
  EXPECT_TRUE(g.can_exec(t0, ArchType::CPU));
  EXPECT_FALSE(g.can_exec(t0, ArchType::GPU));
  EXPECT_TRUE(g.can_exec(t1, ArchType::GPU));
}

TEST(TaskGraph, DepCountersReleaseInOrder) {
  test::EdgeGraph eg(4, {{0, 2}, {1, 2}, {2, 3}});
  DepCounters deps(eg.graph);
  EXPECT_TRUE(deps.is_ready(eg.tasks[0]));
  EXPECT_FALSE(deps.is_ready(eg.tasks[2]));
  std::vector<TaskId> out;
  deps.complete(eg.tasks[0], out);
  EXPECT_TRUE(out.empty());
  deps.complete(eg.tasks[1], out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], eg.tasks[2]);
  out.clear();
  deps.complete(eg.tasks[2], out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], eg.tasks[3]);
}

TEST(TaskGraph, UpwardRankIsCriticalPath) {
  // chain 0→1→2 plus isolated 3: ranks 3f, 2f, f, f.
  test::EdgeGraph eg(4, {{0, 1}, {1, 2}}, /*flops=*/5.0);
  const auto rank = eg.graph.upward_rank_flops();
  EXPECT_DOUBLE_EQ(rank[0], 15.0);
  EXPECT_DOUBLE_EQ(rank[1], 10.0);
  EXPECT_DOUBLE_EQ(rank[2], 5.0);
  EXPECT_DOUBLE_EQ(rank[3], 5.0);
}

TEST(TaskGraph, SetUserPriority) {
  test::EdgeGraph eg(2, {{0, 1}});
  eg.graph.set_user_priority(eg.tasks[1], 99);
  EXPECT_EQ(eg.graph.task(eg.tasks[1]).user_priority, 99);
}

TEST(TaskGraph, LabelIsCodeletAndIparams) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("gemm", {ArchType::CPU});
  SubmitOptions o;
  o.iparams = {3, 2, 1, 0};
  const TaskId t = g.submit(cl, {Access{g.add_data(64), AccessMode::ReadWrite}}, o);
  const TaskId plain = g.submit(cl, {Access{g.add_data(64), AccessMode::ReadWrite}});
  EXPECT_EQ(g.label(t), "gemm(3,2,1,0)");
  EXPECT_EQ(g.label(plain), "gemm(0,0,0,0)");
}

TEST(TaskGraph, SelfCheckPassesOnStfGraphs) {
  test::EdgeGraph eg(10, {{0, 5}, {1, 5}, {5, 9}, {2, 9}});
  eg.graph.self_check();  // aborts on failure
}

TEST(TaskGraphDeath, BadCodeletRejected) {
  TaskGraph g;
  const DataId d = g.add_data(8);
  EXPECT_DEATH((void)g.submit(CodeletId{}, {Access{d, AccessMode::Read}}), "MP_CHECK");
}

}  // namespace
}  // namespace mp
