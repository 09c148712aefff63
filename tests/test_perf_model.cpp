#include <gtest/gtest.h>

#include "runtime/perf_model.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

struct OneTask {
  TaskGraph graph;
  TaskId task;
  OneTask(double flops, std::size_t bytes, const char* codelet = "k") {
    const CodeletId cl = graph.add_codelet(codelet, {ArchType::CPU, ArchType::GPU});
    const DataId d = graph.add_data(bytes);
    SubmitOptions o;
    o.flops = flops;
    task = graph.submit(cl, {Access{d, AccessMode::ReadWrite}}, o);
  }
};

TEST(PerfDatabase, GroundTruthUsesRate) {
  OneTask w(1e9, 8);
  PerfDatabase db;
  db.set_rate("k", ArchType::CPU, RateSpec{10.0, 0.0, 0.0, 0.0});
  db.set_rate("k", ArchType::GPU, RateSpec{100.0, 0.0, 0.0, 0.0});
  EXPECT_NEAR(db.ground_truth(w.graph, w.task, ArchType::CPU), 0.1, 1e-12);
  EXPECT_NEAR(db.ground_truth(w.graph, w.task, ArchType::GPU), 0.01, 1e-12);
}

TEST(PerfDatabase, OverheadAdds) {
  OneTask w(1e9, 8);
  PerfDatabase db;
  db.set_rate("k", ArchType::GPU, RateSpec{100.0, 5e-6, 0.0, 0.0});
  db.set_rate("k", ArchType::CPU, RateSpec{100.0, 0.0, 0.0, 0.0});
  EXPECT_NEAR(db.ground_truth(w.graph, w.task, ArchType::GPU), 0.01 + 5e-6, 1e-12);
}

TEST(PerfDatabase, SaturationTermPenalizesSmallTasks) {
  OneTask small(1e6, 8);
  PerfDatabase db;
  db.set_rate("k", ArchType::GPU, RateSpec{1000.0, 0.0, 0.0, 1e9});
  db.set_rate("k", ArchType::CPU, RateSpec{10.0, 0.0, 0.0, 0.0});
  // (1e6 + 1e9)/1e12 ≈ 1 ms instead of 1 µs.
  EXPECT_NEAR(db.ground_truth(small.graph, small.task, ArchType::GPU), 1.001e-3, 1e-9);
}

TEST(PerfDatabase, MemoryBoundTerm) {
  OneTask w(0.0, 1'000'000);
  PerfDatabase db;
  db.set_rate("k", ArchType::CPU, RateSpec{10.0, 0.0, 1e9, 0.0});
  db.set_rate("k", ArchType::GPU, RateSpec{10.0, 0.0, 0.0, 0.0});
  EXPECT_NEAR(db.ground_truth(w.graph, w.task, ArchType::CPU), 1e-3, 1e-9);
}

TEST(PerfDatabase, FallsBackToDefault) {
  OneTask w(1e9, 8, "unknown-kernel");
  PerfDatabase db;
  db.set_default(ArchType::CPU, RateSpec{2.0, 0.0, 0.0, 0.0});
  db.set_default(ArchType::GPU, RateSpec{20.0, 0.0, 0.0, 0.0});
  EXPECT_NEAR(db.ground_truth(w.graph, w.task, ArchType::CPU), 0.5, 1e-12);
}

TEST(PerfDatabase, NeverReturnsNonPositive) {
  OneTask w(0.0, 0);
  PerfDatabase db;
  db.set_default(ArchType::CPU, RateSpec{1000.0, 0.0, 0.0, 0.0});
  EXPECT_GT(db.ground_truth(w.graph, w.task, ArchType::CPU), 0.0);
}

TEST(HistoryModel, UncalibratedUsesDefaultPrior) {
  OneTask w(1e9, 8);
  PerfDatabase db;
  db.set_rate("k", ArchType::CPU, RateSpec{10.0, 0.0, 0.0, 0.0});
  db.set_default(ArchType::CPU, RateSpec{5.0, 0.0, 0.0, 0.0});
  db.set_default(ArchType::GPU, RateSpec{50.0, 0.0, 0.0, 0.0});
  HistoryModel hm(w.graph, db);
  EXPECT_FALSE(hm.is_calibrated(w.task, ArchType::CPU));
  // Prior uses the *default* rate, not the codelet-specific one.
  EXPECT_NEAR(hm.estimate(w.task, ArchType::CPU), 0.2, 1e-12);
}

TEST(HistoryModel, RecordedMeanWins) {
  OneTask w(1e9, 8);
  PerfDatabase db = test::flat_perf();
  HistoryModel hm(w.graph, db);
  hm.record(w.task, ArchType::CPU, 0.5);
  EXPECT_TRUE(hm.is_calibrated(w.task, ArchType::CPU));
  EXPECT_NEAR(hm.estimate(w.task, ArchType::CPU), 0.5, 1e-12);
  hm.record(w.task, ArchType::CPU, 1.5);
  EXPECT_NEAR(hm.estimate(w.task, ArchType::CPU), 1.0, 1e-12);
}

TEST(HistoryModel, SeedFromTruthMatchesAnalytic) {
  OneTask w(1e9, 8);
  PerfDatabase db;
  db.set_rate("k", ArchType::CPU, RateSpec{10.0, 0.0, 0.0, 0.0});
  db.set_rate("k", ArchType::GPU, RateSpec{100.0, 0.0, 0.0, 0.0});
  HistoryModel hm(w.graph, db);
  hm.seed_from_truth();
  EXPECT_TRUE(hm.is_calibrated(w.task, ArchType::CPU));
  EXPECT_NEAR(hm.estimate(w.task, ArchType::CPU),
              db.ground_truth(w.graph, w.task, ArchType::CPU), 1e-15);
  EXPECT_NEAR(hm.estimate(w.task, ArchType::GPU),
              db.ground_truth(w.graph, w.task, ArchType::GPU), 1e-15);
}

TEST(HistoryModel, BucketsSharedAcrossSameShapeTasks) {
  // Two tasks, same codelet and footprint: one bucket.
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU});
  const DataId d0 = g.add_data(64);
  const DataId d1 = g.add_data(64);
  SubmitOptions o;
  o.flops = 1e6;
  const TaskId t0 = g.submit(cl, {Access{d0, AccessMode::ReadWrite}}, o);
  const TaskId t1 = g.submit(cl, {Access{d1, AccessMode::ReadWrite}}, o);
  PerfDatabase db = test::flat_perf();
  HistoryModel hm(g, db);
  hm.record(t0, ArchType::CPU, 0.25);
  EXPECT_TRUE(hm.is_calibrated(t1, ArchType::CPU));
  EXPECT_NEAR(hm.estimate(t1, ArchType::CPU), 0.25, 1e-15);
}

TEST(HistoryModel, DifferentFootprintsSeparateBuckets) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU});
  const DataId d0 = g.add_data(64);
  const DataId d1 = g.add_data(128);
  const TaskId t0 = g.submit(cl, {Access{d0, AccessMode::ReadWrite}});
  const TaskId t1 = g.submit(cl, {Access{d1, AccessMode::ReadWrite}});
  PerfDatabase db = test::flat_perf();
  HistoryModel hm(g, db);
  hm.record(t0, ArchType::CPU, 0.25);
  EXPECT_TRUE(hm.is_calibrated(t0, ArchType::CPU));
  EXPECT_FALSE(hm.is_calibrated(t1, ArchType::CPU));
}

TEST(HistoryModel, BucketsWhoseMixedHashesCollideKeepSeparateMeans) {
  // Buckets were once keyed by h = ((codelet·K + arch)·K + footprint) mod
  // 2⁶⁴ with K = 0x9e3779b97f4a7c15. Moving one step down in arch index and
  // K up in footprint leaves that hash unchanged, so (codelet 0, GPU, 64)
  // and (codelet 0, CPU, 64 + K) used to share one running mean.
  constexpr std::uint64_t kMix = 0x9e3779b97f4a7c15ULL;
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU, ArchType::GPU});
  const DataId small = g.add_data(64);
  const DataId huge = g.add_data(static_cast<std::size_t>(64 + kMix));
  const TaskId a = g.submit(cl, {Access{small, AccessMode::ReadWrite}});
  const TaskId b = g.submit(cl, {Access{huge, AccessMode::ReadWrite}});
  ASSERT_EQ(g.task(b).footprint_bytes - g.task(a).footprint_bytes, kMix);
  PerfDatabase db = test::flat_perf();
  HistoryModel hm(g, db);
  hm.record(a, ArchType::GPU, 0.25);
  EXPECT_TRUE(hm.is_calibrated(a, ArchType::GPU));
  EXPECT_FALSE(hm.is_calibrated(b, ArchType::CPU));
  hm.record(b, ArchType::CPU, 4.0);
  EXPECT_DOUBLE_EQ(hm.estimate(a, ArchType::GPU), 0.25);
  EXPECT_DOUBLE_EQ(hm.estimate(b, ArchType::CPU), 4.0);
}

TEST(HistoryModel, ResolvedSlotsStayValidAsNewBucketsResolve) {
  // t0's slot resolves on the first query; later tasks resolve theirs (and
  // append buckets) afterwards, and t0's slot keeps indexing its bucket.
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU, ArchType::GPU});
  const DataId d0 = g.add_data(64);
  SubmitOptions o;
  o.flops = 1e6;
  const TaskId t0 = g.submit(cl, {Access{d0, AccessMode::ReadWrite}}, o);
  std::vector<TaskId> later;
  for (int i = 0; i < 100; ++i) {
    const DataId d = g.add_data(i % 2 == 0 ? 64 : 32);
    later.push_back(g.submit(cl, {Access{d, AccessMode::ReadWrite}}, o));
  }
  PerfDatabase db = test::flat_perf();
  HistoryModel hm(g, db);
  const double prior = hm.estimate(t0, ArchType::CPU);
  hm.record(t0, ArchType::CPU, 0.5);
  EXPECT_DOUBLE_EQ(hm.estimate(t0, ArchType::CPU), 0.5);
  EXPECT_DOUBLE_EQ(hm.estimate(later[0], ArchType::CPU), 0.5);  // t0's bucket
  EXPECT_DOUBLE_EQ(hm.estimate(later[1], ArchType::CPU), prior);  // uncalibrated
  EXPECT_FALSE(hm.is_calibrated(later[1], ArchType::CPU));
  hm.record(later[99], ArchType::CPU, 1.5);  // footprint 32: its own bucket
  EXPECT_DOUBLE_EQ(hm.estimate(later[1], ArchType::CPU), 1.5);
  hm.record(t0, ArchType::CPU, 1.5);  // t0's slot still indexes its bucket
  EXPECT_DOUBLE_EQ(hm.estimate(later[98], ArchType::CPU), 1.0);
  EXPECT_FALSE(hm.is_calibrated(t0, ArchType::GPU));
}

TEST(HistoryModelDeath, TaskSubmittedAfterConstructionTripsTheCheck) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU});
  g.submit(cl, {Access{g.add_data(64), AccessMode::ReadWrite}});
  PerfDatabase db = test::flat_perf();
  HistoryModel hm(g, db);
  const TaskId late = g.submit(cl, {Access{g.add_data(64), AccessMode::ReadWrite}});
  EXPECT_DEATH((void)hm.estimate(late, ArchType::CPU),
               "outside the graph the history model was built for");
}

TEST(PerfDatabaseDeath, GroundTruthRequiresImplementation) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("cpu-only", {ArchType::CPU});
  const DataId d = g.add_data(8);
  const TaskId t = g.submit(cl, {Access{d, AccessMode::Read}});
  PerfDatabase db = test::flat_perf();
  EXPECT_DEATH((void)db.ground_truth(g, t, ArchType::GPU), "no implementation");
}

}  // namespace
}  // namespace mp
