// Reproduces the paper's Table II gain-heuristic example exactly, plus edge
// cases of Eq. 1.
#include <gtest/gtest.h>

#include <array>

#include "core/gain.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

/// gain() of `t` on `a` with δ resolved from the context, as MultiPrio's
/// push resolves it once per task.
double gain_of(GainTracker& gain, const SchedContext& ctx, TaskId t, ArchType a) {
  const ArchMask enabled = enabled_archs(ctx, t);
  std::array<double, kNumArchTypes> delta{};
  for (std::size_t ai = 0; ai < kNumArchTypes; ++ai)
    if (arch_in(enabled, static_cast<ArchType>(ai)))
      delta[ai] = ctx.perf->estimate(t, static_cast<ArchType>(ai));
  return gain.gain(enabled, delta, a);
}

/// Table II setting: three tasks, two architecture types (a1 = CPU,
/// a2 = GPU), δ in milliseconds:
///           t_A    t_B    t_C
///   δ(a1)   1      5      20
///   δ(a2)   20     10     10
class TableTwo : public ::testing::Test {
 protected:
  TableTwo()
      : platform(test::small_platform(1, 1)),
        mc(make_graph(), platform, test::flat_perf()) {}

  const TaskGraph& make_graph() {
    const CodeletId cl = graph.add_codelet("k", {ArchType::CPU, ArchType::GPU});
    // Distinct footprints so each task has its own history bucket.
    for (int i = 0; i < 3; ++i) {
      const DataId d = graph.add_data(100 + static_cast<std::size_t>(i));
      tasks.push_back(graph.submit(cl, {Access{d, AccessMode::ReadWrite}}));
    }
    return graph;
  }

  void seed_deltas() {
    const double cpu[3] = {1e-3, 5e-3, 20e-3};
    const double gpu[3] = {20e-3, 10e-3, 10e-3};
    for (int i = 0; i < 3; ++i) {
      mc.history.record(tasks[i], ArchType::CPU, cpu[i]);
      mc.history.record(tasks[i], ArchType::GPU, gpu[i]);
    }
  }

  TaskGraph graph;
  std::vector<TaskId> tasks;
  Platform platform;
  test::ManualContext mc;
  GainTracker gain;
};

TEST_F(TableTwo, ReproducesPaperValues) {
  seed_deltas();
  SchedContext ctx = mc.ctx();
  // Process t_A first on both archs: establishes hd(a1) = hd(a2) = 19 ms.
  EXPECT_NEAR(gain_of(gain, ctx, tasks[0], ArchType::CPU), 1.0, 1e-12);
  EXPECT_NEAR(gain_of(gain, ctx, tasks[0], ArchType::GPU), 0.0, 1e-12);
  EXPECT_NEAR(gain.hd(ArchType::CPU), 19e-3, 1e-12);
  EXPECT_NEAR(gain.hd(ArchType::GPU), 19e-3, 1e-12);
  // t_B: paper reports 0.631 / 0.368 (exact: 24/38 and 14/38).
  EXPECT_NEAR(gain_of(gain, ctx, tasks[1], ArchType::CPU), 24.0 / 38.0, 1e-12);
  EXPECT_NEAR(gain_of(gain, ctx, tasks[1], ArchType::GPU), 14.0 / 38.0, 1e-12);
  // t_C: paper reports 0.236 / 0.763 (exact: 9/38 and 29/38).
  EXPECT_NEAR(gain_of(gain, ctx, tasks[2], ArchType::CPU), 9.0 / 38.0, 1e-12);
  EXPECT_NEAR(gain_of(gain, ctx, tasks[2], ArchType::GPU), 29.0 / 38.0, 1e-12);
}

TEST_F(TableTwo, PaperRoundedValuesMatch) {
  seed_deltas();
  SchedContext ctx = mc.ctx();
  (void)gain_of(gain, ctx, tasks[0], ArchType::CPU);  // establish hd
  (void)gain_of(gain, ctx, tasks[0], ArchType::GPU);
  EXPECT_NEAR(gain_of(gain, ctx, tasks[1], ArchType::CPU), 0.631, 1e-3);
  EXPECT_NEAR(gain_of(gain, ctx, tasks[1], ArchType::GPU), 0.368, 1e-3);
  EXPECT_NEAR(gain_of(gain, ctx, tasks[2], ArchType::CPU), 0.236, 1e-3);
  EXPECT_NEAR(gain_of(gain, ctx, tasks[2], ArchType::GPU), 0.763, 1e-3);
}

TEST_F(TableTwo, GainOrderingMatchesPaperNarrative) {
  seed_deltas();
  SchedContext ctx = mc.ctx();
  const double a1_a = gain_of(gain, ctx, tasks[0], ArchType::CPU);
  const double a1_b = gain_of(gain, ctx, tasks[1], ArchType::CPU);
  const double a1_c = gain_of(gain, ctx, tasks[2], ArchType::CPU);
  EXPECT_GT(a1_a, a1_b);  // CPU heap: A first, then B, then C
  EXPECT_GT(a1_b, a1_c);
  const double a2_a = gain_of(gain, ctx, tasks[0], ArchType::GPU);
  const double a2_b = gain_of(gain, ctx, tasks[1], ArchType::GPU);
  const double a2_c = gain_of(gain, ctx, tasks[2], ArchType::GPU);
  EXPECT_GT(a2_c, a2_b);  // GPU heap: C first, then B, then A
  EXPECT_GT(a2_b, a2_a);
}

TEST_F(TableTwo, ScoresStayWithinUnitInterval) {
  seed_deltas();
  SchedContext ctx = mc.ctx();
  for (int i = 0; i < 3; ++i) {
    for (ArchType a : {ArchType::CPU, ArchType::GPU}) {
      const double v = gain_of(gain, ctx, tasks[i], a);
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(Gain, TableTwoFromResolvedDeltas) {
  // The same Table II walk, fed the δ arrays directly.
  const ArchMask both = arch_bit(ArchType::CPU) | arch_bit(ArchType::GPU);
  GainTracker gain;
  const std::array<double, kNumArchTypes> a{1e-3, 20e-3};
  const std::array<double, kNumArchTypes> b{5e-3, 10e-3};
  const std::array<double, kNumArchTypes> c{20e-3, 10e-3};
  EXPECT_NEAR(gain.gain(both, a, ArchType::CPU), 1.0, 1e-12);
  EXPECT_NEAR(gain.gain(both, a, ArchType::GPU), 0.0, 1e-12);
  EXPECT_NEAR(gain.gain(both, b, ArchType::CPU), 24.0 / 38.0, 1e-12);
  EXPECT_NEAR(gain.gain(both, b, ArchType::GPU), 14.0 / 38.0, 1e-12);
  EXPECT_NEAR(gain.gain(both, c, ArchType::CPU), 9.0 / 38.0, 1e-12);
  EXPECT_NEAR(gain.gain(both, c, ArchType::GPU), 29.0 / 38.0, 1e-12);
  // Entries outside the enabled set are ignored.
  EXPECT_DOUBLE_EQ(gain.gain(arch_bit(ArchType::CPU), c, ArchType::CPU), 1.0);
}

TEST(Gain, SingleArchTaskScoresOne) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("cpuonly", {ArchType::CPU});
  const DataId d = g.add_data(8);
  const TaskId t = g.submit(cl, {Access{d, AccessMode::Read}});
  Platform p = test::small_platform(2, 1);
  test::ManualContext mc(g, p, test::flat_perf());
  GainTracker gain;
  SchedContext ctx = mc.ctx();
  EXPECT_DOUBLE_EQ(gain_of(gain, ctx, t, ArchType::CPU), 1.0);
}

TEST(Gain, GpuCapableTaskWithoutGpuWorkersScoresOne) {
  // |A| counts *enabled* archs: with no GPU worker, the only runnable arch
  // is the CPU, so the gain must be 1.
  TaskGraph g;
  const CodeletId cl = g.add_codelet("both", {ArchType::CPU, ArchType::GPU});
  const DataId d = g.add_data(8);
  const TaskId t = g.submit(cl, {Access{d, AccessMode::Read}});
  Platform p = test::small_platform(2, 0);
  test::ManualContext mc(g, p, test::flat_perf());
  GainTracker gain;
  SchedContext ctx = mc.ctx();
  EXPECT_DOUBLE_EQ(gain_of(gain, ctx, t, ArchType::CPU), 1.0);
}

TEST(Gain, ZeroContrastGivesNeutralHalf) {
  // Equal δ on both archs -> diff 0, hd 0 -> neutral 0.5.
  TaskGraph g;
  const CodeletId cl = g.add_codelet("both", {ArchType::CPU, ArchType::GPU});
  const DataId d = g.add_data(8);
  const TaskId t = g.submit(cl, {Access{d, AccessMode::Read}});
  Platform p = test::small_platform(1, 1);
  test::ManualContext mc(g, p, test::flat_perf(10.0, 10.0));
  mc.history.record(t, ArchType::CPU, 5e-3);
  mc.history.record(t, ArchType::GPU, 5e-3);
  GainTracker gain;
  SchedContext ctx = mc.ctx();
  EXPECT_DOUBLE_EQ(gain_of(gain, ctx, t, ArchType::CPU), 0.5);
}

TEST(Gain, HdIsMonotoneNonDecreasing) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("both", {ArchType::CPU, ArchType::GPU});
  std::vector<TaskId> ts;
  for (int i = 0; i < 3; ++i) {
    const DataId d = g.add_data(50 + static_cast<std::size_t>(i));
    ts.push_back(g.submit(cl, {Access{d, AccessMode::Read}}));
  }
  Platform p = test::small_platform(1, 1);
  test::ManualContext mc(g, p, test::flat_perf());
  // Increasing contrast: 1 ms, then 10 ms, then 2 ms (hd must stay 10).
  const double cpu[3] = {2e-3, 12e-3, 4e-3};
  const double gpu[3] = {1e-3, 2e-3, 2e-3};
  for (int i = 0; i < 3; ++i) {
    mc.history.record(ts[i], ArchType::CPU, cpu[i]);
    mc.history.record(ts[i], ArchType::GPU, gpu[i]);
  }
  GainTracker gain;
  SchedContext ctx = mc.ctx();
  (void)gain_of(gain, ctx, ts[0], ArchType::CPU);
  const double hd0 = gain.hd(ArchType::CPU);
  (void)gain_of(gain, ctx, ts[1], ArchType::CPU);
  const double hd1 = gain.hd(ArchType::CPU);
  (void)gain_of(gain, ctx, ts[2], ArchType::CPU);
  const double hd2 = gain.hd(ArchType::CPU);
  EXPECT_LE(hd0, hd1);
  EXPECT_DOUBLE_EQ(hd1, hd2);  // smaller contrast does not shrink hd
  EXPECT_NEAR(hd1, 10e-3, 1e-12);
}

}  // namespace
}  // namespace mp
