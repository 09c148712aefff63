// FMM: Morton codes, octree structure, interaction-list completeness,
// kernel accuracy vs direct summation, DAG construction, and full real
// execution under several schedulers.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "apps/fmm/dag_builder.hpp"
#include "apps/fmm/octree.hpp"
#include "exec/thread_executor.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace mp::fmm {
namespace {

TEST(Morton, EncodeDecodeRoundTrip) {
  for (std::uint32_t x : {0u, 1u, 5u, 31u, 63u}) {
    for (std::uint32_t y : {0u, 2u, 17u, 63u}) {
      for (std::uint32_t z : {0u, 3u, 40u, 63u}) {
        std::uint32_t rx = 0;
        std::uint32_t ry = 0;
        std::uint32_t rz = 0;
        morton_decode(morton_encode(x, y, z), rx, ry, rz);
        EXPECT_EQ(rx, x);
        EXPECT_EQ(ry, y);
        EXPECT_EQ(rz, z);
      }
    }
  }
}

TEST(Morton, ParentIsShiftedChild) {
  const std::uint64_t child = morton_encode(5, 3, 7);
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  std::uint32_t z = 0;
  morton_decode(child >> 3, x, y, z);
  EXPECT_EQ(x, 2u);
  EXPECT_EQ(y, 1u);
  EXPECT_EQ(z, 3u);
}

TEST(Octree, EveryParticleInExactlyOneLeaf) {
  auto parts = uniform_cube(2000, 1);
  Octree tree(std::move(parts), {4, 16, true});
  const auto& leaves = tree.cells(tree.leaf_level());
  std::size_t total = 0;
  for (const auto& c : leaves) {
    EXPECT_LT(c.pbegin, c.pend);
    total += c.pend - c.pbegin;
  }
  EXPECT_EQ(total, 2000u);
}

TEST(Octree, UpperLevelsAreUniqueSortedParents) {
  auto parts = uniform_cube(3000, 2);
  Octree tree(std::move(parts), {5, 16, false});
  for (std::size_t l = 0; l + 1 < tree.height(); ++l) {
    const auto& up = tree.cells(l);
    for (std::size_t i = 1; i < up.size(); ++i)
      EXPECT_LT(up[i - 1].morton, up[i].morton);
    // Every child's parent exists.
    for (const auto& c : tree.cells(l + 1))
      EXPECT_TRUE(tree.find_cell(l, c.morton >> 3).has_value());
  }
  EXPECT_EQ(tree.cells(0).size(), 1u);  // root
}

TEST(Octree, ChildrenRangesCoverNextLevel) {
  auto parts = clustered_sphere(3000, 3);
  Octree tree(std::move(parts), {5, 16, false});
  for (std::size_t l = 0; l + 1 < tree.height(); ++l) {
    std::size_t covered = 0;
    for (std::size_t c = 0; c < tree.cells(l).size(); ++c) {
      const auto [b, e] = tree.children_of(l, c);
      EXPECT_LE(b, e);
      covered += e - b;
    }
    EXPECT_EQ(covered, tree.cells(l + 1).size());
  }
}

TEST(Octree, InteractionListsAreWellSeparated) {
  auto parts = uniform_cube(4000, 4);
  Octree tree(std::move(parts), {4, 16, false});
  for (std::size_t l = 2; l < tree.height(); ++l) {
    for (std::size_t c = 0; c < tree.cells(l).size(); ++c) {
      std::uint32_t cx = 0;
      std::uint32_t cy = 0;
      std::uint32_t cz = 0;
      morton_decode(tree.cells(l)[c].morton, cx, cy, cz);
      for (std::uint32_t s : tree.m2l_list(l, c)) {
        std::uint32_t sx = 0;
        std::uint32_t sy = 0;
        std::uint32_t sz = 0;
        morton_decode(tree.cells(l)[s].morton, sx, sy, sz);
        const auto dx = std::abs(static_cast<int>(cx) - static_cast<int>(sx));
        const auto dy = std::abs(static_cast<int>(cy) - static_cast<int>(sy));
        const auto dz = std::abs(static_cast<int>(cz) - static_cast<int>(sz));
        EXPECT_GT(std::max({dx, dy, dz}), 1);  // not adjacent
        EXPECT_LE(std::max({dx, dy, dz}), 3);  // parent was adjacent
      }
    }
  }
}

TEST(Octree, P2PListsSymmetricOnce) {
  auto parts = uniform_cube(3000, 5);
  Octree tree(std::move(parts), {4, 16, false});
  const std::size_t leaf = tree.leaf_level();
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (std::size_t c = 0; c < tree.cells(leaf).size(); ++c) {
    for (std::uint32_t n : tree.p2p_list(c)) {
      EXPECT_GT(n, c);  // each unordered pair appears once
      EXPECT_TRUE(seen.insert({static_cast<std::uint32_t>(c), n}).second);
    }
  }
}

TEST(FmmAccuracy, SerialFmmMatchesDirectSummation) {
  auto parts = uniform_cube(1500, 6);
  const auto direct = direct_potentials(parts);
  Octree tree(parts, {4, 8, true});
  run_fmm_serial(tree);
  const auto fmm = tree.potentials_original_order();
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < direct.size(); ++i) {
    num += (fmm[i] - direct[i]) * (fmm[i] - direct[i]);
    den += direct[i] * direct[i];
  }
  EXPECT_LT(std::sqrt(num / den), 5e-3);  // order-2 multipole accuracy
}

TEST(FmmAccuracy, ClusteredDistributionStaysAccurate) {
  auto parts = clustered_sphere(1500, 7);
  const auto direct = direct_potentials(parts);
  Octree tree(parts, {5, 8, true});
  run_fmm_serial(tree);
  const auto fmm = tree.potentials_original_order();
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < direct.size(); ++i) {
    num += (fmm[i] - direct[i]) * (fmm[i] - direct[i]);
    den += direct[i] * direct[i];
  }
  EXPECT_LT(std::sqrt(num / den), 1e-2);  // clustered sets lose ~2× accuracy
}

TEST(FmmDag, BuildsAndCountsTasks) {
  auto parts = uniform_cube(3000, 8);
  Octree tree(std::move(parts), {4, 8, false});
  TaskGraph g;
  const FmmBuildStats stats = build_fmm(g, tree);
  EXPECT_EQ(stats.total(), g.num_tasks());
  EXPECT_EQ(stats.p2m, tree.groups(tree.leaf_level()).size());
  EXPECT_EQ(stats.l2p, tree.groups(tree.leaf_level()).size());
  EXPECT_GT(stats.m2l, 0u);
  EXPECT_GT(stats.p2p, 0u);
  g.self_check();
}

TEST(FmmDag, SimulationCompletesOnHeterogeneousNode) {
  auto parts = clustered_sphere(5000, 9);
  Octree tree(std::move(parts), {5, 16, false});
  TaskGraph g;
  (void)build_fmm(g, tree);
  Platform p = test::small_platform(3, 2);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  for (const char* name : {"multiprio", "dmdas", "heteroprio"}) {
    const SimResult r = simulate(g, p, db, scheduler_factory(name));
    EXPECT_EQ(r.tasks_executed, g.num_tasks()) << name;
  }
}

class FmmRealRun : public ::testing::TestWithParam<std::string> {};

TEST_P(FmmRealRun, TaskBasedMatchesSerial) {
  auto parts = uniform_cube(1200, 10);
  Octree serial_tree(parts, {4, 8, true});
  run_fmm_serial(serial_tree);
  const auto expect = serial_tree.potentials_original_order();

  Octree tree(parts, {4, 8, true});
  TaskGraph g;
  (void)build_fmm(g, tree);
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  const ExecResult r = exec.run(scheduler_factory(GetParam()));
  EXPECT_EQ(r.tasks_executed, g.num_tasks());
  const auto got = tree.potentials_original_order();
  double max_rel = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i)
    max_rel = std::max(max_rel, std::abs(got[i] - expect[i]) /
                                    std::max(1e-12, std::abs(expect[i])));
  EXPECT_LT(max_rel, 1e-11);  // same arithmetic, any valid schedule
}

INSTANTIATE_TEST_SUITE_P(Policies, FmmRealRun,
                         ::testing::Values("multiprio", "dmdas", "heteroprio", "lws"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace mp::fmm
