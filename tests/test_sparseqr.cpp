// Sparse QR: CSC utilities, column elimination tree vs brute force,
// post-order, front amalgamation invariants, generators, and DAG execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

#include "apps/sparseqr/dag_builder.hpp"
#include "common/rng.hpp"
#include "apps/sparseqr/generators.hpp"
#include "apps/sparseqr/symbolic.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "sqr_symbolic_oracle.hpp"
#include "test_util.hpp"

namespace mp::sqr {
namespace {

SparseMatrix tiny(std::size_t rows, std::size_t cols,
                  std::vector<std::pair<std::uint32_t, std::uint32_t>> coo) {
  return from_coo(rows, cols, std::move(coo));
}

/// Brute-force etree of AᵀA: parent(j) = min{i > j : (AᵀA Cholesky fill)...}
/// computed the simple way — build the symmetric pattern of AᵀA, then run
/// the textbook etree algorithm on it.
std::vector<std::uint32_t> brute_etree(const SparseMatrix& a) {
  const std::size_t n = a.cols;
  // Dense pattern of AᵀA.
  std::vector<std::vector<bool>> ata(n, std::vector<bool>(n, false));
  const SparseMatrix at = a.transposed();
  for (std::size_t r = 0; r < a.rows; ++r) {
    for (std::size_t k1 = at.col_ptr[r]; k1 < at.col_ptr[r + 1]; ++k1)
      for (std::size_t k2 = at.col_ptr[r]; k2 < at.col_ptr[r + 1]; ++k2)
        ata[at.row_idx[k1]][at.row_idx[k2]] = true;
  }
  // Liu's etree on the symmetric pattern.
  constexpr std::uint32_t kNone = 0xffffffffu;
  std::vector<std::uint32_t> parent(n, kNone);
  std::vector<std::uint32_t> ancestor(n, kNone);
  for (std::uint32_t j = 0; j < n; ++j) {
    for (std::uint32_t i = 0; i < j; ++i) {
      if (!ata[i][j]) continue;
      std::uint32_t r = i;
      while (ancestor[r] != kNone && ancestor[r] != j) {
        const std::uint32_t next = ancestor[r];
        ancestor[r] = j;
        r = next;
      }
      if (ancestor[r] == kNone) {
        ancestor[r] = j;
        parent[r] = j;
      }
    }
  }
  for (std::uint32_t j = 0; j < n; ++j)
    if (parent[j] == kNone) parent[j] = j;
  return parent;
}

TEST(SparseMatrix, FromCooSortsAndDedupes) {
  const SparseMatrix m = tiny(4, 3, {{2, 1}, {0, 0}, {2, 1}, {1, 0}, {3, 2}});
  EXPECT_EQ(m.nnz(), 4u);
  m.self_check();
  EXPECT_EQ(m.col_ptr[1] - m.col_ptr[0], 2u);
}

TEST(SparseMatrix, TransposeRoundTrip) {
  const SparseMatrix m = tiny(5, 4, {{0, 0}, {2, 0}, {1, 1}, {4, 2}, {3, 3}, {0, 3}});
  const SparseMatrix tt = m.transposed().transposed();
  EXPECT_EQ(tt.col_ptr, m.col_ptr);
  EXPECT_EQ(tt.row_idx, m.row_idx);
}

TEST(SparseMatrix, LeftmostColPerRow) {
  const SparseMatrix m = tiny(3, 3, {{0, 1}, {1, 0}, {1, 2}, {2, 2}});
  const auto lm = m.leftmost_col_per_row();
  EXPECT_EQ(lm[0], 1u);
  EXPECT_EQ(lm[1], 0u);
  EXPECT_EQ(lm[2], 2u);
}

TEST(ColumnEtree, DenseColumnIsAPath) {
  // A column-dense matrix: AᵀA dense -> etree is the path j -> j+1.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> coo;
  for (std::uint32_t j = 0; j < 5; ++j)
    for (std::uint32_t r = 0; r < 3; ++r) coo.emplace_back(r, j);
  const SparseMatrix m = tiny(3, 5, std::move(coo));
  const auto parent = column_etree(m);
  for (std::uint32_t j = 0; j + 1 < 5; ++j) EXPECT_EQ(parent[j], j + 1);
  EXPECT_EQ(parent[4], 4u);
}

TEST(ColumnEtree, BlockDiagonalGivesForest) {
  // Two independent column blocks -> two trees.
  const SparseMatrix m =
      tiny(4, 4, {{0, 0}, {1, 0}, {1, 1}, {2, 2}, {3, 2}, {3, 3}});
  const auto parent = column_etree(m);
  EXPECT_EQ(parent[0], 1u);
  EXPECT_EQ(parent[1], 1u);  // root of block 1
  EXPECT_EQ(parent[2], 3u);
  EXPECT_EQ(parent[3], 3u);  // root of block 2
}

class EtreeRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EtreeRandom, MatchesBruteForce) {
  Rng rng(GetParam());
  const std::size_t rows = 14 + rng.next_in(0, 10);
  const std::size_t cols = 10 + rng.next_in(0, 8);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> coo;
  for (std::uint32_t j = 0; j < cols; ++j) {
    coo.emplace_back(static_cast<std::uint32_t>(rng.next_in(0, rows - 1)), j);
    for (int e = 0; e < 3; ++e)
      if (rng.next_double() < 0.6)
        coo.emplace_back(static_cast<std::uint32_t>(rng.next_in(0, rows - 1)), j);
  }
  const SparseMatrix m = from_coo(rows, cols, std::move(coo));
  EXPECT_EQ(column_etree(m), brute_etree(m));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EtreeRandom, ::testing::Range<std::uint64_t>(1, 13));

TEST(Postorder, ChildrenBeforeParents) {
  const std::vector<std::uint32_t> parent = {2, 2, 4, 4, 4};
  const auto post = postorder(parent);
  std::vector<std::uint32_t> pos(parent.size());
  for (std::uint32_t i = 0; i < post.size(); ++i) pos[post[i]] = i;
  for (std::uint32_t j = 0; j < parent.size(); ++j) {
    if (parent[j] != j) {
      EXPECT_LT(pos[j], pos[parent[j]]);
    }
  }
}

TEST(Postorder, SubtreesAreContiguous) {
  const std::vector<std::uint32_t> parent = {1, 4, 3, 4, 4};
  const auto post = postorder(parent);
  // node 1's subtree {0,1} must occupy consecutive positions.
  std::vector<std::uint32_t> pos(parent.size());
  for (std::uint32_t i = 0; i < post.size(); ++i) pos[post[i]] = i;
  EXPECT_EQ(pos[1], pos[0] + 1);
}

TEST(Analyze, FrontInvariantsHold) {
  const MatrixSpec spec{"t", 300, 200, 900, 0.0, 10.0, 0.01};
  const SparseMatrix m = generate(spec, 3);
  const SymbolicAnalysis sym = analyze(m, {16});
  // self_check ran inside analyze; verify extra invariants here.
  std::size_t cols_total = 0;
  for (const Front& f : sym.fronts) {
    cols_total += f.k();
    EXPECT_LE(f.k(), 16u);
    for (std::uint32_t b : f.border) EXPECT_GT(b, f.cols.back());
    EXPECT_GE(f.n(), f.k());
  }
  EXPECT_EQ(cols_total, m.cols);
  EXPECT_GT(sym.total_flops, 0.0);
}

TEST(Analyze, SingleDenseBlockGivesOneBigFlopCount) {
  // Denser pattern -> more fill -> more flops than a banded one.
  const MatrixSpec banded{"b", 400, 300, 1200, 0.0, 3.0, 0.0};
  const MatrixSpec wild{"w", 400, 300, 1200, 0.0, 80.0, 0.05};
  const double f_banded = analyze(generate(banded, 1)).total_flops;
  const double f_wild = analyze(generate(wild, 1)).total_flops;
  EXPECT_GT(f_wild, f_banded * 2.0);
}

TEST(Analyze, AmalgamationReducesFrontCount) {
  const MatrixSpec spec{"t", 500, 400, 1600, 0.0, 8.0, 0.005};
  const SparseMatrix m = generate(spec, 5);
  const auto few = analyze(m, {64});
  const auto many = analyze(m, {1});
  EXPECT_LT(few.fronts.size(), many.fronts.size());
  EXPECT_EQ(many.fronts.size(), m.cols);  // no amalgamation: one col each
}

// The one-pass analysis against the per-column oracle, every field equal
// (doubles bit for bit).
struct OracleCase {
  std::string name;
  MatrixSpec spec;
  std::uint64_t seed = 1;
  AnalysisOptions opts;
};

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  // The `_slackN` suffixes name an amalgamation option that no longer
  // exists; they stay so the case names stay stable.
  const std::pair<const char*, AnalysisOptions> options[] = {
      {"cap1_slack4", {1}},
      {"cap16_slack0", {16}},
      {"cap64_slack100", {64}},
      {"default", {}}};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // A random shape per seed (tall or wide before orientation), banded to
    // scattered.
    Rng rng(seed);
    MatrixSpec spec;
    spec.name = "random" + std::to_string(seed);
    spec.rows = 40 + rng.next_in(0, 560);
    spec.cols = 30 + rng.next_in(0, 470);
    spec.nnz = spec.cols * rng.next_in(1, std::min<std::uint64_t>(6, spec.rows - 1));
    spec.band_spread = rng.next_real(1.0, 60.0);
    spec.global_fraction = rng.next_real(0.0, 0.05);
    spec.global_bias = rng.next_double() < 0.5 ? 1.0 : 2.0;
    for (const auto& [label, opts] : options)
      cases.push_back({spec.name + "_" + label, spec, seed, opts});
  }
  for (const MatrixSpec& spec : paper_matrix_specs())
    if (spec.name == "cat_ears_4_4" || spec.name == "flower_7_4" || spec.name == "e18")
      cases.push_back({spec.name, spec, 1, {}});
  return cases;
}

void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class AnalyzeOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(AnalyzeOracle, EveryFieldMatchesThePerColumnAnalysis) {
  const OracleCase& c = GetParam();
  const SparseMatrix m = tall_orientation(generate(c.spec, c.seed));
  const SymbolicAnalysis got = analyze(m, c.opts);
  const SymbolicAnalysis want = oracle::analyze(m, c.opts);
  EXPECT_EQ(got.etree_parent, want.etree_parent);
  EXPECT_EQ(got.post, want.post);
  EXPECT_TRUE(same_bits(got.total_flops, want.total_flops))
      << got.total_flops << " vs " << want.total_flops;
  ASSERT_EQ(got.fronts.size(), want.fronts.size());
  for (std::size_t fi = 0; fi < got.fronts.size(); ++fi) {
    const Front& g = got.fronts[fi];
    const Front& w = want.fronts[fi];
    const bool same = g.cols == w.cols && g.border == w.border && g.m == w.m &&
                      g.children == w.children && g.parent == w.parent &&
                      g.rows_at_pivot == w.rows_at_pivot &&
                      same_bits(g.staircase_flops, w.staircase_flops);
    ASSERT_TRUE(same) << "front " << fi << ": k " << g.k() << " vs " << w.k() << ", border "
                      << g.border.size() << " vs " << w.border.size() << ", m " << g.m
                      << " vs " << w.m;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, AnalyzeOracle, ::testing::ValuesIn(oracle_cases()),
                         [](const ::testing::TestParamInfo<OracleCase>& info) {
                           return info.param.name;
                         });

TEST(Generators, ExactShapeAndNnz) {
  for (const MatrixSpec& spec : paper_matrix_specs()) {
    if (spec.rows > 200000) continue;  // keep unit tests fast; Rucci1 is benched
    const SparseMatrix m = generate(spec, 7);
    EXPECT_EQ(m.rows, spec.rows) << spec.name;
    EXPECT_EQ(m.cols, spec.cols) << spec.name;
    EXPECT_EQ(m.nnz(), spec.nnz) << spec.name;
  }
}

TEST(Generators, Deterministic) {
  const MatrixSpec spec = paper_matrix_specs()[0];
  const SparseMatrix a = generate(spec, 7);
  const SparseMatrix b = generate(spec, 7);
  EXPECT_EQ(a.row_idx, b.row_idx);
  EXPECT_EQ(a.col_ptr, b.col_ptr);
}

TEST(Generators, SpecListMatchesPaperTable) {
  const auto specs = paper_matrix_specs();
  ASSERT_EQ(specs.size(), 10u);
  EXPECT_EQ(specs[0].name, "cat_ears_4_4");
  EXPECT_EQ(specs[4].name, "Rucci1");
  EXPECT_EQ(specs[4].rows, 1977885u);
  EXPECT_EQ(specs[9].name, "mk13-b5");
  // Fig. 7 claims op-count order but itself lists neos2 (31018) before
  // GL7d24 (26825); we keep the published row order, so assert sortedness
  // modulo exactly that documented inversion.
  for (std::size_t i = 1; i < specs.size(); ++i) {
    if (specs[i].name == "GL7d24") continue;
    const double prev = specs[i - 1].name == "neos2" ? specs[i - 2].gflop_target
                                                     : specs[i - 1].gflop_target;
    EXPECT_GT(specs[i].gflop_target, prev) << specs[i].name;
  }
}

TEST(SparseQrDag, BuildsAndRunsUnderAllSchedulers) {
  const MatrixSpec spec{"t", 600, 400, 1800, 0.0, 15.0, 0.01};
  const SparseMatrix m = generate(spec, 11);
  const SymbolicAnalysis sym = analyze(m, {32});
  TaskGraph g;
  const SparseQrStats stats = build_sparseqr(g, sym, {16});
  EXPECT_EQ(stats.tasks, g.num_tasks());
  EXPECT_GT(stats.tasks, sym.fronts.size());  // assembly + panels + updates
  g.self_check();
  Platform p = test::small_platform(3, 1);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  for (const char* name : {"multiprio", "dmdas", "heteroprio", "eager"}) {
    const SimResult r = simulate(g, p, db, scheduler_factory(name));
    EXPECT_EQ(r.tasks_executed, g.num_tasks()) << name;
  }
}

TEST(SparseQrDag, ParentWaitsForChildContribution) {
  // Two-column chain: front(0) child of front(1) with a border — the
  // parent's assembly must depend on the child's trailing panel.
  const SparseMatrix m = tiny(3, 2, {{0, 0}, {1, 0}, {1, 1}, {2, 1}});
  const SymbolicAnalysis sym = analyze(m, {1});
  ASSERT_EQ(sym.fronts.size(), 2u);
  ASSERT_EQ(sym.fronts[0].parent, 1u);
  TaskGraph g;
  (void)build_sparseqr(g, sym, {1});
  // Find the parent's init task; it must have at least one predecessor in
  // the child's tasks.
  bool found_cross_dep = false;
  for (std::size_t i = 0; i < g.num_tasks(); ++i) {
    const Task& t = g.task(TaskId{i});
    if (g.codelet_of(t.id).name == "init_front" && t.iparams[0] == 1) {
      found_cross_dep = !g.predecessors(t.id).empty();
    }
  }
  EXPECT_TRUE(found_cross_dep);
}

TEST(SparseQrDag, FlopsAccumulated) {
  const MatrixSpec spec{"t", 300, 200, 800, 0.0, 10.0, 0.01};
  const SparseMatrix m = generate(spec, 13);
  const SymbolicAnalysis sym = analyze(m, {16});
  TaskGraph g;
  const SparseQrStats stats = build_sparseqr(g, sym, {16});
  EXPECT_GT(stats.flops, 0.0);
  EXPECT_DOUBLE_EQ(stats.flops, g.total_flops());
}

}  // namespace
}  // namespace mp::sqr
