// Numerical validation of the dense tile kernels against full-matrix
// references, flop-count sanity, and the bit-identity contract: every
// instruction-set variant of the blocked kernels, and a threaded Cholesky
// under any schedule, reproduce the unblocked loops byte for byte.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "apps/dense/dense_builders.hpp"
#include "apps/dense/reference.hpp"
#include "apps/dense/tile_kernel_variants.hpp"
#include "apps/dense/tile_kernels.hpp"
#include "apps/dense/tile_matrix.hpp"
#include "common/rng.hpp"
#include "exec/thread_executor.hpp"
#include "sched/schedulers.hpp"
#include "test_util.hpp"
#include "tile_kernels_oracle.hpp"

namespace mp::dense {
namespace {

std::vector<double> random_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> a(n * n);
  for (double& v : a) v = rng.next_real(-1.0, 1.0);
  return a;
}

std::vector<double> random_spd(std::size_t n, std::uint64_t seed) {
  std::vector<double> a = random_matrix(n, seed);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      const double s = 0.5 * (a[j * n + i] + a[i * n + j]);
      a[j * n + i] = s;
      a[i * n + j] = s;
    }
    a[j * n + j] += static_cast<double>(n);
  }
  return a;
}

constexpr std::size_t kNb = 24;

TEST(TileKernels, PotrfReconstructs) {
  std::vector<double> a = random_spd(kNb, 1);
  const std::vector<double> orig = a;
  potrf(a.data(), kNb);
  const auto l = ref::lower(a, kNb, false);
  const auto llt = ref::matmul_nt(l, l, kNb);
  // Compare only the lower triangle (potrf leaves the upper part untouched).
  double err = 0.0;
  for (std::size_t j = 0; j < kNb; ++j)
    for (std::size_t i = j; i < kNb; ++i)
      err = std::max(err, std::abs(llt[j * kNb + i] - orig[j * kNb + i]));
  EXPECT_LT(err, 1e-10);
}

TEST(TileKernels, PotrfMatchesReference) {
  std::vector<double> a = random_spd(kNb, 2);
  std::vector<double> b = a;
  potrf(a.data(), kNb);
  ref::cholesky(b, kNb);
  double err = 0.0;
  for (std::size_t j = 0; j < kNb; ++j)
    for (std::size_t i = j; i < kNb; ++i)
      err = std::max(err, std::abs(a[j * kNb + i] - b[j * kNb + i]));
  EXPECT_LT(err, 1e-12);
}

TEST(TileKernelsDeath, PotrfRejectsIndefinite) {
  std::vector<double> a(kNb * kNb, 0.0);
  a[0] = -1.0;
  EXPECT_DEATH(potrf(a.data(), kNb), "positive definite");
}

TEST(TileKernels, TrsmRltSolves) {
  // X = B·L^{-T}  ⇔  X·Lᵀ = B.
  std::vector<double> spd = random_spd(kNb, 3);
  ref::cholesky(spd, kNb);
  const auto l = ref::lower(spd, kNb, false);
  std::vector<double> b = random_matrix(kNb, 4);
  std::vector<double> x = b;
  trsm_rlt(l.data(), x.data(), kNb);
  // Recompute X·Lᵀ: (X·Lᵀ)_{ij} = Σ_k X_{ik}·L_{jk}.
  const auto xlt = ref::matmul_nt(x, l, kNb);
  EXPECT_LT(ref::fro_diff(xlt, b) / ref::fro_norm(b), 1e-12);
}

TEST(TileKernels, SyrkUpdatesLowerTriangle) {
  std::vector<double> a = random_matrix(kNb, 5);
  std::vector<double> c = random_spd(kNb, 6);
  std::vector<double> expect = c;
  const auto aat = ref::matmul_nt(a, a, kNb);
  for (std::size_t j = 0; j < kNb; ++j)
    for (std::size_t i = j; i < kNb; ++i) expect[j * kNb + i] -= aat[j * kNb + i];
  syrk_ln(a.data(), c.data(), kNb);
  double err = 0.0;
  for (std::size_t j = 0; j < kNb; ++j)
    for (std::size_t i = j; i < kNb; ++i)
      err = std::max(err, std::abs(c[j * kNb + i] - expect[j * kNb + i]));
  EXPECT_LT(err, 1e-11);
}

TEST(TileKernels, GemmNtMatchesReference) {
  std::vector<double> a = random_matrix(kNb, 7);
  std::vector<double> b = random_matrix(kNb, 8);
  std::vector<double> c = random_matrix(kNb, 9);
  std::vector<double> expect = c;
  const auto abt = ref::matmul_nt(a, b, kNb);
  for (std::size_t i = 0; i < expect.size(); ++i) expect[i] -= abt[i];
  gemm_nt(a.data(), b.data(), c.data(), kNb);
  EXPECT_LT(ref::fro_diff(c, expect), 1e-11);
}

TEST(TileKernels, GemmNnMatchesReference) {
  std::vector<double> a = random_matrix(kNb, 10);
  std::vector<double> b = random_matrix(kNb, 11);
  std::vector<double> c = random_matrix(kNb, 12);
  std::vector<double> expect = c;
  const auto ab = ref::matmul(a, b, kNb);
  for (std::size_t i = 0; i < expect.size(); ++i) expect[i] -= ab[i];
  gemm_nn(a.data(), b.data(), c.data(), kNb);
  EXPECT_LT(ref::fro_diff(c, expect), 1e-11);
}

TEST(TileKernels, GetrfNopivReconstructs) {
  std::vector<double> a = random_matrix(kNb, 13);
  for (std::size_t j = 0; j < kNb; ++j) a[j * kNb + j] += kNb;  // dominance
  const std::vector<double> orig = a;
  getrf_nopiv(a.data(), kNb);
  const auto l = ref::lower(a, kNb, true);
  const auto u = ref::upper(a, kNb);
  const auto lu = ref::matmul(l, u, kNb);
  EXPECT_LT(ref::fro_diff(lu, orig) / ref::fro_norm(orig), 1e-12);
}

TEST(TileKernels, TrsmLlnuSolves) {
  std::vector<double> a = random_matrix(kNb, 14);
  for (std::size_t j = 0; j < kNb; ++j) a[j * kNb + j] += kNb;
  getrf_nopiv(a.data(), kNb);
  const auto l = ref::lower(a, kNb, true);
  std::vector<double> b = random_matrix(kNb, 15);
  std::vector<double> x = b;
  trsm_llnu(l.data(), x.data(), kNb);
  const auto lx = ref::matmul(l, x, kNb);
  EXPECT_LT(ref::fro_diff(lx, b) / ref::fro_norm(b), 1e-12);
}

TEST(TileKernels, TrsmRunSolves) {
  std::vector<double> a = random_matrix(kNb, 16);
  for (std::size_t j = 0; j < kNb; ++j) a[j * kNb + j] += kNb;
  getrf_nopiv(a.data(), kNb);
  const auto u = ref::upper(a, kNb);
  std::vector<double> b = random_matrix(kNb, 17);
  std::vector<double> x = b;
  trsm_run(u.data(), x.data(), kNb);
  const auto xu = ref::matmul(x, u, kNb);
  EXPECT_LT(ref::fro_diff(xu, b) / ref::fro_norm(b), 1e-11);
}

TEST(TileKernels, GeqrtRDiagonalMatchesReference) {
  std::vector<double> a = random_matrix(kNb, 18);
  std::vector<double> b = a;
  std::vector<double> tau(kNb, 0.0);
  geqrt(a.data(), tau.data(), kNb);
  std::vector<double> tau_ref;
  ref::qr(b, tau_ref, kNb);
  // R is unique up to column signs; compare |R|.
  for (std::size_t j = 0; j < kNb; ++j)
    for (std::size_t i = 0; i <= j; ++i)
      EXPECT_NEAR(std::abs(a[j * kNb + i]), std::abs(b[j * kNb + i]), 1e-10);
}

TEST(TileKernels, GeqrtPreservesGram) {
  // QᵀQ = I ⇒ AᵀA = RᵀR.
  std::vector<double> a = random_matrix(kNb, 19);
  const std::vector<double> orig = a;
  std::vector<double> tau(kNb, 0.0);
  geqrt(a.data(), tau.data(), kNb);
  const auto r = ref::upper(a, kNb);
  const auto rtr = ref::matmul_tn(r, r, kNb);
  const auto ata = ref::matmul_tn(orig, orig, kNb);
  EXPECT_LT(ref::fro_diff(rtr, ata) / ref::fro_norm(ata), 1e-11);
}

TEST(TileKernels, OrmqrAppliesQt) {
  // ormqr(V, tau, C) with C = A must give R (Qᵀ·A = R).
  std::vector<double> a = random_matrix(kNb, 20);
  std::vector<double> v = a;
  std::vector<double> tau(kNb, 0.0);
  geqrt(v.data(), tau.data(), kNb);
  std::vector<double> c = a;
  ormqr(v.data(), tau.data(), c.data(), kNb);
  const auto r = ref::upper(v, kNb);
  // Below-diagonal entries of QᵀA must vanish; the rest must equal R.
  for (std::size_t j = 0; j < kNb; ++j) {
    for (std::size_t i = 0; i < kNb; ++i) {
      const double want = i <= j ? r[j * kNb + i] : 0.0;
      EXPECT_NEAR(c[j * kNb + i], want, 1e-10);
    }
  }
}

TEST(TileKernels, TsqrtPreservesStackedGram) {
  // QR of [R0; B]: R1ᵀR1 must equal R0ᵀR0 + BᵀB.
  std::vector<double> top = random_matrix(kNb, 21);
  std::vector<double> tau0(kNb, 0.0);
  geqrt(top.data(), tau0.data(), kNb);       // make top = V0 + R0
  const auto r0 = ref::upper(top, kNb);
  std::vector<double> b = random_matrix(kNb, 22);
  const std::vector<double> b_orig = b;
  std::vector<double> tau1(kNb, 0.0);
  std::vector<double> top_before = top;
  tsqrt(top.data(), b.data(), tau1.data(), kNb);
  const auto r1 = ref::upper(top, kNb);
  const auto lhs = ref::matmul_tn(r1, r1, kNb);
  auto rhs = ref::matmul_tn(r0, r0, kNb);
  const auto btb = ref::matmul_tn(b_orig, b_orig, kNb);
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] += btb[i];
  EXPECT_LT(ref::fro_diff(lhs, rhs) / ref::fro_norm(rhs), 1e-10);
  // The strictly-lower part of the top tile (V0 storage) must be untouched.
  for (std::size_t j = 0; j < kNb; ++j)
    for (std::size_t i = j + 1; i < kNb; ++i)
      EXPECT_DOUBLE_EQ(top[j * kNb + i], top_before[j * kNb + i]);
}

TEST(TileKernels, TsmqrStackedGramInvariant) {
  const std::size_t nb = 16;
  auto rand_m = [&](std::uint64_t s) { return random_matrix(nb, s); };
  std::vector<double> a0 = rand_m(31);
  std::vector<double> tau0(nb, 0.0);
  geqrt(a0.data(), tau0.data(), nb);
  std::vector<double> a1 = rand_m(32);
  std::vector<double> c_top = rand_m(33);
  std::vector<double> c_bot = rand_m(34);

  // Stacked Gram of [Rtop;A1] vs [Ctop;Cbot] before.
  const auto r_before = ref::upper(a0, nb);
  auto cross_before = ref::matmul_tn(r_before, c_top, nb);
  {
    const auto t = ref::matmul_tn(a1, c_bot, nb);
    for (std::size_t i = 0; i < cross_before.size(); ++i) cross_before[i] += t[i];
  }

  std::vector<double> tau1(nb, 0.0);
  tsqrt(a0.data(), a1.data(), tau1.data(), nb);
  tsmqr(c_top.data(), c_bot.data(), a1.data(), tau1.data(), nb);

  // After: Qᵀ[R;A1] = [R'; 0] (V storage aside), Qᵀ[C] = C'. Gram of the
  // *stacked* transformed pair: R'ᵀ·C_top' + 0ᵀ·C_bot' — the bottom block of
  // the transformed first operand is exactly zero mathematically, so the
  // invariant reads R'ᵀ·C_top' = cross_before.
  const auto r_after = ref::upper(a0, nb);
  const auto cross_after = ref::matmul_tn(r_after, c_top, nb);
  EXPECT_LT(ref::fro_diff(cross_after, cross_before) / (ref::fro_norm(cross_before) + 1e-30),
            1e-9);
}

TEST(TileKernels, FlopCountsScaleCubically) {
  EXPECT_DOUBLE_EQ(flops_gemm(10), 2000.0);
  EXPECT_DOUBLE_EQ(flops_gemm(20) / flops_gemm(10), 8.0);
  EXPECT_GT(flops_tsmqr(10), flops_ormqr(10));
  EXPECT_LT(flops_potrf(10), flops_getrf(10));
  EXPECT_LT(flops_getrf(10), flops_geqrt(10));
}

// --- bit identity with the unblocked loops ---------------------------------

constexpr std::size_t kOracleSizes[] = {1,  2,  3,  5,  7,  8,   15,  16,  17,
                                        23, 24, 31, 33, 64, 100, 191, 192, 193};

/// The operands of one size: random tiles, an SPD and a diagonally dominant
/// tile, and their Cholesky and LU factors computed by the loops.
struct Operands {
  explicit Operands(std::size_t n)
      : nb(n),
        a(random_matrix(n, 100 + n)),
        b(random_matrix(n, 200 + n)),
        c(random_matrix(n, 300 + n)),
        spd(random_spd(n, 400 + n)),
        dominant(random_matrix(n, 500 + n)) {
    for (std::size_t j = 0; j < n; ++j) dominant[j * n + j] += static_cast<double>(n);
    chol = spd;
    oracle::potrf(chol.data(), n);
    lu = dominant;
    oracle::getrf_nopiv(lu.data(), n);
  }
  std::size_t nb;
  std::vector<double> a, b, c, spd, dominant, chol, lu;
};

/// For every size, runs `blocked` and `loop` on copies of the tile that
/// `output` picks and expects the same bytes.
template <class Output, class Blocked, class Loop>
void expect_bit_identical(Output output, Blocked blocked, Loop loop) {
  for (const std::size_t nb : kOracleSizes) {
    SCOPED_TRACE("nb = " + std::to_string(nb));
    const Operands ops(nb);
    std::vector<double> want = output(ops);
    std::vector<double> got = want;
    loop(ops, want.data());
    blocked(ops, got.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
  }
}

/// Parameterized by variant name; skips a variant this binary or host lacks.
class TileKernelVariants : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    for (const detail::TileKernelVariant& v : detail::tile_kernel_variants())
      if (std::strcmp(v.name, GetParam()) == 0) variant_ = &v;
    if (variant_ == nullptr || !variant_->supported)
      GTEST_SKIP() << GetParam() << " kernels are not available on this host";
  }
  const detail::TileKernelVariant* variant_ = nullptr;
};

TEST_P(TileKernelVariants, PotrfMatchesLoopBitForBit) {
  const auto* v = variant_;
  expect_bit_identical([](const Operands& o) { return o.spd; },
                       [v](const Operands& o, double* x) { v->potrf(x, o.nb); },
                       [](const Operands& o, double* x) { oracle::potrf(x, o.nb); });
}

TEST_P(TileKernelVariants, TrsmRltMatchesLoopBitForBit) {
  const auto* v = variant_;
  expect_bit_identical(
      [](const Operands& o) { return o.b; },
      [v](const Operands& o, double* x) { v->trsm_rlt(o.chol.data(), x, o.nb); },
      [](const Operands& o, double* x) { oracle::trsm_rlt(o.chol.data(), x, o.nb); });
}

TEST_P(TileKernelVariants, SyrkLnMatchesLoopBitForBit) {
  const auto* v = variant_;
  expect_bit_identical(
      [](const Operands& o) { return o.c; },
      [v](const Operands& o, double* x) { v->syrk_ln(o.a.data(), x, o.nb); },
      [](const Operands& o, double* x) { oracle::syrk_ln(o.a.data(), x, o.nb); });
}

TEST_P(TileKernelVariants, GemmNtMatchesLoopBitForBit) {
  const auto* v = variant_;
  expect_bit_identical(
      [](const Operands& o) { return o.c; },
      [v](const Operands& o, double* x) { v->gemm_nt(o.a.data(), o.b.data(), x, o.nb); },
      [](const Operands& o, double* x) { oracle::gemm_nt(o.a.data(), o.b.data(), x, o.nb); });
}

TEST_P(TileKernelVariants, GetrfNopivMatchesLoopBitForBit) {
  const auto* v = variant_;
  expect_bit_identical([](const Operands& o) { return o.dominant; },
                       [v](const Operands& o, double* x) { v->getrf_nopiv(x, o.nb); },
                       [](const Operands& o, double* x) { oracle::getrf_nopiv(x, o.nb); });
}

TEST_P(TileKernelVariants, TrsmLlnuMatchesLoopBitForBit) {
  const auto* v = variant_;
  expect_bit_identical(
      [](const Operands& o) { return o.b; },
      [v](const Operands& o, double* x) { v->trsm_llnu(o.lu.data(), x, o.nb); },
      [](const Operands& o, double* x) { oracle::trsm_llnu(o.lu.data(), x, o.nb); });
}

TEST_P(TileKernelVariants, TrsmRunMatchesLoopBitForBit) {
  const auto* v = variant_;
  expect_bit_identical(
      [](const Operands& o) { return o.b; },
      [v](const Operands& o, double* x) { v->trsm_run(o.lu.data(), x, o.nb); },
      [](const Operands& o, double* x) { oracle::trsm_run(o.lu.data(), x, o.nb); });
}

TEST_P(TileKernelVariants, GemmNnMatchesLoopBitForBit) {
  const auto* v = variant_;
  expect_bit_identical(
      [](const Operands& o) { return o.c; },
      [v](const Operands& o, double* x) { v->gemm_nn(o.a.data(), o.b.data(), x, o.nb); },
      [](const Operands& o, double* x) { oracle::gemm_nn(o.a.data(), o.b.data(), x, o.nb); });
}

class TileKernelVariantsDeath : public TileKernelVariants {};

TEST_P(TileKernelVariantsDeath, PotrfRejectsIndefinite) {
  std::vector<double> a(kNb * kNb, 0.0);
  a[0] = -1.0;
  EXPECT_DEATH(variant_->potrf(a.data(), kNb), "positive definite");
}

TEST_P(TileKernelVariantsDeath, PotrfRejectsALaterNonPositivePivot) {
  // The identity with one negative entry: the blocked kernel reaches the bad
  // pivot only in its third column block.
  std::vector<double> a(kNb * kNb, 0.0);
  for (std::size_t j = 0; j < kNb; ++j) a[j * kNb + j] = 1.0;
  a[13 * kNb + 13] = -1.0;
  EXPECT_DEATH(variant_->potrf(a.data(), kNb), "positive definite");
}

TEST_P(TileKernelVariantsDeath, GetrfNopivRejectsAZeroPivot) {
  std::vector<double> a(kNb * kNb, 0.0);
  for (std::size_t j = 0; j < kNb; ++j) a[j * kNb + j] = 1.0;
  a[13 * kNb + 13] = 0.0;
  EXPECT_DEATH(variant_->getrf_nopiv(a.data(), kNb), "zero pivot");
}

const auto kVariantNames = ::testing::Values("generic", "avx2", "avx512f");
const auto kVariantLabel = [](const ::testing::TestParamInfo<const char*>& info) {
  return std::string(info.param);
};
INSTANTIATE_TEST_SUITE_P(Isa, TileKernelVariants, kVariantNames, kVariantLabel);
INSTANTIATE_TEST_SUITE_P(Isa, TileKernelVariantsDeath, kVariantNames, kVariantLabel);

TEST(TileKernelVariantTable, GenericIsAlwaysThereAndTheActiveVariantIsSupported) {
  const auto all = detail::tile_kernel_variants();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all.front().name, "generic");
  EXPECT_TRUE(all.front().supported);
  EXPECT_TRUE(detail::active_tile_kernels().supported);
  for (const detail::TileKernelVariant& v : all) {
    if (v.supported) {
      EXPECT_LE(v.width, detail::active_tile_kernels().width);
    }
  }
}

TEST(TileKernelsThreaded, CholeskyFactorIsByteEqualToTheLoopsInSubmissionOrder) {
  // STF fixes the order of the updates applied to each tile, so no schedule
  // can change the bytes of the factor.
  constexpr std::size_t kTiles = 6;
  constexpr std::size_t kTileNb = 50;
  TileMatrix got(kTiles, kTileNb, /*allocate=*/true);
  TileMatrix want(kTiles, kTileNb, /*allocate=*/true);
  got.fill_spd(77);
  want.fill_spd(77);

  TaskGraph g;
  got.register_handles(g);
  build_potrf(g, got, /*expert_priorities=*/true);
  Platform p = test::small_platform(4, 0);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  const ExecResult r = exec.run(
      scheduler_factory("multiprio"));
  ASSERT_EQ(r.tasks_executed, g.num_tasks());

  // The tasks of build_potrf, in the order it submits them.
  for (std::size_t k = 0; k < kTiles; ++k) {
    oracle::potrf(want.tile(k, k), kTileNb);
    for (std::size_t i = k + 1; i < kTiles; ++i)
      oracle::trsm_rlt(want.tile(k, k), want.tile(i, k), kTileNb);
    for (std::size_t i = k + 1; i < kTiles; ++i) {
      oracle::syrk_ln(want.tile(i, k), want.tile(i, i), kTileNb);
      for (std::size_t j = k + 1; j < i; ++j)
        oracle::gemm_nt(want.tile(i, k), want.tile(j, k), want.tile(i, j), kTileNb);
    }
  }
  const std::vector<double> got_full = got.to_full();
  const std::vector<double> want_full = want.to_full();
  EXPECT_EQ(std::memcmp(got_full.data(), want_full.data(), got_full.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace mp::dense
