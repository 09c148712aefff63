#include "apps/dense/tile_kernels.hpp"

#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace mp::dense {

// Every tile kernel starts on a 64-byte boundary, so its inner loops sit at a
// fixed offset from a cache-line start whatever code the linker places ahead
// of it. Left to chance, a 48-byte shift of gemm_nt's inner loop across a
// line boundary alone slowed exec-potrf-coarse by about 15% on a 4-vCPU Xeon
// host, with the kernel's machine code unchanged.
#define MP_TILE_KERNEL [[gnu::aligned(64)]]

namespace {
/// Column-major indexing with lda = nb.
[[nodiscard]] inline std::size_t at(std::size_t i, std::size_t j, std::size_t nb) {
  return j * nb + i;
}
}  // namespace

MP_TILE_KERNEL void potrf(double* a, std::size_t nb) {
  for (std::size_t k = 0; k < nb; ++k) {
    double pivot = a[at(k, k, nb)];
    MP_CHECK_MSG(pivot > 0.0, "potrf: matrix not positive definite");
    pivot = std::sqrt(pivot);
    a[at(k, k, nb)] = pivot;
    for (std::size_t i = k + 1; i < nb; ++i) a[at(i, k, nb)] /= pivot;
    for (std::size_t j = k + 1; j < nb; ++j) {
      const double ljk = a[at(j, k, nb)];
      for (std::size_t i = j; i < nb; ++i) a[at(i, j, nb)] -= a[at(i, k, nb)] * ljk;
    }
  }
}

MP_TILE_KERNEL void trsm_rlt(const double* l, double* b, std::size_t nb) {
  // B := B · L^{-T}: column j of the result uses columns 0..j of L.
  for (std::size_t j = 0; j < nb; ++j) {
    const double d = l[at(j, j, nb)];
    for (std::size_t i = 0; i < nb; ++i) b[at(i, j, nb)] /= d;
    for (std::size_t k = j + 1; k < nb; ++k) {
      const double lkj = l[at(k, j, nb)];
      for (std::size_t i = 0; i < nb; ++i) b[at(i, k, nb)] -= b[at(i, j, nb)] * lkj;
    }
  }
}

MP_TILE_KERNEL void syrk_ln(const double* a, double* c, std::size_t nb) {
  for (std::size_t k = 0; k < nb; ++k) {
    for (std::size_t j = 0; j < nb; ++j) {
      const double ajk = a[at(j, k, nb)];
      for (std::size_t i = j; i < nb; ++i) c[at(i, j, nb)] -= a[at(i, k, nb)] * ajk;
    }
  }
}

MP_TILE_KERNEL void gemm_nt(const double* a, const double* b, double* c, std::size_t nb) {
  for (std::size_t k = 0; k < nb; ++k) {
    for (std::size_t j = 0; j < nb; ++j) {
      const double bjk = b[at(j, k, nb)];
      for (std::size_t i = 0; i < nb; ++i) c[at(i, j, nb)] -= a[at(i, k, nb)] * bjk;
    }
  }
}

MP_TILE_KERNEL void getrf_nopiv(double* a, std::size_t nb) {
  for (std::size_t k = 0; k < nb; ++k) {
    const double pivot = a[at(k, k, nb)];
    MP_CHECK_MSG(pivot != 0.0, "getrf_nopiv: zero pivot");
    for (std::size_t i = k + 1; i < nb; ++i) a[at(i, k, nb)] /= pivot;
    for (std::size_t j = k + 1; j < nb; ++j) {
      const double akj = a[at(k, j, nb)];
      for (std::size_t i = k + 1; i < nb; ++i) a[at(i, j, nb)] -= a[at(i, k, nb)] * akj;
    }
  }
}

MP_TILE_KERNEL void trsm_llnu(const double* l, double* b, std::size_t nb) {
  // B := L^{-1}·B, unit lower L: forward substitution per column.
  for (std::size_t j = 0; j < nb; ++j) {
    for (std::size_t k = 0; k < nb; ++k) {
      const double bkj = b[at(k, j, nb)];
      for (std::size_t i = k + 1; i < nb; ++i) b[at(i, j, nb)] -= l[at(i, k, nb)] * bkj;
    }
  }
}

MP_TILE_KERNEL void trsm_run(const double* u, double* b, std::size_t nb) {
  // B := B·U^{-1}: column j of result depends on previous result columns.
  for (std::size_t j = 0; j < nb; ++j) {
    for (std::size_t k = 0; k < j; ++k) {
      const double ukj = u[at(k, j, nb)];
      for (std::size_t i = 0; i < nb; ++i) b[at(i, j, nb)] -= b[at(i, k, nb)] * ukj;
    }
    const double d = u[at(j, j, nb)];
    MP_CHECK_MSG(d != 0.0, "trsm_run: singular U");
    for (std::size_t i = 0; i < nb; ++i) b[at(i, j, nb)] /= d;
  }
}

MP_TILE_KERNEL void gemm_nn(const double* a, const double* b, double* c, std::size_t nb) {
  for (std::size_t j = 0; j < nb; ++j) {
    for (std::size_t k = 0; k < nb; ++k) {
      const double bkj = b[at(k, j, nb)];
      for (std::size_t i = 0; i < nb; ++i) c[at(i, j, nb)] -= a[at(i, k, nb)] * bkj;
    }
  }
}

namespace {
/// Householder generation for x = [alpha; tail] (tail length m−1): returns
/// tau and overwrites alpha with beta, tail with v (unit head implicit).
double house(double& alpha, double* tail, std::size_t m_minus_1) {
  double xnorm2 = 0.0;
  for (std::size_t i = 0; i < m_minus_1; ++i) xnorm2 += tail[i] * tail[i];
  if (xnorm2 == 0.0) return 0.0;  // already eliminated
  const double beta = -std::copysign(std::sqrt(alpha * alpha + xnorm2), alpha);
  const double tau = (beta - alpha) / beta;
  const double scale = 1.0 / (alpha - beta);
  for (std::size_t i = 0; i < m_minus_1; ++i) tail[i] *= scale;
  alpha = beta;
  return tau;
}
}  // namespace

MP_TILE_KERNEL void geqrt(double* a, double* tau, std::size_t nb) {
  for (std::size_t k = 0; k < nb; ++k) {
    tau[k] = house(a[at(k, k, nb)], &a[at(k + 1, k, nb)], nb - k - 1);
    if (tau[k] == 0.0) continue;
    // Apply (I − tau·v·vᵀ) to the trailing columns; v = [1; a(k+1:,k)].
    for (std::size_t j = k + 1; j < nb; ++j) {
      double w = a[at(k, j, nb)];
      for (std::size_t i = k + 1; i < nb; ++i) w += a[at(i, k, nb)] * a[at(i, j, nb)];
      w *= tau[k];
      a[at(k, j, nb)] -= w;
      for (std::size_t i = k + 1; i < nb; ++i) a[at(i, j, nb)] -= a[at(i, k, nb)] * w;
    }
  }
}

MP_TILE_KERNEL void ormqr(const double* v, const double* tau, double* c, std::size_t nb) {
  // C := Qᵀ·C = H_{nb−1}···H_0·C applied in order k = 0..nb−1.
  for (std::size_t k = 0; k < nb; ++k) {
    if (tau[k] == 0.0) continue;
    for (std::size_t j = 0; j < nb; ++j) {
      double w = c[at(k, j, nb)];
      for (std::size_t i = k + 1; i < nb; ++i) w += v[at(i, k, nb)] * c[at(i, j, nb)];
      w *= tau[k];
      c[at(k, j, nb)] -= w;
      for (std::size_t i = k + 1; i < nb; ++i) c[at(i, j, nb)] -= v[at(i, k, nb)] * w;
    }
  }
}

MP_TILE_KERNEL void tsqrt(double* r_top, double* b, double* tau, std::size_t nb) {
  // Stacked QR of [R; B] with R upper-triangular. The reflector of column k
  // is v = [e_k; b(:,k)]: rows k+1..nb−1 of the top block stay zero, so only
  // the diagonal entry of R and the whole of B participate.
  for (std::size_t k = 0; k < nb; ++k) {
    tau[k] = house(r_top[at(k, k, nb)], &b[at(0, k, nb)], nb);
    if (tau[k] == 0.0) continue;
    for (std::size_t j = k + 1; j < nb; ++j) {
      double w = r_top[at(k, j, nb)];
      for (std::size_t i = 0; i < nb; ++i) w += b[at(i, k, nb)] * b[at(i, j, nb)];
      w *= tau[k];
      r_top[at(k, j, nb)] -= w;
      for (std::size_t i = 0; i < nb; ++i) b[at(i, j, nb)] -= b[at(i, k, nb)] * w;
    }
  }
}

void tsmqr(double* c_top, double* c_bot, const double* v_bot, const double* tau,
           std::size_t nb) {
  for (std::size_t k = 0; k < nb; ++k) {
    if (tau[k] == 0.0) continue;
    for (std::size_t j = 0; j < nb; ++j) {
      double w = c_top[at(k, j, nb)];
      for (std::size_t i = 0; i < nb; ++i) w += v_bot[at(i, k, nb)] * c_bot[at(i, j, nb)];
      w *= tau[k];
      c_top[at(k, j, nb)] -= w;
      for (std::size_t i = 0; i < nb; ++i) c_bot[at(i, j, nb)] -= v_bot[at(i, k, nb)] * w;
    }
  }
}

namespace {
[[nodiscard]] double cb(std::size_t nb) {
  const double n = static_cast<double>(nb);
  return n * n * n;
}
}  // namespace

double flops_potrf(std::size_t nb) { return cb(nb) / 3.0; }
double flops_trsm(std::size_t nb) { return cb(nb); }
double flops_syrk(std::size_t nb) { return cb(nb); }
double flops_gemm(std::size_t nb) { return 2.0 * cb(nb); }
double flops_getrf(std::size_t nb) { return 2.0 * cb(nb) / 3.0; }
double flops_geqrt(std::size_t nb) { return 4.0 * cb(nb) / 3.0; }
double flops_ormqr(std::size_t nb) { return 2.0 * cb(nb); }
double flops_tsqrt(std::size_t nb) { return 2.0 * cb(nb); }
double flops_tsmqr(std::size_t nb) { return 4.0 * cb(nb); }

}  // namespace mp::dense
