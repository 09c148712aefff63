// The unblocked k-j-i loops that the register-blocked tile kernels in
// src/apps/dense/tile_kernels.cpp replaced, kept as the bit-identity oracle
// for tests and as the baseline rows of bench_tile_kernels. Every blocked
// kernel must give each element the same subtract / divide / sqrt sequence,
// in the same order, as the loop here: compile including files with
// -ffp-contract=off, as the kernels are, so no product is fused into an FMA.
#pragma once

#include <cmath>
#include <cstddef>

#include "common/check.hpp"

namespace mp::dense::oracle {

/// Column-major indexing with lda = nb.
[[nodiscard]] inline std::size_t at(std::size_t i, std::size_t j, std::size_t nb) {
  return j * nb + i;
}

inline void potrf(double* a, std::size_t nb) {
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

inline void trsm_rlt(const double* l, double* b, std::size_t nb) {
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

inline void syrk_ln(const double* a, double* c, std::size_t nb) {
  for (std::size_t k = 0; k < nb; ++k) {
    for (std::size_t j = 0; j < nb; ++j) {
      const double ajk = a[at(j, k, nb)];
      for (std::size_t i = j; i < nb; ++i) c[at(i, j, nb)] -= a[at(i, k, nb)] * ajk;
    }
  }
}

inline void gemm_nt(const double* a, const double* b, double* c, std::size_t nb) {
  for (std::size_t k = 0; k < nb; ++k) {
    for (std::size_t j = 0; j < nb; ++j) {
      const double bjk = b[at(j, k, nb)];
      for (std::size_t i = 0; i < nb; ++i) c[at(i, j, nb)] -= a[at(i, k, nb)] * bjk;
    }
  }
}

inline void getrf_nopiv(double* a, std::size_t nb) {
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

inline void trsm_llnu(const double* l, double* b, std::size_t nb) {
  // B := L^{-1}·B, unit lower L: forward substitution per column.
  for (std::size_t j = 0; j < nb; ++j) {
    for (std::size_t k = 0; k < nb; ++k) {
      const double bkj = b[at(k, j, nb)];
      for (std::size_t i = k + 1; i < nb; ++i) b[at(i, j, nb)] -= l[at(i, k, nb)] * bkj;
    }
  }
}

inline void trsm_run(const double* u, double* b, std::size_t nb) {
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

inline void gemm_nn(const double* a, const double* b, double* c, std::size_t nb) {
  for (std::size_t j = 0; j < nb; ++j) {
    for (std::size_t k = 0; k < nb; ++k) {
      const double bkj = b[at(k, j, nb)];
      for (std::size_t i = 0; i < nb; ++i) c[at(i, j, nb)] -= a[at(i, k, nb)] * bkj;
    }
  }
}

}  // namespace mp::dense::oracle
