// Real dense tile kernels (column-major, lda = nb) used by the tiled
// potrf / getrf / geqrf algorithms — the kernel mix of the paper's
// Chameleon workloads.
//
// The Cholesky and LU kernels are register-blocked: one update C −= A·Bᵀ
// keeps a 2W × 6 tile of C in vector registers (W doubles per vector) and
// runs k in ascending order. Their contract is bit-identical output: every
// element gets the same sequence of subtract, divide and sqrt operations,
// in the same order, as in the unblocked k-j-i loop it replaced (the test
// oracle, tests/tile_kernels_oracle.hpp), and the source is compiled with
// -ffp-contract=off so no variant fuses into an FMA. A tiled factorization
// therefore gives the same bytes whichever variant or schedule runs it.
//
// Each kernel is compiled for W = 2 (any ISA) and, on x86-64, for W = 4
// under AVX2 and W = 8 under AVX-512F. The functions below call the widest
// variant the host supports, chosen once per process; the build passes no
// -march flag. The QR kernels keep their unblocked loops: their
// dot-then-axpy Householder order cannot be blocked without changing
// results.
#pragma once

#include <cstddef>

namespace mp::dense {

// --- Cholesky (lower) -------------------------------------------------------

/// A := chol(A) in the lower triangle. Aborts on a non-positive pivot.
void potrf(double* a, std::size_t nb);

/// B := B · L^{-T}  (right solve, L lower from potrf).
void trsm_rlt(const double* l, double* b, std::size_t nb);

/// C := C − A·Aᵀ, updating the lower triangle only (symmetric rank-nb).
void syrk_ln(const double* a, double* c, std::size_t nb);

/// C := C − A·Bᵀ.
void gemm_nt(const double* a, const double* b, double* c, std::size_t nb);

// --- LU without pivoting ----------------------------------------------------

/// A := L\U (unit lower L, upper U, in place). Aborts on a zero pivot.
void getrf_nopiv(double* a, std::size_t nb);

/// B := L^{-1}·B (left solve, unit lower L from getrf).
void trsm_llnu(const double* l, double* b, std::size_t nb);

/// B := B·U^{-1} (right solve, upper U from getrf).
void trsm_run(const double* u, double* b, std::size_t nb);

/// C := C − A·B.
void gemm_nn(const double* a, const double* b, double* c, std::size_t nb);

// --- Tiled QR (Householder, PLASMA-style kernel set) ------------------------

/// QR of one tile: R in the upper triangle, Householder vectors V below the
/// diagonal (unit diagonal implicit), scalar factors in tau[nb].
void geqrt(double* a, double* tau, std::size_t nb);

/// C := Qᵀ·C with Q from geqrt(V in `v` strictly below diag, tau).
void ormqr(const double* v, const double* tau, double* c, std::size_t nb);

/// QR of the stacked [R_top; B] where R_top is upper-triangular: updates the
/// upper triangle of `r_top` in place (its strictly-lower part — which holds
/// earlier geqrt V's in the tiled algorithm — is untouched), leaves the new
/// Householder vectors in `b`, factors in tau[nb].
void tsqrt(double* r_top, double* b, double* tau, std::size_t nb);

/// Applies the tsqrt reflectors to the stacked [C_top; C_bot]:
/// [C_top; C_bot] := Qᵀ·[C_top; C_bot], with V = [I; v_bot].
void tsmqr(double* c_top, double* c_bot, const double* v_bot, const double* tau,
           std::size_t nb);

// --- flop counts (drive both sim timing and GFlop/s accounting) -------------

[[nodiscard]] double flops_potrf(std::size_t nb);
[[nodiscard]] double flops_trsm(std::size_t nb);
[[nodiscard]] double flops_syrk(std::size_t nb);
[[nodiscard]] double flops_gemm(std::size_t nb);
[[nodiscard]] double flops_getrf(std::size_t nb);
[[nodiscard]] double flops_geqrt(std::size_t nb);
[[nodiscard]] double flops_ormqr(std::size_t nb);
[[nodiscard]] double flops_tsqrt(std::size_t nb);
[[nodiscard]] double flops_tsmqr(std::size_t nb);

}  // namespace mp::dense
