#include "apps/dense/tile_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "apps/dense/tile_kernel_variants.hpp"
#include "common/check.hpp"

namespace mp::dense {

// Every tile kernel starts on a 64-byte boundary, so its inner loops sit at a
// fixed offset from a cache-line start whatever code the linker places ahead
// of it. Left to chance, a 48-byte shift of gemm_nt's inner loop across a
// line boundary alone slowed exec-potrf-coarse by about 15% on a 4-vCPU Xeon
// host, with the kernel's machine code unchanged. The attribute combines with
// the per-variant target attribute, so every instruction-set variant of a
// blocked kernel is aligned too.
#define MP_TILE_KERNEL [[gnu::aligned(64)]]

namespace {
/// Column-major indexing with lda = nb.
[[nodiscard]] inline std::size_t at(std::size_t i, std::size_t j, std::size_t nb) {
  return j * nb + i;
}

/// Columns of the register tile.
constexpr std::size_t kNr = 6;

/// The register-blocked kernels for vectors of W doubles. Every member is
/// always_inline, so each body is compiled under the instruction set of the
/// entry point that instantiates it (MP_TILE_VARIANT below), never as an
/// out-of-line copy for the baseline ISA.
///
/// The one update is C −= A·Bᵀ over k = 0..kc−1 in ascending order, with
/// A(i, k) = a[i + k·lda] and B(j, k) = b[j·js + k·ks]: gemm_nt passes
/// (js, ks) = (1, nb), gemm_nn (nb, 1). Each element of C gets c = c − a·b
/// once per k, in ascending k, which is the sequence of the unblocked loop;
/// with -ffp-contract=off nothing is fused into an FMA, so every variant's
/// output is bit-identical to the loop's. The kernels built on the update
/// apply the finished columns (or rows) to a block first, then finish the
/// block's own columns one by one in the old loop's order, so every element
/// still sees its subtractions in ascending k and its divide or sqrt last.
template <std::size_t W>
struct Blocked {
  static constexpr std::size_t kMr = 2 * W;  ///< rows of the register tile
  // A typedef, not an alias: GCC 12 silently drops vector_size on a
  // dependent `using` and leaves V a plain double.
  typedef double V __attribute__((vector_size(W * sizeof(double))));
  static_assert(sizeof(V) == W * sizeof(double));

  /// One full kMr × kNr tile of C, held in registers across the k loop.
  [[gnu::always_inline]] static void tile(double* c, std::size_t ldc, const double* a,
                                          std::size_t lda, const double* b, std::size_t js,
                                          std::size_t ks, std::size_t kc) {
    V acc[kNr][2] = {};
#pragma GCC unroll 6
    for (std::size_t j = 0; j < kNr; ++j) {
      std::memcpy(&acc[j][0], c + j * ldc, sizeof(V));
      std::memcpy(&acc[j][1], c + j * ldc + W, sizeof(V));
    }
    for (std::size_t k = 0; k < kc; ++k) {
      V a0 = {};
      V a1 = {};
      std::memcpy(&a0, a + k * lda, sizeof(V));
      std::memcpy(&a1, a + k * lda + W, sizeof(V));
      const double* bk = b + k * ks;
#pragma GCC unroll 6
      for (std::size_t j = 0; j < kNr; ++j) {
        const double bjk = bk[j * js];
        acc[j][0] -= a0 * bjk;
        acc[j][1] -= a1 * bjk;
      }
    }
#pragma GCC unroll 6
    for (std::size_t j = 0; j < kNr; ++j) {
      std::memcpy(c + j * ldc, &acc[j][0], sizeof(V));
      std::memcpy(c + j * ldc + W, &acc[j][1], sizeof(V));
    }
  }

  /// x[i] −= y[i]·s for i < n, W elements at a time: each element still gets
  /// one multiply and one subtract.
  [[gnu::always_inline]] static void axpy(double* x, const double* y, double s, std::size_t n) {
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      V xv = {};
      V yv = {};
      std::memcpy(&xv, x + i, sizeof(V));
      std::memcpy(&yv, y + i, sizeof(V));
      xv -= yv * s;
      std::memcpy(x + i, &xv, sizeof(V));
    }
    for (; i < n; ++i) x[i] -= y[i] * s;
  }

  /// x[i] /= d for i < n, W elements at a time.
  [[gnu::always_inline]] static void divide(double* x, double d, std::size_t n) {
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      V xv = {};
      std::memcpy(&xv, x + i, sizeof(V));
      xv /= d;
      std::memcpy(x + i, &xv, sizeof(V));
    }
    for (; i < n; ++i) x[i] /= d;
  }

  /// The same update column by column, for blocks thinner than a tile:
  /// nothing is loaded past the operands.
  [[gnu::always_inline]] static void edge(double* c, std::size_t ldc, const double* a,
                                          std::size_t lda, const double* b, std::size_t js,
                                          std::size_t ks, std::size_t m, std::size_t n,
                                          std::size_t kc) {
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < kc; ++k) axpy(c + j * ldc, a + k * lda, b[j * js + k * ks], m);
  }

  /// The update on an m × n block of C. A partial last tile is shifted back
  /// to overlap its neighbour, computed on a local copy, and only its
  /// not-yet-updated elements are stored.
  [[gnu::always_inline]] static void update(double* c, std::size_t ldc, const double* a,
                                            std::size_t lda, const double* b, std::size_t js,
                                            std::size_t ks, std::size_t m, std::size_t n,
                                            std::size_t kc) {
    if (kc == 0) return;
    if (m < kMr || n < kNr) {
      edge(c, ldc, a, lda, b, js, ks, m, n, kc);
      return;
    }
    for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
      const std::size_t jt = std::min(j0, n - kNr);
      for (std::size_t i0 = 0; i0 < m; i0 += kMr) {
        const std::size_t it = std::min(i0, m - kMr);
        double* ct = c + it + jt * ldc;
        if (it == i0 && jt == j0) {
          tile(ct, ldc, a + it, lda, b + jt * js, js, ks, kc);
          continue;
        }
        double buf[kMr * kNr] = {};
        for (std::size_t j = 0; j < kNr; ++j)
          std::memcpy(buf + j * kMr, ct + j * ldc, kMr * sizeof(double));
        tile(buf, kMr, a + it, lda, b + jt * js, js, ks, kc);
        const std::size_t skip = i0 - it;
        for (std::size_t j = j0 - jt; j < kNr; ++j)
          std::memcpy(ct + skip + j * ldc, buf + skip + j * kMr,
                      (kMr - skip) * sizeof(double));
      }
    }
  }

  /// The update on the lower part (i ≥ j) of an m × n block column whose
  /// top n × n square sits on the diagonal. Register tiles that straddle the
  /// diagonal are computed on a local copy, and only their lower elements
  /// are stored; rows that cannot fill a straddling tile go element by
  /// element.
  [[gnu::always_inline]] static void update_lower(double* c, std::size_t ldc, const double* a,
                                                  std::size_t lda, const double* b,
                                                  std::size_t js, std::size_t ks, std::size_t m,
                                                  std::size_t n, std::size_t kc) {
    if (kc == 0) return;
    std::size_t i0 = 0;
    for (; n == kNr && i0 + 1 < n && i0 + kMr <= m; i0 += kMr) {
      double buf[kMr * kNr] = {};
      for (std::size_t j = 0; j < kNr; ++j)
        std::memcpy(buf + j * kMr, c + i0 + j * ldc, kMr * sizeof(double));
      tile(buf, kMr, a + i0, lda, b, js, ks, kc);
      for (std::size_t j = 0; j < kNr; ++j) {
        const std::size_t first = std::max(i0, j);
        if (first < i0 + kMr)
          std::memcpy(c + first + j * ldc, buf + (first - i0) + j * kMr,
                      (i0 + kMr - first) * sizeof(double));
      }
    }
    if (i0 + 1 >= n) {
      update(c + i0, ldc, a + i0, lda, b, js, ks, m - i0, n, kc);
      return;
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t first = std::max(i0, j);
      if (first >= m) continue;
      for (std::size_t k = 0; k < kc; ++k)
        axpy(c + first + j * ldc, a + first + k * lda, b[j * js + k * ks], m - first);
    }
  }

  // Left-looking by blocks of kNr columns: the finished columns k < j0 go in
  // through the update, then the block's columns are finished left to right.
  [[gnu::always_inline]] static void potrf(double* a, std::size_t nb) {
    for (std::size_t j0 = 0; j0 < nb; j0 += kNr) {
      const std::size_t n = std::min(kNr, nb - j0);
      update_lower(a + at(j0, j0, nb), nb, a + j0, nb, a + j0, 1, nb, nb - j0, n, j0);
      for (std::size_t j = j0; j < j0 + n; ++j) {
        for (std::size_t k = j0; k < j; ++k)
          axpy(a + at(j, j, nb), a + at(j, k, nb), a[at(j, k, nb)], nb - j);
        double pivot = a[at(j, j, nb)];
        MP_CHECK_MSG(pivot > 0.0, "potrf: matrix not positive definite");
        pivot = std::sqrt(pivot);
        a[at(j, j, nb)] = pivot;
        divide(a + at(j + 1, j, nb), pivot, nb - j - 1);
      }
    }
  }

  // B := B · L^{-T}, left-looking by blocks of kNr result columns.
  [[gnu::always_inline]] static void trsm_rlt(const double* l, double* b, std::size_t nb) {
    for (std::size_t k0 = 0; k0 < nb; k0 += kNr) {
      const std::size_t n = std::min(kNr, nb - k0);
      update(b + at(0, k0, nb), nb, b, nb, l + k0, 1, nb, nb, n, k0);
      for (std::size_t k = k0; k < k0 + n; ++k) {
        for (std::size_t j = k0; j < k; ++j)
          axpy(b + at(0, k, nb), b + at(0, j, nb), l[at(k, j, nb)], nb);
        divide(b + at(0, k, nb), l[at(k, k, nb)], nb);
      }
    }
  }

  [[gnu::always_inline]] static void syrk_ln(const double* a, double* c, std::size_t nb) {
    for (std::size_t j0 = 0; j0 < nb; j0 += kNr) {
      const std::size_t n = std::min(kNr, nb - j0);
      update_lower(c + at(j0, j0, nb), nb, a + j0, nb, a + j0, 1, nb, nb - j0, n, nb);
    }
  }

  [[gnu::always_inline]] static void gemm_nt(const double* a, const double* b, double* c,
                                             std::size_t nb) {
    update(c, nb, a, nb, b, 1, nb, nb, nb, nb);
  }

  // Left-looking (Crout order) by blocks of kNr columns: the block's rows
  // above the diagonal are a unit-lower forward substitution by row blocks,
  // the rows from the diagonal down take the finished columns through the
  // update, then the block's columns are finished left to right.
  [[gnu::always_inline]] static void getrf_nopiv(double* a, std::size_t nb) {
    for (std::size_t j0 = 0; j0 < nb; j0 += kNr) {
      const std::size_t n = std::min(kNr, nb - j0);
      const double* u = a + at(0, j0, nb);  // B(j, k) = A(k, j0 + j)
      for (std::size_t i0 = 0; i0 < j0; i0 += kMr) {
        const std::size_t m = std::min(kMr, j0 - i0);
        update(a + at(i0, j0, nb), nb, a + i0, nb, u, nb, 1, m, n, i0);
        for (std::size_t j = j0; j < j0 + n; ++j)
          for (std::size_t k = i0; k < i0 + m; ++k)
            axpy(a + at(k + 1, j, nb), a + at(k + 1, k, nb), a[at(k, j, nb)], i0 + m - k - 1);
      }
      update(a + at(j0, j0, nb), nb, a + j0, nb, u, nb, 1, nb - j0, n, j0);
      for (std::size_t j = j0; j < j0 + n; ++j) {
        for (std::size_t k = j0; k < j; ++k)
          axpy(a + at(k + 1, j, nb), a + at(k + 1, k, nb), a[at(k, j, nb)], nb - k - 1);
        const double pivot = a[at(j, j, nb)];
        MP_CHECK_MSG(pivot != 0.0, "getrf_nopiv: zero pivot");
        divide(a + at(j + 1, j, nb), pivot, nb - j - 1);
      }
    }
  }

  // B := L^{-1}·B by blocks of kMr rows: the finished rows k < i0 through the
  // update, then forward substitution within the block.
  [[gnu::always_inline]] static void trsm_llnu(const double* l, double* b, std::size_t nb) {
    for (std::size_t i0 = 0; i0 < nb; i0 += kMr) {
      const std::size_t m = std::min(kMr, nb - i0);
      update(b + i0, nb, l + i0, nb, b, nb, 1, m, nb, i0);
      for (std::size_t j = 0; j < nb; ++j)
        for (std::size_t k = i0; k < i0 + m; ++k)
          axpy(b + at(k + 1, j, nb), l + at(k + 1, k, nb), b[at(k, j, nb)], i0 + m - k - 1);
    }
  }

  // B := B·U^{-1}, left-looking by blocks of kNr result columns.
  [[gnu::always_inline]] static void trsm_run(const double* u, double* b, std::size_t nb) {
    for (std::size_t j0 = 0; j0 < nb; j0 += kNr) {
      const std::size_t n = std::min(kNr, nb - j0);
      update(b + at(0, j0, nb), nb, b, nb, u + at(0, j0, nb), nb, 1, nb, n, j0);
      for (std::size_t j = j0; j < j0 + n; ++j) {
        for (std::size_t k = j0; k < j; ++k)
          axpy(b + at(0, j, nb), b + at(0, k, nb), u[at(k, j, nb)], nb);
        const double d = u[at(j, j, nb)];
        MP_CHECK_MSG(d != 0.0, "trsm_run: singular U");
        divide(b + at(0, j, nb), d, nb);
      }
    }
  }

  [[gnu::always_inline]] static void gemm_nn(const double* a, const double* b, double* c,
                                             std::size_t nb) {
    update(c, nb, a, nb, b, nb, 1, nb, nb, nb);
  }
};

// The entry points of one variant, in namespace NS: Blocked<W> compiled under
// the function attributes passed after W, plus its row of the variant table.
#define MP_TILE_VARIANT(NS, W, ...)                                                        \
  namespace NS {                                                                           \
  __VA_ARGS__ MP_TILE_KERNEL void potrf(double* a, std::size_t nb) {                       \
    Blocked<W>::potrf(a, nb);                                                              \
  }                                                                                        \
  __VA_ARGS__ MP_TILE_KERNEL void trsm_rlt(const double* l, double* b, std::size_t nb) {   \
    Blocked<W>::trsm_rlt(l, b, nb);                                                        \
  }                                                                                        \
  __VA_ARGS__ MP_TILE_KERNEL void syrk_ln(const double* a, double* c, std::size_t nb) {    \
    Blocked<W>::syrk_ln(a, c, nb);                                                         \
  }                                                                                        \
  __VA_ARGS__ MP_TILE_KERNEL void gemm_nt(const double* a, const double* b, double* c,     \
                                          std::size_t nb) {                                \
    Blocked<W>::gemm_nt(a, b, c, nb);                                                      \
  }                                                                                        \
  __VA_ARGS__ MP_TILE_KERNEL void getrf_nopiv(double* a, std::size_t nb) {                 \
    Blocked<W>::getrf_nopiv(a, nb);                                                        \
  }                                                                                        \
  __VA_ARGS__ MP_TILE_KERNEL void trsm_llnu(const double* l, double* b, std::size_t nb) {  \
    Blocked<W>::trsm_llnu(l, b, nb);                                                       \
  }                                                                                        \
  __VA_ARGS__ MP_TILE_KERNEL void trsm_run(const double* u, double* b, std::size_t nb) {   \
    Blocked<W>::trsm_run(u, b, nb);                                                        \
  }                                                                                        \
  __VA_ARGS__ MP_TILE_KERNEL void gemm_nn(const double* a, const double* b, double* c,     \
                                          std::size_t nb) {                                \
    Blocked<W>::gemm_nn(a, b, c, nb);                                                      \
  }                                                                                        \
  detail::TileKernelVariant variant(bool supported) {                                      \
    return {#NS,      W,           supported, &potrf,     &trsm_rlt,                       \
            &syrk_ln, &gemm_nt,    &getrf_nopiv, &trsm_llnu, &trsm_run, &gemm_nn};         \
  }                                                                                        \
  }  // namespace NS

MP_TILE_VARIANT(generic, 2)
#if defined(__x86_64__)
MP_TILE_VARIANT(avx2, 4, [[gnu::target("avx2")]])
MP_TILE_VARIANT(avx512f, 8, [[gnu::target("avx512f")]])
#endif
#undef MP_TILE_VARIANT

}  // namespace

namespace detail {

std::span<const TileKernelVariant> tile_kernel_variants() {
#if defined(__x86_64__)
  static const TileKernelVariant variants[] = {
      generic::variant(true), avx2::variant(__builtin_cpu_supports("avx2") != 0),
      avx512f::variant(__builtin_cpu_supports("avx512f") != 0)};
#else
  static const TileKernelVariant variants[] = {generic::variant(true)};
#endif
  return variants;
}

const TileKernelVariant& active_tile_kernels() {
  static const TileKernelVariant& active = []() -> const TileKernelVariant& {
    const std::span<const TileKernelVariant> all = tile_kernel_variants();
    const TileKernelVariant* widest = all.data();
    for (const TileKernelVariant& v : all)
      if (v.supported) widest = &v;
    return *widest;
  }();
  return active;
}

}  // namespace detail

void potrf(double* a, std::size_t nb) { detail::active_tile_kernels().potrf(a, nb); }
void trsm_rlt(const double* l, double* b, std::size_t nb) {
  detail::active_tile_kernels().trsm_rlt(l, b, nb);
}
void syrk_ln(const double* a, double* c, std::size_t nb) {
  detail::active_tile_kernels().syrk_ln(a, c, nb);
}
void gemm_nt(const double* a, const double* b, double* c, std::size_t nb) {
  detail::active_tile_kernels().gemm_nt(a, b, c, nb);
}
void getrf_nopiv(double* a, std::size_t nb) {
  detail::active_tile_kernels().getrf_nopiv(a, nb);
}
void trsm_llnu(const double* l, double* b, std::size_t nb) {
  detail::active_tile_kernels().trsm_llnu(l, b, nb);
}
void trsm_run(const double* u, double* b, std::size_t nb) {
  detail::active_tile_kernels().trsm_run(u, b, nb);
}
void gemm_nn(const double* a, const double* b, double* c, std::size_t nb) {
  detail::active_tile_kernels().gemm_nn(a, b, c, nb);
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

MP_TILE_KERNEL void tsmqr(double* c_top, double* c_bot, const double* v_bot,
                          const double* tau, std::size_t nb) {
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
