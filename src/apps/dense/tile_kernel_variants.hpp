// The instruction-set variants behind the public tile kernels, for the
// bit-identity tests and bench_tile_kernels only: applications call the
// kernels in tile_kernels.hpp, which use active_tile_kernels().
#pragma once

#include <cstddef>
#include <span>

namespace mp::dense::detail {

/// One compiled variant of the register-blocked kernels: W doubles per
/// vector, a 2W × 6 accumulator tile. Every variant gives bit-identical
/// output; only the speed differs.
struct TileKernelVariant {
  const char* name;  ///< "generic" (W = 2), "avx2" (W = 4) or "avx512f" (W = 8)
  std::size_t width;
  bool supported;  ///< the host can run this variant
  void (*potrf)(double* a, std::size_t nb);
  void (*trsm_rlt)(const double* l, double* b, std::size_t nb);
  void (*syrk_ln)(const double* a, double* c, std::size_t nb);
  void (*gemm_nt)(const double* a, const double* b, double* c, std::size_t nb);
  void (*getrf_nopiv)(double* a, std::size_t nb);
  void (*trsm_llnu)(const double* l, double* b, std::size_t nb);
  void (*trsm_run)(const double* u, double* b, std::size_t nb);
  void (*gemm_nn)(const double* a, const double* b, double* c, std::size_t nb);
};

/// Every variant compiled into this binary, narrowest first. "generic" is
/// always present and supported; the others exist on x86-64 only.
[[nodiscard]] std::span<const TileKernelVariant> tile_kernel_variants();

/// The widest supported variant, chosen once per process.
[[nodiscard]] const TileKernelVariant& active_tile_kernels();

}  // namespace mp::dense::detail
