#include "apps/dense/dense_builders.hpp"
#include "apps/dense/tile_kernels.hpp"
#include "common/check.hpp"

namespace mp::dense {

void build_getrf(TaskGraph& graph, TileMatrix& a, bool expert_priorities) {
  const std::size_t T = a.tiles();
  const std::size_t nb = a.nb();

  const CodeletId cl_getrf = graph.add_codelet(
      "getrf", {ArchType::CPU, ArchType::GPU},
      [nb](const Task&, std::span<void* const> buf) {
        getrf_nopiv(static_cast<double*>(buf[0]), nb);
      });
  // Row-panel solve with unit-lower L; column-panel solve with upper U.
  // Two distinct codelets sharing the "trsm" performance-model name.
  const CodeletId cl_trsm_l = graph.add_codelet(
      "trsm", {ArchType::CPU, ArchType::GPU},
      [nb](const Task&, std::span<void* const> buf) {
        trsm_llnu(static_cast<const double*>(buf[0]), static_cast<double*>(buf[1]), nb);
      });
  const CodeletId cl_trsm_u = graph.add_codelet(
      "trsm", {ArchType::CPU, ArchType::GPU},
      [nb](const Task&, std::span<void* const> buf) {
        trsm_run(static_cast<const double*>(buf[0]), static_cast<double*>(buf[1]), nb);
      });
  const CodeletId cl_gemm = graph.add_codelet(
      "gemm", {ArchType::CPU, ArchType::GPU},
      [nb](const Task&, std::span<void* const> buf) {
        gemm_nn(static_cast<const double*>(buf[0]), static_cast<const double*>(buf[1]),
                static_cast<double*>(buf[2]), nb);
      });

  for (std::size_t k = 0; k < T; ++k) {
    SubmitOptions fo;
    fo.flops = flops_getrf(nb);
    fo.iparams = {static_cast<std::int64_t>(k), 0, 0, 0};
    graph.submit(cl_getrf, {Access{a.handle(k, k), AccessMode::ReadWrite}}, fo);

    for (std::size_t j = k + 1; j < T; ++j) {  // U row panel: A[k][j] := L⁻¹·A[k][j]
      SubmitOptions to;
      to.flops = flops_trsm(nb);
      to.iparams = {static_cast<std::int64_t>(k), static_cast<std::int64_t>(j), 0, 0};
      graph.submit(cl_trsm_l,
                   {Access{a.handle(k, k), AccessMode::Read},
                    Access{a.handle(k, j), AccessMode::ReadWrite}},
                   to);
    }
    for (std::size_t i = k + 1; i < T; ++i) {  // L column panel: A[i][k] := A[i][k]·U⁻¹
      SubmitOptions to;
      to.flops = flops_trsm(nb);
      to.iparams = {static_cast<std::int64_t>(i), static_cast<std::int64_t>(k), 0, 0};
      graph.submit(cl_trsm_u,
                   {Access{a.handle(k, k), AccessMode::Read},
                    Access{a.handle(i, k), AccessMode::ReadWrite}},
                   to);
    }
    for (std::size_t i = k + 1; i < T; ++i) {
      for (std::size_t j = k + 1; j < T; ++j) {
        SubmitOptions go;
        go.flops = flops_gemm(nb);
        go.iparams = {static_cast<std::int64_t>(i), static_cast<std::int64_t>(j),
                      static_cast<std::int64_t>(k), 0};
        graph.submit(cl_gemm,
                     {Access{a.handle(i, k), AccessMode::Read},
                      Access{a.handle(k, j), AccessMode::Read},
                      Access{a.handle(i, j), AccessMode::ReadWrite}},
                     go);
      }
    }
  }
  if (expert_priorities) assign_expert_priorities(graph);
}

}  // namespace mp::dense
