#include "apps/dense/dense_builders.hpp"
#include "apps/dense/tile_kernels.hpp"
#include "common/check.hpp"

namespace mp::dense {

void assign_expert_priorities(TaskGraph& graph) {
  const std::vector<double> rank = graph.upward_rank_flops();
  for (std::size_t i = 0; i < rank.size(); ++i) {
    // Scale flops ranks into a comfortable int64 range (1e3 flops units).
    graph.set_user_priority(TaskId{i}, static_cast<std::int64_t>(rank[i] / 1e3));
  }
}

double potrf_total_flops(std::size_t n) {
  const double d = static_cast<double>(n);
  return d * d * d / 3.0;
}

double getrf_total_flops(std::size_t n) {
  const double d = static_cast<double>(n);
  return 2.0 * d * d * d / 3.0;
}

double geqrf_total_flops(std::size_t n) {
  const double d = static_cast<double>(n);
  return 4.0 * d * d * d / 3.0;
}

void build_potrf(TaskGraph& graph, TileMatrix& a, bool expert_priorities) {
  const std::size_t T = a.tiles();
  const std::size_t nb = a.nb();

  const CodeletId cl_potrf = graph.add_codelet(
      "potrf", {ArchType::CPU, ArchType::GPU},
      [nb](const Task&, std::span<void* const> buf) {
        potrf(static_cast<double*>(buf[0]), nb);
      });
  const CodeletId cl_trsm = graph.add_codelet(
      "trsm", {ArchType::CPU, ArchType::GPU},
      [nb](const Task&, std::span<void* const> buf) {
        trsm_rlt(static_cast<const double*>(buf[0]), static_cast<double*>(buf[1]), nb);
      });
  const CodeletId cl_syrk = graph.add_codelet(
      "syrk", {ArchType::CPU, ArchType::GPU},
      [nb](const Task&, std::span<void* const> buf) {
        syrk_ln(static_cast<const double*>(buf[0]), static_cast<double*>(buf[1]), nb);
      });
  const CodeletId cl_gemm = graph.add_codelet(
      "gemm", {ArchType::CPU, ArchType::GPU},
      [nb](const Task&, std::span<void* const> buf) {
        gemm_nt(static_cast<const double*>(buf[0]), static_cast<const double*>(buf[1]),
                static_cast<double*>(buf[2]), nb);
      });

  for (std::size_t k = 0; k < T; ++k) {
    SubmitOptions po;
    po.flops = flops_potrf(nb);
    po.iparams = {static_cast<std::int64_t>(k), 0, 0, 0};
    graph.submit(cl_potrf, {Access{a.handle(k, k), AccessMode::ReadWrite}}, po);

    for (std::size_t i = k + 1; i < T; ++i) {
      SubmitOptions to;
      to.flops = flops_trsm(nb);
      to.iparams = {static_cast<std::int64_t>(i), static_cast<std::int64_t>(k), 0, 0};
      graph.submit(cl_trsm,
                   {Access{a.handle(k, k), AccessMode::Read},
                    Access{a.handle(i, k), AccessMode::ReadWrite}},
                   to);
    }
    for (std::size_t i = k + 1; i < T; ++i) {
      SubmitOptions so;
      so.flops = flops_syrk(nb);
      so.iparams = {static_cast<std::int64_t>(i), static_cast<std::int64_t>(k), 0, 0};
      graph.submit(cl_syrk,
                   {Access{a.handle(i, k), AccessMode::Read},
                    Access{a.handle(i, i), AccessMode::ReadWrite}},
                   so);
      for (std::size_t j = k + 1; j < i; ++j) {
        SubmitOptions go;
        go.flops = flops_gemm(nb);
        go.iparams = {static_cast<std::int64_t>(i), static_cast<std::int64_t>(j),
                      static_cast<std::int64_t>(k), 0};
        graph.submit(cl_gemm,
                     {Access{a.handle(i, k), AccessMode::Read},
                      Access{a.handle(j, k), AccessMode::Read},
                      Access{a.handle(i, j), AccessMode::ReadWrite}},
                     go);
      }
    }
  }
  if (expert_priorities) assign_expert_priorities(graph);
}

}  // namespace mp::dense
