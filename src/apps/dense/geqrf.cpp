#include "apps/dense/dense_builders.hpp"
#include "apps/dense/tile_kernels.hpp"
#include "common/check.hpp"

namespace mp::dense {

std::unique_ptr<DenseAux> build_geqrf(TaskGraph& graph, TileMatrix& a,
                                      bool expert_priorities) {
  const std::size_t T = a.tiles();
  const std::size_t nb = a.nb();
  auto aux = std::make_unique<DenseAux>();

  // One tau vector per (i,k) reflector block; allocated only when the matrix
  // carries real storage (simulation-only DAGs keep null user_ptrs).
  auto make_tau = [&]() -> void* {
    if (!a.allocated()) return nullptr;
    aux->buffers.emplace_back(nb, 0.0);
    return aux->buffers.back().data();
  };

  const CodeletId cl_geqrt = graph.add_codelet(
      "geqrt", {ArchType::CPU, ArchType::GPU},
      [nb](const Task&, std::span<void* const> buf) {
        geqrt(static_cast<double*>(buf[0]), static_cast<double*>(buf[1]), nb);
      });
  const CodeletId cl_ormqr = graph.add_codelet(
      "ormqr", {ArchType::CPU, ArchType::GPU},
      [nb](const Task&, std::span<void* const> buf) {
        ormqr(static_cast<const double*>(buf[0]), static_cast<const double*>(buf[1]),
              static_cast<double*>(buf[2]), nb);
      });
  const CodeletId cl_tsqrt = graph.add_codelet(
      "tsqrt", {ArchType::CPU, ArchType::GPU},
      [nb](const Task&, std::span<void* const> buf) {
        tsqrt(static_cast<double*>(buf[0]), static_cast<double*>(buf[1]),
              static_cast<double*>(buf[2]), nb);
      });
  const CodeletId cl_tsmqr = graph.add_codelet(
      "tsmqr", {ArchType::CPU, ArchType::GPU},
      [nb](const Task&, std::span<void* const> buf) {
        tsmqr(static_cast<double*>(buf[0]), static_cast<double*>(buf[1]),
              static_cast<const double*>(buf[2]), static_cast<const double*>(buf[3]), nb);
      });

  const std::size_t tau_bytes = nb * sizeof(double);
  for (std::size_t k = 0; k < T; ++k) {
    const DataId tau_kk = graph.add_data(tau_bytes, make_tau());
    SubmitOptions qo;
    qo.flops = flops_geqrt(nb);
    qo.iparams = {static_cast<std::int64_t>(k), 0, 0, 0};
    graph.submit(cl_geqrt,
                 {Access{a.handle(k, k), AccessMode::ReadWrite},
                  Access{tau_kk, AccessMode::Write}},
                 qo);

    for (std::size_t j = k + 1; j < T; ++j) {
      SubmitOptions oo;
      oo.flops = flops_ormqr(nb);
      oo.iparams = {static_cast<std::int64_t>(k), static_cast<std::int64_t>(j), 0, 0};
      graph.submit(cl_ormqr,
                   {Access{a.handle(k, k), AccessMode::Read},
                    Access{tau_kk, AccessMode::Read},
                    Access{a.handle(k, j), AccessMode::ReadWrite}},
                   oo);
    }

    for (std::size_t i = k + 1; i < T; ++i) {
      const DataId tau_ik = graph.add_data(tau_bytes, make_tau());
      SubmitOptions to;
      to.flops = flops_tsqrt(nb);
      to.iparams = {static_cast<std::int64_t>(i), static_cast<std::int64_t>(k), 0, 0};
      graph.submit(cl_tsqrt,
                   {Access{a.handle(k, k), AccessMode::ReadWrite},
                    Access{a.handle(i, k), AccessMode::ReadWrite},
                    Access{tau_ik, AccessMode::Write}},
                   to);
      for (std::size_t j = k + 1; j < T; ++j) {
        SubmitOptions mo;
        mo.flops = flops_tsmqr(nb);
        mo.iparams = {static_cast<std::int64_t>(i), static_cast<std::int64_t>(j),
                      static_cast<std::int64_t>(k), 0};
        graph.submit(cl_tsmqr,
                     {Access{a.handle(k, j), AccessMode::ReadWrite},
                      Access{a.handle(i, j), AccessMode::ReadWrite},
                      Access{a.handle(i, k), AccessMode::Read},
                      Access{tau_ik, AccessMode::Read}},
                     mo);
      }
    }
  }
  if (expert_priorities) assign_expert_priorities(graph);
  return aux;
}

}  // namespace mp::dense
