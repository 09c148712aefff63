#include "apps/sparseqr/dag_builder.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mp::sqr {

SparseQrStats build_sparseqr(TaskGraph& graph, const SymbolicAnalysis& sym,
                             SparseQrDagOptions opts) {
  MP_CHECK(opts.panel_cols >= 1);
  SparseQrStats stats;
  stats.fronts = sym.fronts.size();

  // Assembly is memory-bound scatter work, CPU-only; panel factorization is
  // latency-bound (CPU-favoured); updates are compute-bound (GPU-favoured
  // when big) — the rate tables encode this through the codelet names.
  const CodeletId cl_init = graph.add_codelet("init_front", {ArchType::CPU});
  const CodeletId cl_panel = graph.add_codelet("geqrt", {ArchType::CPU, ArchType::GPU});
  const CodeletId cl_update = graph.add_codelet("tsmqr", {ArchType::CPU, ArchType::GPU});

  // Panel handles per front, sized by the staircase's peak active rows
  // (fronts are stored as trapezoids, not full m×n rectangles).
  std::vector<std::vector<DataId>> panels(sym.fronts.size());
  std::vector<std::size_t> first_border_panel(sym.fronts.size(), 0);

  for (std::size_t fi = 0; fi < sym.fronts.size(); ++fi) {
    const Front& f = sym.fronts[fi];
    const std::size_t nf = f.n();
    const std::size_t kf = std::max<std::size_t>(1, f.k());
    // Stored depth of column j: pivot columns hold their V reflector (the
    // staircase height at elimination); border columns hold the R/CB rows,
    // bounded by both the final staircase height and the triangular profile.
    auto depth = [&](std::size_t j) -> std::size_t {
      std::size_t active = 1;
      if (!f.rows_at_pivot.empty()) {
        const std::size_t i = std::min({j, kf - 1, f.rows_at_pivot.size() - 1});
        active = f.rows_at_pivot[i] > i ? f.rows_at_pivot[i] - i : 1;
      }
      if (j >= kf) active = std::min(active, j + 1);
      return std::min(active, opts.max_rows_per_handle);
    };
    const std::size_t npanels = (nf + opts.panel_cols - 1) / opts.panel_cols;
    panels[fi].reserve(npanels);
    for (std::size_t p = 0; p < npanels; ++p) {
      const std::size_t width = std::min(opts.panel_cols, nf - p * opts.panel_cols);
      std::size_t area = 0;
      for (std::size_t j = p * opts.panel_cols; j < p * opts.panel_cols + width; ++j)
        area += depth(j);
      panels[fi].push_back(graph.add_data(area * sizeof(double)));
      ++stats.panels;
    }
    first_border_panel[fi] = f.k() / opts.panel_cols;  // panels holding the CB
  }

  for (std::size_t fi = 0; fi < sym.fronts.size(); ++fi) {
    const Front& f = sym.fronts[fi];
    const std::size_t nf = f.n();
    const std::size_t npanels = panels[fi].size();

    // Per-pivot active rows from the staircase profile.
    auto active_at = [&](std::size_t i) {
      if (f.rows_at_pivot.empty()) return 1.0;
      const std::size_t idx = std::min(i, f.rows_at_pivot.size() - 1);
      const double a = static_cast<double>(f.rows_at_pivot[idx]) - static_cast<double>(i);
      return std::max(1.0, a);
    };

    // ---- assembly: gather A rows and children contribution blocks --------
    {
      std::vector<Access> acc;
      for (DataId p : panels[fi]) acc.push_back(Access{p, AccessMode::Write});
      for (std::uint32_t ci : f.children) {
        // The child's trailing panels hold its contribution block.
        for (std::size_t p = first_border_panel[ci]; p < panels[ci].size(); ++p)
          acc.push_back(Access{panels[ci][p], AccessMode::Read});
        if (first_border_panel[ci] >= panels[ci].size() && !panels[ci].empty()) {
          // Child fully eliminated (no border): still order after the child.
          acc.push_back(Access{panels[ci].back(), AccessMode::Read});
        }
      }
      double touched = 0.0;  // entries scattered into the trapezoid
      for (std::size_t i = 0; i < f.k(); ++i) touched += active_at(i);
      SubmitOptions o;
      o.flops = std::max(1.0, touched);
      o.iparams = {static_cast<std::int64_t>(fi), 0, 0, 0};
      graph.submit(cl_init, std::span<const Access>(acc), o);
      ++stats.tasks;
    }

    // ---- 1D panel factorization over the pivot panels --------------------
    const std::size_t kf = std::min<std::size_t>({f.k(), f.m, nf});
    const std::size_t pivot_panels = (kf + opts.panel_cols - 1) / opts.panel_cols;
    for (std::size_t p = 0; p < pivot_panels; ++p) {
      const std::size_t i0 = p * opts.panel_cols;
      const std::size_t kp = std::min(opts.panel_cols, kf - i0);
      // Reflector formation + in-panel application, staircase-aware.
      double panel_flops = 0.0;
      for (std::size_t i = i0; i < i0 + kp; ++i)
        panel_flops += 4.0 * active_at(i) * static_cast<double>(kp);
      SubmitOptions po;
      po.flops = std::max(1.0, panel_flops);
      po.iparams = {static_cast<std::int64_t>(fi), static_cast<std::int64_t>(p), 0, 0};
      graph.submit(cl_panel, {Access{panels[fi][p], AccessMode::ReadWrite}}, po);
      ++stats.tasks;
      for (std::size_t q = p + 1; q < npanels; ++q) {
        const double width_q = static_cast<double>(
            std::min(opts.panel_cols, nf - q * opts.panel_cols));
        double upd_flops = 0.0;
        for (std::size_t i = i0; i < i0 + kp; ++i)
          upd_flops += 4.0 * active_at(i) * width_q;
        SubmitOptions uo;
        uo.flops = std::max(1.0, upd_flops);
        uo.iparams = {static_cast<std::int64_t>(fi), static_cast<std::int64_t>(p),
                      static_cast<std::int64_t>(q), 0};
        graph.submit(cl_update,
                     {Access{panels[fi][p], AccessMode::Read},
                      Access{panels[fi][q], AccessMode::ReadWrite}},
                     uo);
        ++stats.tasks;
      }
    }
  }
  stats.flops = graph.total_flops();
  return stats;
}

}  // namespace mp::sqr
