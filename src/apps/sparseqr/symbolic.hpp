// Symbolic multifrontal QR analysis: column elimination tree, post-order,
// amalgamation of etree chains into fronts, and exact front structures (column
// patterns via bottom-up union of assembled-row patterns and child borders).
// This is the analysis phase of a qr_mumps-style solver; its fronts drive
// the irregular DAG of the paper's sparse experiments (Fig. 8).
#pragma once

#include <cstdint>
#include <vector>

#include "apps/sparseqr/sparse_matrix.hpp"

namespace mp::sqr {

/// Column elimination tree of A (the etree of AᵀA, computed directly from A
/// with the Gilbert–Ng–Peyton row-merge algorithm). parent[j] == j marks a
/// root.
[[nodiscard]] std::vector<std::uint32_t> column_etree(const SparseMatrix& a);

/// Post-order permutation of a forest given as a parent array.
[[nodiscard]] std::vector<std::uint32_t> postorder(const std::vector<std::uint32_t>& parent);

struct Front {
  /// Pivot columns eliminated by this front, in post-order rank space
  /// (consecutive integers; map back through SymbolicAnalysis::post).
  std::vector<std::uint32_t> cols;
  /// Border: structure columns beyond the pivots (ascending original ids).
  std::vector<std::uint32_t> border;
  /// Assembled row count: original A rows whose leftmost pivot is here plus
  /// children contribution rows.
  std::size_t m = 0;
  std::vector<std::uint32_t> children;  ///< front indices
  std::uint32_t parent = 0;             ///< front index; == own index for roots

  [[nodiscard]] std::size_t k() const { return cols.size(); }      ///< pivots
  [[nodiscard]] std::size_t n() const { return cols.size() + border.size(); }
  /// Contribution-block rows handed to the parent.
  [[nodiscard]] std::size_t cb_rows() const {
    const std::size_t mn = std::min(m, n());
    return mn > k() ? mn - k() : 0;
  }
  /// Elimination flops. The analysis fills `staircase_flops` with the exact
  /// staircase-aware count (rows only participate from their entry pivot
  /// on, as qr_mumps exploits); dense_flops() is the m×n upper bound.
  double staircase_flops = -1.0;
  [[nodiscard]] double flops() const {
    return staircase_flops >= 0.0 ? staircase_flops : dense_flops();
  }
  /// Rows having entered the front before eliminating pivot i (the
  /// staircase profile; filled by the analysis). Drives per-panel task
  /// sizes in the DAG builder.
  std::vector<std::uint32_t> rows_at_pivot;
  /// Dense QR flops for eliminating k pivots of an m×n front.
  [[nodiscard]] double dense_flops() const;
};

struct SymbolicAnalysis {
  std::vector<std::uint32_t> etree_parent;  ///< per column
  std::vector<std::uint32_t> post;          ///< post-order of columns
  std::vector<Front> fronts;                ///< in (front) post-order
  double total_flops = 0.0;

  /// Structural invariants (every column in exactly one front, children
  /// consistent, parents after children). Aborts on violation.
  void self_check(std::size_t n_cols) const;
};

struct AnalysisOptions {
  /// Maximum pivot columns per front when amalgamating etree chains. Real
  /// multifrontal codes eliminate thousands of pivots per front near the
  /// (dense-ish) root — small caps fragment the root region into chains of
  /// fronts shuttling enormous contribution blocks.
  std::size_t max_front_cols = 1024;
};

[[nodiscard]] SymbolicAnalysis analyze(const SparseMatrix& a, AnalysisOptions opts = {});

}  // namespace mp::sqr
